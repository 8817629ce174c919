// Settings shared by the workloads, and the per-layer metrics of a traced run.
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"

namespace perfbench {

tvmcpp::Target BenchTarget() { return tvmcpp::Target::ArmA53(); }

tvmcpp::graph::CompileOptions BenchCompileOptions() {
  tvmcpp::graph::CompileOptions opts;
  opts.use_tuning_cache = false;
  opts.specialize = tvmcpp::LoopSpecializeOptions();
  return opts;
}

tvmcpp::vm::ExecOptions SerialExec() {
  tvmcpp::vm::ExecOptions exec;
  exec.num_threads = 1;
  return exec;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void SetCompileLayers(const CompileTotals& t, Result* r) {
  r->Set("frontend.build_ms", "ms", t.frontend_ms);
  r->Set("graph.fuse_ms", "ms", t.fuse_ms);
  r->Set("graph.groups", "count", static_cast<double>(t.groups));
  r->Set("graph.plan_mb", "MB", t.plan_bytes / (1024.0 * 1024.0));
  r->Set("schedule.ms", "ms", t.schedule_ms);
  r->Set("lower.ms", "ms", t.lower_ms);
  r->Set("vm.compile_ms", "ms", t.vm_compile_ms);
  r->Set("vm.instrs", "count", static_cast<double>(t.vm_instrs));
  r->Set("codegen.emit_ms", "ms", t.emit_ms);
  r->Set("codegen.c_kb", "KiB", static_cast<double>(t.c_bytes) / 1024.0);
  r->Set("codegen.cc_ms", "ms", t.cc_ms);
  r->Set("codegen.compiles", "count", static_cast<double>(t.compiles));
  r->Set("codegen.disk_hits", "count", static_cast<double>(t.disk_hits));
  r->Set("compile.coverage", "ratio", t.ctor_ms > 0 ? t.StagesMs() / t.ctor_ms : 0);
  // The replay compiles from an empty cache directory: a disk hit means it was not.
  r->Count(t.disk_hits == 0, "replay compile hit the native disk cache");
}

void SetKernelLayers(const std::vector<KindTotals>& rounds, bool native, Result* r) {
  std::vector<std::string> kinds = MasterKinds();
  kinds.push_back("other");
  for (const std::string tier : {"native.", "vm."}) {
    // The tier the workload does not run on does no work: its figures are 0.
    const bool ran = (tier == "native.") == native;
    for (const std::string& kind : kinds) {
      std::vector<double> ms;
      double flops = 0;
      for (const KindTotals& k : ran ? rounds : std::vector<KindTotals>()) {
        auto it = k.ms.find(kind);
        ms.push_back(it == k.ms.end() ? 0 : it->second);
        auto f = k.flops.find(kind);
        flops = f == k.flops.end() ? 0 : f->second;
      }
      const double med = Median(ms);
      r->Set(tier + kind + "_ms", "ms", med, static_cast<int64_t>(ms.size()));
      if (kind != "other") {
        r->Set(tier + kind + "_gflops", "GFLOP/s", med > 0 ? flops / (med * 1e6) : 0,
               static_cast<int64_t>(ms.size()));
      }
    }
  }
}

void SetTraceLayers(double kernel_ms, double run_ms, double replay_ms, Result* r) {
  r->Set("kernel.coverage", "ratio", run_ms > 0 ? kernel_ms / run_ms : 0);
  r->Set("trace.overhead_ms", "ms", replay_ms - run_ms);
  r->Set("trace.overhead_pct", "%", run_ms > 0 ? 100.0 * (replay_ms - run_ms) / run_ms : 0);
}

void FinishTrace(const Tracer& tracer, const Options& o, Result* r) {
  const std::string nesting = tracer.CheckNesting();
  r->Count(nesting.empty(), "trace spans: " + nesting);
  if (!o.trace_file.empty()) {
    r->Count(tracer.WriteChromeTrace(o.trace_file), "cannot write " + o.trace_file);
    r->Note("trace_file", o.trace_file);
  }
  r->Note("spans", std::to_string(tracer.spans().size()));
}

}  // namespace perfbench
