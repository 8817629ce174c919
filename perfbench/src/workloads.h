// The benchmark's workloads and the settings they share.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/trace.h"
#include "src/graph/executor.h"
#include "src/runtime/target.h"
#include "src/vm/vm.h"

namespace perfbench {

// Every model is compiled for the same CPU target with untuned default schedules:
// the tuning cache is off and loop specialization uses the library defaults,
// whatever the caller's environment says.
tvmcpp::Target BenchTarget();
tvmcpp::graph::CompileOptions BenchCompileOptions();
// Kernel threads fixed at 1 (threaded VM timings are bimodal on this library).
tvmcpp::vm::ExecOptions SerialExec();

// Derives an independent stream seed from the workload seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

Result RunZoo(const Options& o, bool native);
Result RunServeMix(const Options& o);

// Adds the interp-tier reference outputs of the zoo models missing from `path`:
// each model's output, and for a model ending in softmax or tanh the input of
// that op too (entry "<key>.pre").
void MakeZooReferences(const std::string& path);

// Per-layer metrics of a traced run.
void SetCompileLayers(const CompileTotals& t, Result* r);
// Per master-op kind and tier ("native." or "vm."): median over rounds of the
// summed kernel self time, and the GFLOP/s that gives; 0 for the tier not run.
void SetKernelLayers(const std::vector<KindTotals>& rounds, bool native, Result* r);
// kernel.coverage (kernel spans / CompiledGraph::Run), compile.coverage, and the
// tracing overhead as traced replay minus untraced run time.
void SetTraceLayers(double kernel_ms, double run_ms, double replay_ms, Result* r);
// Checks span nesting and writes the Chrome trace file.
void FinishTrace(const Tracer& tracer, const Options& o, Result* r);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
