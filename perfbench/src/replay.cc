#include "perfbench/src/replay.h"

#include <algorithm>
#include <exception>
#include <unordered_set>
#include <utility>

#include "src/codegen/codegen.h"
#include "src/lower/lower.h"
#include "src/support/logging.h"
#include "src/te/tensor.h"
#include "src/topi/schedules.h"

namespace perfbench {

using namespace tvmcpp;  // NOLINT: the replay spells out many library types

const std::vector<std::string>& MasterKinds() {
  static const std::vector<std::string> kinds = {"conv2d", "depthwise_conv2d", "dense",
                                                 "conv2d_transpose", "sparse_dense"};
  return kinds;
}

Replay::Replay(const frontend::Model& model,
               std::shared_ptr<const graph::CompiledGraph> compiled, const Target& target,
               bool native, Tracer* tracer, CompileTotals* totals)
    : compiled_(std::move(compiled)), native_(native) {
  const graph::Graph& g = compiled_->graph();
  const LoopSpecializeOptions spec;  // the benchmark compiles with the defaults
  std::vector<graph::FusedGroup> groups;
  graph::MemoryPlan plan;
  {
    ScopedSpan span(tracer, "graph.fuse");
    Clock::time_point t0 = Clock::now();
    groups = graph::FuseOps(g, /*enable_fusion=*/true);
    plan = graph::PlanMemory(g, groups);
    totals->fuse_ms += MsBetween(t0, Clock::now());
  }
  totals->groups += static_cast<int64_t>(groups.size());
  for (int64_t b : plan.storage_bytes) {
    totals->plan_bytes += static_cast<double>(b);
  }

  size_t next_workload = 0;
  for (const graph::FusedGroup& grp : groups) {
    Kernel k;
    Schedule sch;
    std::vector<Tensor> args;
    std::string name;
    {
      ScopedSpan span(tracer, "schedule");
      Clock::time_point t0 = Clock::now();
      std::unordered_set<int> in_group(grp.nodes.begin(), grp.nodes.end());
      for (int id : grp.nodes) {
        for (int in : g.node(id).inputs) {
          if (!in_group.count(in) && std::find(k.input_nodes.begin(), k.input_nodes.end(),
                                               in) == k.input_nodes.end()) {
            k.input_nodes.push_back(in);
          }
        }
      }
      std::unordered_map<int, Tensor> tensor_of;
      for (int id : k.input_nodes) {
        const graph::Node& n = g.node(id);
        std::vector<Expr> shape;
        for (int64_t d : n.shape) {
          shape.push_back(make_int(d));
        }
        tensor_of[id] = placeholder(shape, n.dtype, n.name);
        args.push_back(tensor_of[id]);
      }
      Tensor master;
      for (int id : grp.nodes) {
        const graph::Node& n = g.node(id);
        std::vector<Tensor> ins;
        for (int in : n.inputs) {
          ins.push_back(tensor_of.at(in));
        }
        tensor_of[id] = graph::GetOpInfo(n.op).build(ins, n.attrs, n.name);
        if (id == grp.master) {
          master = tensor_of[id];
        }
      }
      Tensor output = tensor_of.at(grp.nodes.back());
      // The workload and schedule config the real compile chose for this master,
      // in group order; other groups get the injective schedule.
      topi::Config config;
      const topi::OpWorkload* wl = nullptr;
      std::string kind = "other";
      if (grp.master >= 0 && std::count(MasterKinds().begin(), MasterKinds().end(),
                                          g.node(grp.master).op) > 0) {
        CHECK_LT(next_workload, compiled_->workloads().size()) << "workload count mismatch";
        wl = &compiled_->workloads()[next_workload++];
        config = compiled_->chosen_configs().at(wl->Key());
        kind = wl->kind;
        k.flops = wl->Flops();
      }
      kinds_.push_back(kind);
      sch = topi::ScheduleFusedGroup(target, {output}, master.defined() ? master : Tensor(),
                                     config, wl);
      args.push_back(output);
      name = "fused_" + g.node(grp.nodes.back()).name;
      totals->schedule_ms += MsBetween(t0, Clock::now());
    }
    {
      ScopedSpan span(tracer, "lower");
      Clock::time_point t0 = Clock::now();
      k.func = Lower(sch, args, name);
      totals->lower_ms += MsBetween(t0, Clock::now());
    }
    {
      ScopedSpan span(tracer, "vm.compile");
      Clock::time_point t0 = Clock::now();
      k.program = vm::CompileToProgram(k.func, spec);
      totals->vm_compile_ms += MsBetween(t0, Clock::now());
    }
    if (k.program != nullptr) {
      totals->vm_instrs += vm::ProgramNumInstructions(*k.program);
    }
    k.output_node = grp.nodes.back();
    kernels_.push_back(std::move(k));
  }

  if (native_) {
    std::vector<codegen::CSource> srcs;
    {
      ScopedSpan span(tracer, "codegen.emit");
      Clock::time_point t0 = Clock::now();
      for (const Kernel& k : kernels_) {
        srcs.push_back(codegen::EmitC(k.func, spec));
      }
      totals->emit_ms += MsBetween(t0, Clock::now());
    }
    for (const codegen::CSource& s : srcs) {
      totals->c_bytes += static_cast<int64_t>(s.code.size());
    }
    const codegen::NativeStats before = codegen::GetNativeStats();
    std::shared_ptr<codegen::NativeModule> module;
    {
      ScopedSpan span(tracer, "codegen.cc");
      Clock::time_point t0 = Clock::now();
      module = codegen::CompileNativeModule(srcs);
      totals->cc_ms += MsBetween(t0, Clock::now());
    }
    const codegen::NativeStats after = codegen::GetNativeStats();
    totals->compiles += after.compiles - before.compiles;
    totals->disk_hits += after.disk_hits - before.disk_hits;
    for (size_t i = 0; i < kernels_.size(); ++i) {
      if (module != nullptr && srcs[i].ok) {
        kernels_[i].native = codegen::NativeKernel{module, module->Get(srcs[i].symbol)};
      }
    }
  }

  // Buffers as RunContext lays them out: one per group output, sharing the storage
  // of nodes the memory plan gave the same storage id; weights from the model.
  std::unordered_map<int, NDArray> token_storage;
  for (const graph::FusedGroup& grp : groups) {
    const graph::Node& out = g.node(grp.nodes.back());
    int sid = plan.storage_id[static_cast<size_t>(out.id)];
    if (sid < 0) {
      values_[out.id] = NDArray::Empty(out.shape, out.dtype);
      continue;
    }
    NDArray& storage = token_storage[sid];
    if (!storage.defined()) {
      storage = NDArray::Empty({plan.storage_bytes[static_cast<size_t>(sid)]},
                               DataType::Int8());
    }
    values_[out.id] = NDArray::ShareStorage(storage, out.shape, out.dtype);
  }
  for (const auto& kv : model.params) {
    values_[compiled_->NodeIdOf(kv.first)] = kv.second;
  }
}

std::vector<NDArray> Replay::Run(const std::unordered_map<std::string, NDArray>& inputs,
                                 Tracer* tracer, KindTotals* kinds) {
  for (const auto& kv : inputs) {
    values_[compiled_->NodeIdOf(kv.first)] = kv.second;
  }
  vm::ExecOptions exec;
  exec.num_threads = 1;
  const std::string tier = native_ ? "native." : "vm.";
  for (size_t i = 0; i < kernels_.size(); ++i) {
    const Kernel& k = kernels_[i];
    std::vector<BufferBinding> bindings;
    for (int id : k.input_nodes) {
      bindings.push_back(values_.at(id).Binding());
    }
    bindings.push_back(values_.at(k.output_node).Binding());
    ScopedSpan span(tracer, tier + kinds_[i]);
    Clock::time_point t0 = Clock::now();
    if (native_) {
      CHECK(k.native) << k.func.name << " has no native kernel";
      codegen::RunNativeKernel(k.native, bindings);
    } else {
      CHECK(k.program != nullptr) << k.func.name << " has no VM program";
      vm::Run(*k.program, bindings, exec);
    }
    kinds->ms[kinds_[i]] += MsBetween(t0, Clock::now());
    kinds->flops[kinds_[i]] += k.flops;
  }
  std::vector<NDArray> outputs;
  for (int id : compiled_->graph().outputs) {
    outputs.push_back(values_.at(id).Copy());
  }
  return outputs;
}

void ReplayBeside(Replay* replay, const graph::RunContext& ctx,
                  const std::unordered_map<std::string, NDArray>& inputs,
                  const std::string& span_name, Tracer* tracer, KindTotals* kinds,
                  ReplayTimes* times, Result* r) {
  auto kernel_total = [&] {
    double sum = 0;
    for (const auto& kv : kinds->ms) {
      sum += kv.second;
    }
    return sum;
  };
  try {
    const double before = kernel_total();
    const Clock::time_point t0 = Clock::now();
    std::vector<NDArray> outs;
    {
      ScopedSpan span(tracer, span_name);
      outs = replay->Run(inputs, tracer, kinds);
    }
    times->replay_ms.push_back(MsBetween(t0, Clock::now()));
    times->kernel_ms.push_back(kernel_total() - before);
    bool same = outs.size() == ctx.compiled().graph().outputs.size();
    for (size_t i = 0; same && i < outs.size(); ++i) {
      same = BitwiseEqual(outs[i], ctx.GetOutput(static_cast<int>(i)));
    }
    r->Count(same, span_name + ": replay output differs from CompiledGraph::Run");
  } catch (const std::exception& e) {
    r->Count(false, span_name + ": " + e.what());
  }
}

}  // namespace perfbench
