// Traced replay of one compiled model: graph::CompiledGraph's compile pipeline and
// its per-kernel run loop, re-done stage by stage through each layer's public API
// (graph::FuseOps/PlanMemory, GetOpInfo().build + topi::ScheduleFusedGroup, Lower,
// vm::CompileToProgram, codegen::EmitC/CompileNativeModule, then
// codegen::RunNativeKernel or vm::Run per kernel), so the traced run can attribute
// set-up and request time to layers without changing library code. Its kernel count
// and outputs are checked against the CompiledGraph it replays.
#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/trace.h"
#include "src/codegen/native.h"
#include "src/frontend/models.h"
#include "src/graph/executor.h"
#include "src/vm/vm.h"

namespace perfbench {

// Compile-side layer totals, summed over the models of a workload.
struct CompileTotals {
  double frontend_ms = 0;  // frontend model builders
  double ctor_ms = 0;      // the real graph::CompiledGraph constructors (+ params)
  double fuse_ms = 0;      // FuseOps + PlanMemory
  double schedule_ms = 0;  // op compute builders + ScheduleFusedGroup
  double lower_ms = 0;
  double vm_compile_ms = 0;
  double emit_ms = 0;
  double cc_ms = 0;
  int64_t groups = 0;
  int64_t vm_instrs = 0;
  int64_t c_bytes = 0;
  int64_t compiles = 0;
  int64_t disk_hits = 0;
  double plan_bytes = 0;
  double StagesMs() const {
    return fuse_ms + schedule_ms + lower_ms + vm_compile_ms + emit_ms + cc_ms;
  }
};

// The ops CompiledGraph records a schedule workload for: the master op of a fused
// kernel gives its kind, and a kernel whose master is none of these is "other".
const std::vector<std::string>& MasterKinds();

// Request-side totals per master-op kind ("conv2d", ..., "other").
struct KindTotals {
  std::map<std::string, double> ms;
  std::map<std::string, double> flops;
};

class Replay {
 public:
  // Replays `compiled`'s compile of `model`; `native` mirrors the native engine
  // (emit + cc after the VM programs). The caller makes the native cache cold.
  Replay(const tvmcpp::frontend::Model& model,
         std::shared_ptr<const tvmcpp::graph::CompiledGraph> compiled,
         const tvmcpp::Target& target, bool native, Tracer* tracer,
         CompileTotals* totals);

  int num_kernels() const { return static_cast<int>(kernels_.size()); }

  // One request through the replayed kernels, each call a span named
  // "<native|vm>.<kind>" whose time is added to `kinds->ms`. Returns copies of
  // the graph outputs.
  std::vector<NDArray> Run(const std::unordered_map<std::string, NDArray>& inputs,
                           Tracer* tracer, KindTotals* kinds);

 private:
  struct Kernel {
    tvmcpp::LoweredFunc func;
    std::shared_ptr<const tvmcpp::vm::Program> program;
    tvmcpp::codegen::NativeKernel native;
    std::vector<int> input_nodes;
    int output_node = -1;
    double flops = 0;
  };

  std::shared_ptr<const tvmcpp::graph::CompiledGraph> compiled_;
  bool native_;
  std::vector<Kernel> kernels_;
  std::vector<std::string> kinds_;  // per kernel
  std::unordered_map<int, NDArray> values_;  // node id -> buffer (memory-plan storage)
};

// Times of traced replays run next to untraced CompiledGraph::Run calls.
struct ReplayTimes {
  std::vector<double> replay_ms;  // wall time of each replayed request
  std::vector<double> kernel_ms;  // the part of it inside kernel spans
};

// Replays the request whose untraced run left its outputs in `ctx`, under a span
// named `span_name`, records its times, and counts a check that the replay's
// outputs are bitwise equal to the run's.
void ReplayBeside(Replay* replay, const tvmcpp::graph::RunContext& ctx,
                  const std::unordered_map<std::string, NDArray>& inputs,
                  const std::string& span_name, Tracer* tracer, KindTotals* kinds,
                  ReplayTimes* times, Result* r);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
