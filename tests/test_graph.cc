// Graph-level tests: fusion rules over the four operator categories, constant folding,
// static memory planning, and end-to-end executor numerics vs. unfused execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/frontend/models.h"
#include "src/graph/executor.h"
#include "src/graph/graph.h"

namespace tvmcpp {
namespace graph {
namespace {

// conv(3x3) -> batch_norm -> relu -> conv(1x1) -> add(residual) graph.
Graph SmallConvNet() {
  Graph g;
  int data = g.AddInput("data", {1, 4, 8, 8});
  int w1 = g.AddConst("w1", {8, 4, 3, 3});
  int scale = g.AddConst("scale", {8});
  int shift = g.AddConst("shift", {8});
  int w2 = g.AddConst("w2", {8, 8, 1, 1});
  int c1 = g.AddOp("conv2d", "conv1", {data, w1}, {{"stride", 1}, {"pad", 1}});
  int bn = g.AddOp("batch_norm", "bn1", {c1, scale, shift});
  int r1 = g.AddOp("relu", "relu1", {bn});
  int c2 = g.AddOp("conv2d", "conv2", {r1, w2}, {{"stride", 1}, {"pad", 0}});
  int add = g.AddOp("add", "res_add", {c2, r1});
  g.outputs = {add};
  return g;
}

TEST(GraphFusion, FourCategoryRules) {
  Graph g = SmallConvNet();
  std::vector<FusedGroup> fused = FuseOps(g, true);
  std::vector<FusedGroup> unfused = FuseOps(g, false);
  // conv1+bn+relu can't fuse (relu1 has 2 consumers); conv2+add fuses.
  EXPECT_LT(fused.size(), unfused.size());
  EXPECT_EQ(unfused.size(), 5u);
  // Every group has at most one non-injective master.
  for (const FusedGroup& grp : fused) {
    int non_injective = 0;
    for (int id : grp.nodes) {
      if (GetOpInfo(g.node(id).op).pattern != OpPattern::kInjective) {
        ++non_injective;
      }
    }
    EXPECT_LE(non_injective, 1);
  }
}

TEST(GraphFusion, ConvBnReluFusesWhenSingleConsumer) {
  Graph g;
  int data = g.AddInput("data", {1, 4, 8, 8});
  int w1 = g.AddConst("w1", {8, 4, 3, 3});
  int scale = g.AddConst("scale", {8});
  int shift = g.AddConst("shift", {8});
  int c1 = g.AddOp("conv2d", "conv1", {data, w1}, {{"stride", 1}, {"pad", 1}});
  int bn = g.AddOp("batch_norm", "bn1", {c1, scale, shift});
  int r1 = g.AddOp("relu", "relu1", {bn});
  g.outputs = {r1};
  std::vector<FusedGroup> fused = FuseOps(g, true);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused[0].nodes.size(), 3u);
  EXPECT_EQ(fused[0].master, c1);
}

TEST(GraphExec, FusedMatchesUnfused) {
  Graph g = SmallConvNet();
  Target t = Target::ArmA53();
  NDArray data = NDArray::Random({1, 4, 8, 8}, DataType::Float32(), 1);
  NDArray w1 = NDArray::Random({8, 4, 3, 3}, DataType::Float32(), 2);
  NDArray scale = NDArray::Random({8}, DataType::Float32(), 3);
  NDArray shift = NDArray::Random({8}, DataType::Float32(), 4);
  NDArray w2 = NDArray::Random({8, 8, 1, 1}, DataType::Float32(), 5);

  auto run = [&](bool fuse) {
    CompileOptions opts;
    opts.enable_fusion = fuse;
    GraphExecutor exec(g, t, opts);
    exec.SetInput("data", data);
    exec.SetParam("w1", w1);
    exec.SetParam("scale", scale);
    exec.SetParam("shift", shift);
    exec.SetParam("w2", w2);
    exec.Run();
    return exec.GetOutput(0);
  };
  NDArray fused = run(true);
  NDArray unfused = run(false);
  const float* a = fused.Data<float>();
  const float* b = unfused.Data<float>();
  for (int64_t i = 0; i < fused.NumElements(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-3) << "at " << i;
  }
}

TEST(GraphExec, GpuTargetMatchesCpu) {
  Graph g = SmallConvNet();
  NDArray data = NDArray::Random({1, 4, 8, 8}, DataType::Float32(), 11);
  NDArray w1 = NDArray::Random({8, 4, 3, 3}, DataType::Float32(), 12);
  NDArray scale = NDArray::Random({8}, DataType::Float32(), 13);
  NDArray shift = NDArray::Random({8}, DataType::Float32(), 14);
  NDArray w2 = NDArray::Random({8, 8, 1, 1}, DataType::Float32(), 15);
  auto run = [&](const Target& t) {
    GraphExecutor exec(g, t, {});
    exec.SetInput("data", data);
    exec.SetParam("w1", w1);
    exec.SetParam("scale", scale);
    exec.SetParam("shift", shift);
    exec.SetParam("w2", w2);
    exec.Run();
    return exec.GetOutput(0);
  };
  NDArray cpu = run(Target::ArmA53());
  NDArray gpu = run(Target::TitanX());
  for (int64_t i = 0; i < cpu.NumElements(); ++i) {
    ASSERT_NEAR(cpu.Data<float>()[i], gpu.Data<float>()[i], 1e-3) << i;
  }
}

TEST(GraphExec, FusionReducesEstimatedTime) {
  Graph g;
  int data = g.AddInput("data", {1, 32, 14, 14});
  int w1 = g.AddConst("w1", {32, 32, 3, 3});
  int scale = g.AddConst("scale", {32});
  int shift = g.AddConst("shift", {32});
  int c1 = g.AddOp("conv2d", "conv1", {data, w1}, {{"stride", 1}, {"pad", 1}});
  int bn = g.AddOp("batch_norm", "bn1", {c1, scale, shift});
  int r1 = g.AddOp("relu", "relu1", {bn});
  g.outputs = {r1};
  Target t = Target::TitanX();
  CompileOptions fused_opts, unfused_opts;
  unfused_opts.enable_fusion = false;
  GraphExecutor fused(g, t, fused_opts);
  GraphExecutor unfused(g, t, unfused_opts);
  EXPECT_LT(fused.EstimateSeconds(), unfused.EstimateSeconds());
  EXPECT_LT(fused.num_kernels(), unfused.num_kernels());
}

TEST(GraphPasses, ConstantFolding) {
  Graph g;
  int a = g.AddConst("a", {4});
  int b = g.AddConst("b", {4});
  int c = g.AddOp("add", "c", {a, b});
  int d = g.AddInput("d", {4});
  int e = g.AddOp("add", "e", {c, d});
  g.outputs = {e};
  std::unordered_map<int, NDArray> params;
  params[a] = NDArray::Random({4}, DataType::Float32(), 1);
  params[b] = NDArray::Random({4}, DataType::Float32(), 2);
  int folded = ConstantFold(&g, &params);
  EXPECT_EQ(folded, 1);
  EXPECT_EQ(g.node(c).op, "const");
  ASSERT_TRUE(params.count(c));
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(params[c].Data<float>()[i],
                    params[a].Data<float>()[i] + params[b].Data<float>()[i]);
  }
}

TEST(GraphPasses, MemoryPlanReuse) {
  // A chain of elementwise ops: the planner must reuse buffers (2 needed, not N).
  Graph g;
  int x = g.AddInput("x", {64, 64});
  int cur = x;
  for (int i = 0; i < 8; ++i) {
    cur = g.AddOp("relu", "r" + std::to_string(i), {cur});
  }
  g.outputs = {cur};
  std::vector<FusedGroup> groups = FuseOps(g, false);
  MemoryPlan plan = PlanMemory(g, groups);
  EXPECT_LT(plan.planned_bytes, plan.unplanned_bytes);
  EXPECT_LE(plan.planned_bytes, 3 * 64 * 64 * 4);
}

// Loop specialization reads a kernel's inputs once ahead of the loop that stores
// its output, judging aliasing by buffer identity: that holds only while no kernel's
// output shares storage with one of its inputs. The planner must keep it so on every
// zoo model, fused and unfused.
TEST(GraphPasses, MemoryPlanNeverAliasesKernelOutputWithInput) {
  const std::vector<std::pair<std::string, Graph>> zoo = {
      {"resnet18", frontend::ResNet18(1, 32).graph},
      {"mobilenet", frontend::MobileNet(1, 56).graph},
      {"dqn", frontend::Dqn(1).graph},
      {"dcgan", frontend::Dcgan(1).graph},
      {"lstm", frontend::LstmLanguageModel(4, 650, 1).graph},
      {"sparse_mlp", frontend::SparseMlp(1, 1024, 1024, 256, 0.95).graph},
  };
  for (const auto& [name, g] : zoo) {
    for (bool fuse : {true, false}) {
      std::vector<FusedGroup> groups = FuseOps(g, fuse);
      MemoryPlan plan = PlanMemory(g, groups);
      for (const FusedGroup& grp : groups) {
        const int out = grp.nodes.back();
        const int out_sid = plan.storage_id[static_cast<size_t>(out)];
        ASSERT_GE(out_sid, 0) << name << ": kernel output " << g.node(out).name;
        std::unordered_set<int> in_group(grp.nodes.begin(), grp.nodes.end());
        for (int id : grp.nodes) {
          for (int in : g.node(id).inputs) {
            if (!in_group.count(in)) {
              EXPECT_NE(plan.storage_id[static_cast<size_t>(in)], out_sid)
                  << name << (fuse ? " fused" : " unfused") << ": output "
                  << g.node(out).name << " shares storage with input " << g.node(in).name;
            }
          }
        }
      }
    }
  }
}

TEST(GraphExec, OutputOverlappingAnInputIsATypedError) {
  Graph g;
  int x = g.AddInput("x", {4, 8});
  int r = g.AddOp("relu", "r", {x});
  g.outputs = {r};
  auto compiled = std::make_shared<CompiledGraph>(g, Target::ArmA53());
  NDArray storage = NDArray::Random({2 * 4 * 8}, DataType::Float32(), 3);
  auto run = [&](int64_t out_offset_floats) {
    RunContext ctx(compiled);
    ctx.SetInput("x", NDArray::ShareStorage(storage, {4, 8}, DataType::Float32()));
    ctx.BindOutput(0, NDArray::ShareStorage(storage, {4, 8}, DataType::Float32(),
                                            out_offset_floats * 4));
    compiled->Run(&ctx);
  };
  EXPECT_THROW(run(0), AliasedBufferError);   // the same storage
  EXPECT_THROW(run(31), AliasedBufferError);  // the last input element
  EXPECT_NO_THROW(run(32));                   // adjacent, disjoint
  for (int64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(storage.Data<float>()[32 + i], std::max(storage.Data<float>()[i], 0.0f));
  }
}

}  // namespace
}  // namespace graph
}  // namespace tvmcpp
