// Three-tier differential suite for the AOT C backend (ISSUE 8): every workload
// below runs on the reference interpreter, the bytecode VM, and the dlopen'd
// native kernel, and all three buffers must be *bitwise* identical — under
// TVMCPP_VM_STRICT=1 so any silent engine downgrade fails loudly. Cache tests pin
// the module-cache contract: a second identical compile is a memory hit, a cleared
// registry falls back to the disk artifact, and a corrupt disk entry recompiles in
// place instead of crashing.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/codegen/codegen.h"
#include "src/codegen/native.h"
#include "src/frontend/models.h"
#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/lower/lower.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/schedule/schedule.h"
#include "src/support/float16.h"
#include "src/support/random.h"
#include "src/topi/nn.h"
#include "src/topi/schedules.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace {

struct ScopedStrictMode {
  bool saved;
  ScopedStrictMode() : saved(vm::StrictMode()) { vm::SetStrictMode(true); }
  ~ScopedStrictMode() { vm::SetStrictMode(saved); }
};

struct ScopedEngine {
  ExecEngine saved;
  explicit ScopedEngine(ExecEngine e) : saved(GetExecEngine()) { SetExecEngine(e); }
  ~ScopedEngine() { SetExecEngine(saved); }
};

// Points TVMCPP_NATIVE_CACHE at a fresh directory for the test's lifetime, so
// cache assertions never see artifacts from other tests or earlier runs.
struct ScopedCacheDir {
  std::string dir;
  std::string saved;
  bool had = false;
  ScopedCacheDir() {
    char tmpl[] = "/tmp/tvmcpp-codegen-test-XXXXXX";
    char* made = mkdtemp(tmpl);
    CHECK(made != nullptr) << "mkdtemp failed";
    dir = made;
    if (const char* old = std::getenv("TVMCPP_NATIVE_CACHE")) {
      had = true;
      saved = old;
    }
    setenv("TVMCPP_NATIVE_CACHE", dir.c_str(), 1);
  }
  ~ScopedCacheDir() {
    if (had) {
      setenv("TVMCPP_NATIVE_CACHE", saved.c_str(), 1);
    } else {
      unsetenv("TVMCPP_NATIVE_CACHE");
    }
    std::system(("rm -rf '" + dir + "'").c_str());
  }
};

struct ArgBuf {
  std::vector<char> bytes;
  DataType dtype;
  int64_t num_elements = 0;

  static ArgBuf Make(int64_t elems, DataType dtype, uint64_t seed) {
    ArgBuf a;
    a.dtype = dtype;
    a.num_elements = elems;
    a.bytes.assign(static_cast<size_t>(elems * InterpElementBytes(dtype)), 0);
    Rng rng(seed);
    if (dtype.is_float()) {
      float* p = reinterpret_cast<float*>(a.bytes.data());
      for (int64_t i = 0; i < elems; ++i) {
        p[i] = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
      }
      if (dtype.bits() == 16) {
        for (int64_t i = 0; i < elems; ++i) {
          p[i] = QuantizeFloat16(p[i]);
        }
      }
    } else if (InterpElementBytes(dtype) == 1) {
      int8_t* p = reinterpret_cast<int8_t*>(a.bytes.data());
      for (int64_t i = 0; i < elems; ++i) {
        p[i] = static_cast<int8_t>(static_cast<int64_t>(rng.Uniform(11)) - 5);
      }
    } else if (InterpElementBytes(dtype) == 8) {
      int64_t* p = reinterpret_cast<int64_t*>(a.bytes.data());
      for (int64_t i = 0; i < elems; ++i) {
        p[i] = static_cast<int64_t>(rng.Uniform(100));
      }
    } else {
      int32_t* p = reinterpret_cast<int32_t*>(a.bytes.data());
      for (int64_t i = 0; i < elems; ++i) {
        p[i] = static_cast<int32_t>(rng.Uniform(100));
      }
    }
    return a;
  }

  BufferBinding Bind() { return BufferBinding{bytes.data(), dtype, num_elements}; }
};

int64_t NumElems(const Tensor& t) {
  int64_t n = 1;
  for (const Expr& e : t.shape()) {
    n *= get_const_int(e);
  }
  return n;
}

std::vector<ArgBuf> MakeArgs(const std::vector<Tensor>& tensors, uint64_t seed) {
  std::vector<ArgBuf> args;
  for (size_t i = 0; i < tensors.size(); ++i) {
    args.push_back(ArgBuf::Make(NumElems(tensors[i]), tensors[i].dtype(), seed + i * 131));
  }
  return args;
}

// Three-way differential: interpreter (oracle), VM, and the AOT native kernel —
// all bitwise identical on every buffer.
void ExpectThreeTierIdentical(const LoweredFunc& f, const std::vector<ArgBuf>& args,
                              const LoopSpecializeOptions& spec =
                                  LoopSpecializeOptions{}) {
  ScopedStrictMode strict;
  std::shared_ptr<const vm::Program> prog = vm::CompileToProgram(f, spec);
  ASSERT_NE(prog, nullptr) << "VM failed to compile " << f.name;
  codegen::NativeKernel native = codegen::CompileNativeKernel(f, spec);
  ASSERT_TRUE(static_cast<bool>(native))
      << "native tier failed to compile " << f.name << ":\n" << ToString(f.body);
  std::vector<ArgBuf> interp_bufs = args;
  std::vector<ArgBuf> vm_bufs = args;
  std::vector<ArgBuf> native_bufs = args;
  std::vector<BufferBinding> interp_bind, vm_bind, native_bind;
  for (size_t i = 0; i < args.size(); ++i) {
    interp_bind.push_back(interp_bufs[i].Bind());
    vm_bind.push_back(vm_bufs[i].Bind());
    native_bind.push_back(native_bufs[i].Bind());
  }
  RunLoweredInterp(f, interp_bind);
  vm::ExecOptions serial;
  serial.num_threads = 1;
  vm::Run(*prog, vm_bind, serial);
  codegen::RunNativeKernel(native, native_bind);
  for (size_t i = 0; i < args.size(); ++i) {
    EXPECT_EQ(std::memcmp(interp_bufs[i].bytes.data(), vm_bufs[i].bytes.data(),
                          interp_bufs[i].bytes.size()),
              0)
        << f.name << ": buffer " << i << " differs between interp and VM";
    EXPECT_EQ(std::memcmp(interp_bufs[i].bytes.data(), native_bufs[i].bytes.data(),
                          interp_bufs[i].bytes.size()),
              0)
        << f.name << ": buffer " << i << " differs between interp and native";
  }
}

LoweredFunc BuildDense(DataType dtype, int vectorize, int parallel,
                       std::vector<Tensor>* tensors, const std::string& name) {
  topi::OpWorkload wl;
  wl.kind = "dense";
  wl.n = 5;
  wl.k = 32;
  wl.oc = 24;
  wl.dtype = dtype;
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  Target cpu = Target::ArmA53();
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  config["parallel"] = parallel;
  config["vectorize"] = vectorize;
  Schedule s = topi::ApplyOpSchedule(wl, cpu, built, config);
  *tensors = built.Args();
  return Lower(s, built.Args(), name);
}

LoweredFunc BuildConvRelu3x3(DataType dtype, std::vector<Tensor>* tensors,
                             const std::string& name) {
  topi::OpWorkload wl;
  wl.kind = "conv2d";
  wl.n = 1;
  wl.ic = 4;
  wl.h = wl.w = 10;
  wl.oc = 8;
  wl.k = 3;
  wl.stride = 1;
  wl.pad = 1;
  wl.dtype = dtype;
  Tensor data = placeholder(
      {make_int(wl.n), make_int(wl.ic), make_int(wl.h), make_int(wl.w)}, dtype, "data");
  Tensor kern = placeholder(
      {make_int(wl.oc), make_int(wl.ic), make_int(wl.k), make_int(wl.k)}, dtype, "kern");
  Tensor conv = topi::Conv2dNCHW(data, kern, wl.stride, wl.pad);
  Tensor out = topi::Relu(conv);
  Target cpu = Target::ArmA53();
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  config["parallel"] = 0;
  Schedule s = topi::ScheduleFusedGroup(cpu, {out}, conv, config, &wl);
  *tensors = {data, kern, out};
  return Lower(s, {data, kern, out}, name);
}

// A topi CPU template at its default config (serial), either alone or as the
// master of a fused relu epilogue.
LoweredFunc BuildCpuTemplate(const topi::OpWorkload& wl, bool fuse_relu,
                             std::vector<Tensor>* tensors, const std::string& name) {
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  Target cpu = Target::ArmA53();
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  config["parallel"] = 0;
  if (!fuse_relu) {
    *tensors = built.Args();
    return Lower(topi::ApplyOpSchedule(wl, cpu, built, config), *tensors, name);
  }
  Tensor out = topi::Relu(built.output);
  Schedule s = topi::ScheduleFusedGroup(cpu, {out}, built.output, config, &wl);
  *tensors = {built.inputs[0], built.inputs[1], out};
  return Lower(s, *tensors, name);
}

// ---------------------------------------------------------------------------
// Kernel-level differential suites
// ---------------------------------------------------------------------------

TEST(CodegenDiff, DenseF32Scalar) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), 0, 0, &t, "cg_dense_f32");
  ExpectThreeTierIdentical(f, MakeArgs(t, 7));
}

TEST(CodegenDiff, DenseF32Vectorized) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), 1, 0, &t, "cg_dense_f32_vec");
  ExpectThreeTierIdentical(f, MakeArgs(t, 11));
}

TEST(CodegenDiff, DenseF32Parallel) {
  // kParallel loops run serially in the emitted C (same order as the interpreter);
  // the VM comparison runs with num_threads=1 so all three tiers share one order.
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), 0, 1, &t, "cg_dense_f32_par");
  ExpectThreeTierIdentical(f, MakeArgs(t, 13));
}

TEST(CodegenDiff, DenseF16) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float16(), 0, 0, &t, "cg_dense_f16");
  ExpectThreeTierIdentical(f, MakeArgs(t, 17));
}

TEST(CodegenDiff, DenseI8) {
  // int8 accumulate wraps through the interpreter's cast rule on every store;
  // the emitted tn_wrap must match it bit for bit.
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Int8(), 0, 0, &t, "cg_dense_i8");
  ExpectThreeTierIdentical(f, MakeArgs(t, 19));
}

TEST(CodegenDiff, ConvRelu3x3F32) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvRelu3x3(DataType::Float32(), &t, "cg_conv_f32");
  ExpectThreeTierIdentical(f, MakeArgs(t, 23));
}

TEST(CodegenDiff, ConvRelu3x3F16) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvRelu3x3(DataType::Float16(), &t, "cg_conv_f16");
  ExpectThreeTierIdentical(f, MakeArgs(t, 29));
}

TEST(CodegenDiff, ConvRelu3x3I8) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvRelu3x3(DataType::Int8(), &t, "cg_conv_i8");
  ExpectThreeTierIdentical(f, MakeArgs(t, 31));
}

// The register-tiled CPU templates (reduce loops outside the ow tile) on the
// paths the zoo uses: DCGAN's stride-2 conv2d_transpose, MobileNet's depthwise,
// and an unfused conv2d whose vectorized ow tile sits inside the reduction.
TEST(CodegenDiff, Conv2dTransposeReluF32) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildCpuTemplate({"conv2d_transpose", 1, 4, 4, 6, 4, 4, 2, 1},
                                   /*fuse_relu=*/true, &t, "cg_convt_relu_f32");
  ExpectThreeTierIdentical(f, MakeArgs(t, 37));
}

// k=3/s=2: the stride does not divide k, so the phase form's second tap is
// guarded and its kernel index clamped for odd output rows and columns.
TEST(CodegenDiff, Conv2dTransposeK3S2ReluF32) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildCpuTemplate({"conv2d_transpose", 1, 5, 4, 6, 4, 3, 2, 1},
                                   /*fuse_relu=*/true, &t, "cg_convt_k3s2_relu_f32");
  ExpectThreeTierIdentical(f, MakeArgs(t, 47));
}

TEST(CodegenDiff, DepthwiseReluF32) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildCpuTemplate({"depthwise_conv2d", 1, 9, 9, 8, 8, 3, 2, 1},
                                   /*fuse_relu=*/true, &t, "cg_dw_relu_f32");
  ExpectThreeTierIdentical(f, MakeArgs(t, 41));
}

TEST(CodegenDiff, Conv2dUnfusedF32) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildCpuTemplate({"conv2d", 1, 10, 10, 4, 8, 3, 1, 1},
                                   /*fuse_relu=*/false, &t, "cg_conv_unfused_f32");
  ExpectThreeTierIdentical(f, MakeArgs(t, 43));
}

TEST(CodegenDiff, VectorizedPredicatedTail) {
  // n = 10 split by 8: the vectorized inner loop carries a predicated tail, so
  // masked lanes must stay unevaluated in the emitted C exactly as in the
  // interpreter (the guarded division would trap on lane garbage otherwise).
  const int n = 10;
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor B = placeholder({make_int(n)}, DataType::Float32(), "B");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       Expr a = A({i[0]});
                       Expr b = B({i[0]});
                       return a * b + max(a, b) * make_float(0.5);
                     },
                     "C");
  Schedule s = create_schedule({C});
  Stage st = (*s)[C];
  IterVar o, i;
  st->split(st->leaf_iter_vars[0], 8, &o, &i);
  st->vectorize(i);
  LoweredFunc f = Lower(s, {A, B, C}, "cg_vec_tail");
  ExpectThreeTierIdentical(f, MakeArgs({A, B, C}, 37));
}

TEST(CodegenDiff, UnspecializedPipelineMatchesToo) {
  // The emitter runs the same preprocessing pipeline as the VM, including when
  // specialization is disabled — both configurations must stay on the oracle.
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvRelu3x3(DataType::Float32(), &t, "cg_conv_nospec");
  ExpectThreeTierIdentical(f, MakeArgs(t, 41), LoopSpecializeOptions::Disabled());
}

TEST(CodegenDiff, VmUnsupportedVectorLetRunsNative) {
  // A vector-valued let is outside the VM's vector compiler but inside both the
  // interpreter and the C emitter (which threads the lane through the let body):
  // tier 2 covers strictly more than tier 1 here, so the native engine serves it
  // with zero counted fallbacks.
  const int n = 8;
  Var a = make_var("A", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var x = make_var("x", DataType::Float32());
  Expr vec_load = load(DataType::Float32(4), a, ramp(make_int(0), make_int(1), 4));
  Expr body = let(x, vec_load, Expr(x) + Expr(x));
  LoweredFunc f;
  f.name = "cg_vector_let";
  f.args = {BufferArg{a, DataType::Float32(), {n}, "A"},
            BufferArg{c, DataType::Float32(), {n}, "C"}};
  f.body = store(c, body, ramp(make_int(0), make_int(1), 4));
  ASSERT_EQ(vm::CompileToProgram(f), nullptr) << "VM grew vector-let support; "
                                                 "pick another VM-unsupported construct";

  codegen::NativeKernel native =
      codegen::CompileNativeKernel(f, LoopSpecializeOptions{});
  ASSERT_TRUE(static_cast<bool>(native)) << "native tier must emit vector lets";
  std::vector<ArgBuf> interp_bufs = {ArgBuf::Make(n, DataType::Float32(), 43),
                                     ArgBuf::Make(n, DataType::Float32(), 44)};
  std::vector<ArgBuf> native_bufs = interp_bufs;
  std::vector<BufferBinding> interp_bind, native_bind;
  for (size_t i = 0; i < interp_bufs.size(); ++i) {
    interp_bind.push_back(interp_bufs[i].Bind());
    native_bind.push_back(native_bufs[i].Bind());
  }
  RunLoweredInterp(f, interp_bind);
  codegen::RunNativeKernel(native, native_bind);
  EXPECT_EQ(std::memcmp(interp_bufs[1].bytes.data(), native_bufs[1].bytes.data(),
                        interp_bufs[1].bytes.size()),
            0);

  // End-to-end: the native engine dispatches it without touching the VM tier.
  ScopedStrictMode strict;
  ScopedEngine engine(ExecEngine::kNative);
  vm::ResetFallbackCount();
  std::vector<ArgBuf> e2e = interp_bufs;
  std::vector<BufferBinding> e2e_bind;
  for (ArgBuf& b : e2e) {
    e2e_bind.push_back(b.Bind());
  }
  RunLowered(f, e2e_bind);
  EXPECT_EQ(vm::FallbackCount(), 0);
  EXPECT_EQ(std::memcmp(interp_bufs[1].bytes.data(), e2e[1].bytes.data(),
                        interp_bufs[1].bytes.size()),
            0);
}

// ---------------------------------------------------------------------------
// Graph-level: whole models under the native engine, including Rebatched(N)
// ---------------------------------------------------------------------------

NDArray RunModelOnce(const std::shared_ptr<const graph::CompiledGraph>& model,
                     const std::vector<std::pair<std::string, NDArray>>& inputs) {
  graph::RunContext ctx(model);
  for (const auto& kv : inputs) {
    ctx.SetInput(kv.first, kv.second);
  }
  vm::ExecOptions serial;
  serial.num_threads = 1;
  model->Run(&ctx, serial);
  return ctx.GetOutput(0).Copy();
}

void ExpectBitwiseEqual(const NDArray& a, const NDArray& b, const std::string& what) {
  ASSERT_EQ(a.NumElements(), b.NumElements()) << what;
  EXPECT_EQ(std::memcmp(a.Data<char>(), b.Data<char>(),
                        static_cast<size_t>(a.ByteSize())),
            0)
      << what << ": outputs differ";
}

TEST(CodegenGraph, LstmNativeBitwiseIdenticalAndRebatched) {
  // The frontend LSTM LM compiled while the native engine is selected (so every
  // fused kernel gets an AOT module), run natively and on the interpreter engine
  // against the same compiled model. Strict: no kernel may silently fall back.
  ScopedStrictMode strict;
  ScopedEngine engine(ExecEngine::kNative);
  vm::ResetFallbackCount();
  Target cpu = Target::ArmA53();
  frontend::Model m = frontend::LstmLanguageModel(2, 8, 1);
  auto model = frontend::CompileModel(m, cpu, graph::CompileOptions{});
  auto lstm_inputs = [&](int batch, uint64_t seed) {
    std::vector<int64_t> shape = m.input_shape;
    shape[0] *= batch;
    return std::vector<std::pair<std::string, NDArray>>{
        {"data", NDArray::Random(shape, DataType::Float32(), seed)},
        {"h0", NDArray::Random(shape, DataType::Float32(), seed + 1)},
        {"c0", NDArray::Random(shape, DataType::Float32(), seed + 2)}};
  };
  auto batch1 = lstm_inputs(1, 47);
  NDArray native_out = RunModelOnce(model, batch1);
  NDArray interp_out;
  {
    ScopedEngine oracle(ExecEngine::kInterp);
    interp_out = RunModelOnce(model, batch1);
  }
  ExpectBitwiseEqual(native_out, interp_out, "lstm batch-1 native vs interp");

  const int batch = 3;
  auto rebatched = model->Rebatched(batch);
  auto batch3 = lstm_inputs(batch, 53);
  NDArray native_b = RunModelOnce(rebatched, batch3);
  NDArray interp_b;
  {
    ScopedEngine oracle(ExecEngine::kInterp);
    interp_b = RunModelOnce(rebatched, batch3);
  }
  ExpectBitwiseEqual(native_b, interp_b, "lstm batch-3 native vs interp");
  EXPECT_EQ(vm::FallbackCount(), 0) << "a fused LSTM kernel fell off the native tier";
}

TEST(CodegenGraph, DenseChainNativeRebatched) {
  ScopedStrictMode strict;
  ScopedEngine engine(ExecEngine::kNative);
  vm::ResetFallbackCount();
  graph::Graph g;
  int x = g.AddInput("data", {1, 8});
  for (int l = 0; l < 3; ++l) {
    int w = g.AddConst("w" + std::to_string(l), {8, 8});
    x = g.AddOp("dense", "d" + std::to_string(l), {x, w});
    x = g.AddOp("relu", "r" + std::to_string(l), {x});
  }
  g.outputs = {x};
  auto model = std::make_shared<graph::CompiledGraph>(std::move(g), Target::ArmA53(),
                                                      graph::CompileOptions{});
  for (int l = 0; l < 3; ++l) {
    model->SetParam("w" + std::to_string(l),
                    NDArray::Random({8, 8}, DataType::Float32(),
                                    static_cast<uint64_t>(60 + l)));
  }
  for (int batch : {1, 2, 4}) {
    NDArray input = NDArray::Random({batch, 8}, DataType::Float32(),
                                    static_cast<uint64_t>(70 + batch));
    auto b = batch == 1 ? model : model->Rebatched(batch);
    NDArray native_out = RunModelOnce(b, {{"data", input}});
    NDArray interp_out;
    {
      ScopedEngine oracle(ExecEngine::kInterp);
      interp_out = RunModelOnce(b, {{"data", input}});
    }
    ExpectBitwiseEqual(native_out, interp_out,
                       "dense chain batch " + std::to_string(batch));
  }
  EXPECT_EQ(vm::FallbackCount(), 0);
}

// ---------------------------------------------------------------------------
// Module cache behavior
// ---------------------------------------------------------------------------

TEST(CodegenCache, SecondCompileHitsMemoryThenDisk) {
  ScopedCacheDir cache;
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), 0, 0, &t, "cg_cache_dense");
  codegen::ResetNativeStats();
  codegen::NativeKernel first =
      codegen::CompileNativeKernel(f, LoopSpecializeOptions{});
  ASSERT_TRUE(static_cast<bool>(first));
  codegen::NativeStats s1 = codegen::GetNativeStats();
  EXPECT_EQ(s1.compiles, 1);
  EXPECT_EQ(s1.mem_hits, 0);

  // Identical source: the in-process registry answers, no compiler run.
  codegen::NativeKernel second =
      codegen::CompileNativeKernel(f, LoopSpecializeOptions{});
  ASSERT_TRUE(static_cast<bool>(second));
  codegen::NativeStats s2 = codegen::GetNativeStats();
  EXPECT_EQ(s2.compiles, 1);
  EXPECT_EQ(s2.mem_hits, 1);
  EXPECT_EQ(second.module->path(), first.module->path());

  // Registry dropped: the on-disk artifact answers, still no compiler run.
  codegen::ClearNativeModuleRegistryForTesting();
  codegen::NativeKernel third =
      codegen::CompileNativeKernel(f, LoopSpecializeOptions{});
  ASSERT_TRUE(static_cast<bool>(third));
  codegen::NativeStats s3 = codegen::GetNativeStats();
  EXPECT_EQ(s3.compiles, 1);
  EXPECT_EQ(s3.disk_hits, 1);

  // All three kernels actually run.
  std::vector<ArgBuf> a = MakeArgs(t, 59);
  std::vector<ArgBuf> b = MakeArgs(t, 59);
  std::vector<BufferBinding> ab, bb;
  for (size_t i = 0; i < a.size(); ++i) {
    ab.push_back(a[i].Bind());
    bb.push_back(b[i].Bind());
  }
  codegen::RunNativeKernel(first, ab);
  codegen::RunNativeKernel(third, bb);
  EXPECT_EQ(std::memcmp(a.back().bytes.data(), b.back().bytes.data(),
                        a.back().bytes.size()),
            0);
}

TEST(CodegenCache, CorruptDiskEntryRecompilesNotCrashes) {
  ScopedCacheDir cache;
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), 0, 0, &t, "cg_cache_corrupt");
  codegen::ResetNativeStats();

  // Compile, run, and record the result — then release every reference so the
  // module is actually dlclose'd (while it stays loaded, dlopen of the same path
  // returns the live mapping and never reads the corrupt bytes on disk).
  std::vector<ArgBuf> a = MakeArgs(t, 61);
  std::string so_path;
  {
    codegen::NativeKernel first =
        codegen::CompileNativeKernel(f, LoopSpecializeOptions{});
    ASSERT_TRUE(static_cast<bool>(first));
    so_path = first.module->path();
    ASSERT_NE(so_path.find(cache.dir), std::string::npos)
        << "artifact must live in TVMCPP_NATIVE_CACHE: " << so_path;
    std::vector<BufferBinding> ab;
    for (ArgBuf& buf : a) {
      ab.push_back(buf.Bind());
    }
    codegen::RunNativeKernel(first, ab);
    codegen::ClearNativeModuleRegistryForTesting();
  }

  // Replace the (now unloaded) artifact with garbage: the stale entry must be
  // detected at dlopen and recompiled in place — never a crash, never served.
  {
    std::string tmp = so_path + ".corrupt";
    std::ofstream corrupt(tmp, std::ios::binary | std::ios::trunc);
    corrupt << "not an ELF object";
    corrupt.close();
    ASSERT_EQ(std::rename(tmp.c_str(), so_path.c_str()), 0);
  }
  codegen::NativeKernel again =
      codegen::CompileNativeKernel(f, LoopSpecializeOptions{});
  ASSERT_TRUE(static_cast<bool>(again)) << "corrupt cache entry must recompile";
  codegen::NativeStats s = codegen::GetNativeStats();
  EXPECT_EQ(s.compiles, 2) << "recompile must actually run the compiler";
  EXPECT_EQ(s.disk_hits, 0);

  // The recompiled kernel computes the same result as the original run.
  std::vector<ArgBuf> b = MakeArgs(t, 61);
  std::vector<BufferBinding> bb;
  for (ArgBuf& buf : b) {
    bb.push_back(buf.Bind());
  }
  codegen::RunNativeKernel(again, bb);
  EXPECT_EQ(std::memcmp(a.back().bytes.data(), b.back().bytes.data(),
                        a.back().bytes.size()),
            0);
}

TEST(CodegenCache, BatchedKernelsShareOneModule) {
  ScopedCacheDir cache;
  std::vector<Tensor> t1, t2;
  LoweredFunc f1 = BuildDense(DataType::Float32(), 0, 0, &t1, "cg_batch_a");
  LoweredFunc f2 = BuildDense(DataType::Float16(), 0, 0, &t2, "cg_batch_b");
  codegen::ResetNativeStats();
  std::vector<codegen::NativeKernel> kernels = codegen::CompileNativeKernels(
      {&f1, &f2}, LoopSpecializeOptions{});
  ASSERT_EQ(kernels.size(), 2u);
  ASSERT_TRUE(static_cast<bool>(kernels[0]));
  ASSERT_TRUE(static_cast<bool>(kernels[1]));
  EXPECT_EQ(kernels[0].module.get(), kernels[1].module.get())
      << "a batch must compile into one translation unit / one module";
  EXPECT_EQ(codegen::GetNativeStats().compiles, 1);
}

// ---------------------------------------------------------------------------
// Fallback ladder: native compile failure downgrades loudly
// ---------------------------------------------------------------------------

TEST(CodegenFallback, CompilerFailureFallsDownTierCounted) {
  // Point the native tier at a compiler that always fails: the emitted source is
  // fine, compilation is not, so the native engine must count one downgrade and
  // serve the request from the VM tier — and hard-error under strict mode.
  ScopedCacheDir cache;
  setenv("TVMCPP_NATIVE_CC", "/bin/false", 1);
  ScopedEngine engine(ExecEngine::kNative);
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), 0, 0, &t, "cg_cc_broken");
  std::vector<ArgBuf> args = MakeArgs(t, 67);
  std::vector<ArgBuf> oracle = args;
  std::vector<BufferBinding> bind, oracle_bind;
  for (size_t i = 0; i < args.size(); ++i) {
    bind.push_back(args[i].Bind());
    oracle_bind.push_back(oracle[i].Bind());
  }
  bool saved_strict = vm::StrictMode();
  vm::SetStrictMode(false);
  vm::ResetFallbackCount();
  RunLowered(f, bind);  // native -> VM downgrade, counted but served
  EXPECT_EQ(vm::FallbackCount(), 1);
  RunLoweredInterp(f, oracle_bind);
  EXPECT_EQ(std::memcmp(args.back().bytes.data(), oracle.back().bytes.data(),
                        args.back().bytes.size()),
            0)
      << "the VM tier that served the downgrade must still match the oracle";

  // Under strict mode the same downgrade is fatal (a fresh function name keeps
  // the negative-result cache from short-circuiting differently).
  vm::SetStrictMode(true);
  std::vector<Tensor> t2;
  LoweredFunc f2 = BuildDense(DataType::Float32(), 0, 0, &t2, "cg_cc_broken2");
  std::vector<ArgBuf> args2 = MakeArgs(t2, 71);
  std::vector<BufferBinding> bind2;
  for (ArgBuf& b : args2) {
    bind2.push_back(b.Bind());
  }
  EXPECT_THROW(RunLowered(f2, bind2), InternalError);
  vm::SetStrictMode(saved_strict);
  unsetenv("TVMCPP_NATIVE_CC");
}

// ---------------------------------------------------------------------------
// Emitter unit checks
// ---------------------------------------------------------------------------

TEST(CodegenUnit, SymbolsAreContentAddressedAndStable) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), 0, 0, &t, "cg_sym");
  codegen::CSource a = codegen::EmitC(f, LoopSpecializeOptions{});
  codegen::CSource b = codegen::EmitC(f, LoopSpecializeOptions{});
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.symbol, b.symbol) << "same TIR must hash to the same symbol";
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.symbol.rfind("tn_", 0), 0u);
  // Different specialization config changes the preprocessed TIR and the symbol.
  codegen::CSource c = codegen::EmitC(f, LoopSpecializeOptions::Disabled());
  ASSERT_TRUE(c.ok);
  EXPECT_NE(a.symbol, c.symbol);
}

TEST(CodegenUnit, UnsupportedConstructReportsNotOk) {
  // An unknown intrinsic is outside every compiled tier; EmitC must report it
  // (with the construct named) rather than emit wrong code.
  Var c = make_var("C", DataType::Handle());
  LoweredFunc f;
  f.name = "cg_unknown_intrin";
  f.args = {BufferArg{c, DataType::Float32(), {4}, "C"}};
  f.body = store(c, call_pure(DataType::Float32(), "mystery_op", {make_float(1.0)}),
                 make_int(0));
  codegen::CSource src = codegen::EmitC(f, LoopSpecializeOptions{});
  EXPECT_FALSE(src.ok);
  EXPECT_FALSE(src.error.empty());
}

}  // namespace
}  // namespace tvmcpp
