// Operator library tests: numerical correctness of every op against naive references,
// and the key schedule-space property: EVERY config in a template's space must produce
// a program with identical semantics (parameterized sweep).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "src/interp/interp.h"
#include "src/ir/functor.h"
#include "src/ir/simplify.h"
#include "src/lower/lower.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/topi/nn.h"
#include "src/topi/schedules.h"

namespace tvmcpp {
namespace topi {
namespace {

// Naive conv2d reference.
std::vector<float> RefConv2d(const std::vector<float>& data, const std::vector<float>& kernel,
                             int n, int ic, int h, int w, int oc, int k, int stride, int pad) {
  int oh = static_cast<int>(ConvOutDim(h, k, stride, pad));
  int ow = static_cast<int>(ConvOutDim(w, k, stride, pad));
  std::vector<float> out(static_cast<size_t>(n * oc * oh * ow), 0.0f);
  for (int b = 0; b < n; ++b) {
    for (int f = 0; f < oc; ++f) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float acc = 0;
          for (int c = 0; c < ic; ++c) {
            for (int dy = 0; dy < k; ++dy) {
              for (int dx = 0; dx < k; ++dx) {
                int iy = y * stride + dy - pad;
                int ix = x * stride + dx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) {
                  continue;
                }
                acc += data[static_cast<size_t>(((b * ic + c) * h + iy) * w + ix)] *
                       kernel[static_cast<size_t>(((f * ic + c) * k + dy) * k + dx)];
              }
            }
          }
          out[static_cast<size_t>(((b * oc + f) * oh + y) * ow + x)] = acc;
        }
      }
    }
  }
  return out;
}

std::vector<float> RefDepthwise(const std::vector<float>& data,
                                const std::vector<float>& kernel, int n, int c, int h, int w,
                                int k, int stride, int pad) {
  int oh = static_cast<int>(ConvOutDim(h, k, stride, pad));
  int ow = static_cast<int>(ConvOutDim(w, k, stride, pad));
  std::vector<float> out(static_cast<size_t>(n * c * oh * ow), 0.0f);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float acc = 0;
          for (int dy = 0; dy < k; ++dy) {
            for (int dx = 0; dx < k; ++dx) {
              int iy = y * stride + dy - pad;
              int ix = x * stride + dx - pad;
              if (iy < 0 || iy >= h || ix < 0 || ix >= w) {
                continue;
              }
              acc += data[static_cast<size_t>(((b * c + ch) * h + iy) * w + ix)] *
                     kernel[static_cast<size_t>((ch * k + dy) * k + dx)];
            }
          }
          out[static_cast<size_t>(((b * c + ch) * oh + y) * ow + x)] = acc;
        }
      }
    }
  }
  return out;
}

// Naive conv2d_transpose reference: output (y, x) gathers input (iy, ix) through tap
// (dy, dx) when y + pad - dy == iy * stride (and likewise for x).
std::vector<float> RefConv2dTranspose(const std::vector<float>& data,
                                      const std::vector<float>& kernel, int n, int ic, int h,
                                      int w, int oc, int k, int stride, int pad) {
  int oh = (h - 1) * stride + k - 2 * pad;
  int ow = (w - 1) * stride + k - 2 * pad;
  std::vector<float> out(static_cast<size_t>(n * oc * oh * ow), 0.0f);
  for (int b = 0; b < n; ++b) {
    for (int f = 0; f < oc; ++f) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float acc = 0;
          for (int c = 0; c < ic; ++c) {
            for (int dy = 0; dy < k; ++dy) {
              for (int dx = 0; dx < k; ++dx) {
                int hy = y + pad - dy;
                int wx = x + pad - dx;
                if (hy < 0 || wx < 0 || hy % stride != 0 || wx % stride != 0 ||
                    hy / stride >= h || wx / stride >= w) {
                  continue;
                }
                acc += data[static_cast<size_t>(((b * ic + c) * h + hy / stride) * w +
                                                wx / stride)] *
                       kernel[static_cast<size_t>(((c * oc + f) * k + dy) * k + dx)];
              }
            }
          }
          out[static_cast<size_t>(((b * oc + f) * oh + y) * ow + x)] = acc;
        }
      }
    }
  }
  return out;
}

void RunWorkload(const OpWorkload& wl, const Target& target, const Config& config,
                 double tol = 2e-2) {
  BuiltOp built = BuildOpCompute(wl);
  Schedule s = ApplyOpSchedule(wl, target, built, config);
  LoweredFunc f = Lower(s, built.Args(), wl.Key());

  std::vector<int64_t> dshape = built.inputs[0].shape().size() == 2
                                    ? std::vector<int64_t>{wl.n, wl.k}
                                    : std::vector<int64_t>{wl.n, wl.ic, wl.h, wl.w};
  NDArray data = NDArray::Random(dshape, DataType::Float32(), 11);
  std::vector<int64_t> kshape;
  for (const Expr& e : built.inputs[1].shape()) {
    kshape.push_back(get_const_int(Simplify(e)));
  }
  NDArray kernel = NDArray::Random(kshape, DataType::Float32(), 13);
  std::vector<int64_t> oshape;
  for (const Expr& e : built.output.shape()) {
    oshape.push_back(get_const_int(Simplify(e)));
  }
  NDArray out = NDArray::Empty(oshape, DataType::Float32());
  RunLowered(f, {data.Binding(), kernel.Binding(), out.Binding()});

  std::vector<float> dvec(data.Data<float>(), data.Data<float>() + data.NumElements());
  std::vector<float> kvec(kernel.Data<float>(), kernel.Data<float>() + kernel.NumElements());
  std::vector<float> ref;
  if (wl.kind == "conv2d") {
    ref = RefConv2d(dvec, kvec, wl.n, wl.ic, wl.h, wl.w, wl.oc, wl.k, wl.stride, wl.pad);
  } else if (wl.kind == "depthwise_conv2d") {
    ref = RefDepthwise(dvec, kvec, wl.n, wl.ic, wl.h, wl.w, wl.k, wl.stride, wl.pad);
  } else if (wl.kind == "conv2d_transpose") {
    ref = RefConv2dTranspose(dvec, kvec, wl.n, wl.ic, wl.h, wl.w, wl.oc, wl.k, wl.stride,
                             wl.pad);
  } else if (wl.kind == "dense") {
    ref.assign(static_cast<size_t>(wl.n * wl.oc), 0.0f);
    for (int y = 0; y < wl.n; ++y) {
      for (int x = 0; x < wl.oc; ++x) {
        float acc = 0;
        for (int kk = 0; kk < wl.k; ++kk) {
          acc += dvec[static_cast<size_t>(y * wl.k + kk)] *
                 kvec[static_cast<size_t>(x * wl.k + kk)];
        }
        ref[static_cast<size_t>(y * wl.oc + x)] = acc;
      }
    }
  }
  ASSERT_EQ(ref.size(), static_cast<size_t>(out.NumElements())) << wl.Key();
  const float* got = out.Data<float>();
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(got[i], ref[i], tol) << wl.Key() << " elem " << i;
  }
}

TEST(Topi, Conv2dCpuDefault) {
  OpWorkload wl{"conv2d", 1, 8, 8, 4, 8, 3, 1, 1};
  Target t = Target::ArmA53();
  RunWorkload(wl, t, DefaultConfig(GetScheduleSpace(wl, t)));
}

TEST(Topi, Conv2dGpuDefault) {
  OpWorkload wl{"conv2d", 1, 8, 8, 4, 8, 3, 1, 1};
  Target t = Target::TitanX();
  RunWorkload(wl, t, DefaultConfig(GetScheduleSpace(wl, t)));
}

TEST(Topi, Conv2dStride2) {
  OpWorkload wl{"conv2d", 1, 8, 8, 4, 8, 3, 2, 1};
  Target t = Target::TitanX();
  RunWorkload(wl, t, DefaultConfig(GetScheduleSpace(wl, t)));
}

TEST(Topi, Conv2d1x1) {
  OpWorkload wl{"conv2d", 1, 8, 8, 8, 16, 1, 1, 0};
  Target t = Target::TitanX();
  RunWorkload(wl, t, DefaultConfig(GetScheduleSpace(wl, t)));
}

TEST(Topi, DepthwiseCpuGpu) {
  OpWorkload wl{"depthwise_conv2d", 1, 8, 8, 8, 8, 3, 1, 1};
  RunWorkload(wl, Target::ArmA53(), DefaultConfig(GetScheduleSpace(wl, Target::ArmA53())));
  RunWorkload(wl, Target::TitanX(), DefaultConfig(GetScheduleSpace(wl, Target::TitanX())));
}

TEST(Topi, DenseCpuGpu) {
  OpWorkload wl{"dense", 16, 1, 1, 1, 24, 32, 1, 0};
  RunWorkload(wl, Target::ArmA53(), DefaultConfig(GetScheduleSpace(wl, Target::ArmA53())));
  RunWorkload(wl, Target::TitanX(), DefaultConfig(GetScheduleSpace(wl, Target::TitanX())));
}

// Property sweep: every config in the space must be semantics-preserving. Each
// sweep instance runs one of `points` configs spread evenly over the space.
void RunSweepPoint(const OpWorkload& wl, const Target& t, int param, int points) {
  ConfigSpace space = GetScheduleSpace(wl, t);
  int64_t step = std::max<int64_t>(1, space.size() / points);
  int64_t index = (param * step) % space.size();
  RunWorkload(wl, t, space.At(index));
}

class ConvConfigSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConvConfigSweep, AllConfigsCorrectGpu) {
  RunSweepPoint({"conv2d", 1, 6, 6, 4, 8, 3, 1, 1}, Target::TitanX(), GetParam(), 24);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConvConfigSweep, ::testing::Range(0, 24));

class ConvConfigSweepCpu : public ::testing::TestWithParam<int> {};

TEST_P(ConvConfigSweepCpu, AllConfigsCorrectCpu) {
  RunSweepPoint({"conv2d", 1, 6, 6, 4, 8, 3, 1, 1}, Target::ArmA53(), GetParam(), 16);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConvConfigSweepCpu, ::testing::Range(0, 16));

class DepthwiseConfigSweepCpu : public ::testing::TestWithParam<int> {};

TEST_P(DepthwiseConfigSweepCpu, AllConfigsCorrectCpu) {
  RunSweepPoint({"depthwise_conv2d", 1, 7, 6, 6, 6, 3, 2, 1}, Target::ArmA53(), GetParam(),
                16);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DepthwiseConfigSweepCpu, ::testing::Range(0, 16));

class Conv2dTransposeConfigSweepCpu : public ::testing::TestWithParam<int> {};

TEST_P(Conv2dTransposeConfigSweepCpu, AllConfigsCorrectCpu) {
  // DCGAN's k=4/s=2/p=1: two phase taps per axis, each output row and column
  // parity reading a different pair of kernel taps; the output is 6x8x8.
  RunSweepPoint({"conv2d_transpose", 1, 4, 4, 5, 6, 4, 2, 1}, Target::ArmA53(), GetParam(),
                16);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Conv2dTransposeConfigSweepCpu, ::testing::Range(0, 16));

// conv2d_transpose shapes off DCGAN's k=4/s=2/p=1: a stride that does not divide k
// (the phase form's last tap can fall past the kernel and must be guarded), stride
// 1 (one phase) and pad 0. Non-square inputs keep the two axes apart.
const OpWorkload kConv2dTransposeShapes[] = {
    {"conv2d_transpose", 1, 4, 5, 3, 4, 3, 2, 1},
    {"conv2d_transpose", 1, 3, 4, 3, 4, 5, 3, 1},
    {"conv2d_transpose", 1, 5, 4, 3, 4, 3, 1, 1},
    {"conv2d_transpose", 1, 4, 3, 3, 4, 4, 2, 0},
};

class Conv2dTransposeShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Conv2dTransposeShapeSweep, MatchesReferenceCpuAndGpu) {
  const OpWorkload& wl = kConv2dTransposeShapes[std::get<0>(GetParam())];
  RunSweepPoint(wl, Target::ArmA53(), std::get<1>(GetParam()), 4);
  RunSweepPoint(wl, Target::TitanX(), std::get<1>(GetParam()), 4);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Conv2dTransposeShapeSweep,
                         ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 4)));

// The phase form visits ceil(k / stride) taps per axis, not k.
TEST(Topi, Conv2dTransposeReducesOverPhaseTapsOnly) {
  for (const OpWorkload& wl : kConv2dTransposeShapes) {
    BuiltOp built = BuildOpCompute(wl);
    const auto* cop = static_cast<const ComputeOpNode*>(built.output.op().get());
    ASSERT_EQ(cop->reduce_axis.size(), 3u) << wl.Key();
    const int64_t taps = (wl.k + wl.stride - 1) / wl.stride;
    const std::vector<int64_t> want = {wl.ic, taps, taps};
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(get_const_int(Simplify(cop->reduce_axis[i]->dom.extent())), want[i])
          << wl.Key() << " reduce axis " << i;
    }
  }
}

class DenseConfigSweep : public ::testing::TestWithParam<int> {};

TEST_P(DenseConfigSweep, AllConfigsCorrectGpu) {
  RunSweepPoint({"dense", 32, 1, 1, 1, 32, 32, 1, 0}, Target::TitanX(), GetParam(), 16);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DenseConfigSweep, ::testing::Range(0, 16));

class DenseConfigSweepCpu : public ::testing::TestWithParam<int> {};

TEST_P(DenseConfigSweepCpu, AllConfigsCorrectCpu) {
  RunSweepPoint({"dense", 6, 1, 1, 1, 24, 20, 1, 0}, Target::ArmA53(), GetParam(), 16);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DenseConfigSweepCpu, ::testing::Range(0, 16));

// Records, for every store made inside a loop over one of `reduce_names`, the
// name of its innermost enclosing loop.
class InnermostLoopOfUpdates : public StmtVisitor {
 public:
  explicit InnermostLoopOfUpdates(std::unordered_set<std::string> reduce_names)
      : reduce_names_(std::move(reduce_names)) {}

  std::vector<std::string> innermost;

  void VisitFor(const ForNode* op) override {
    loops_.push_back(op->loop_var->name);
    StmtVisitor::VisitFor(op);
    loops_.pop_back();
  }

  void VisitStore(const StoreNode* op) override {
    for (const std::string& l : loops_) {
      if (reduce_names_.count(l)) {
        innermost.push_back(loops_.back());
        break;
      }
    }
    StmtVisitor::VisitStore(op);
  }

 private:
  std::unordered_set<std::string> reduce_names_;
  std::vector<std::string> loops_;
};

// The CPU register tile: the reduce loops of conv2d, depthwise, conv2d_transpose and
// dense must enclose the innermost spatial tile (ow, or the dense x tile), fused and
// unfused, so each tile iteration is an independent accumulator.
TEST(RegisterTile, ReduceLoopsEncloseTheSpatialTile) {
  Target t = Target::ArmA53();
  const std::vector<OpWorkload> workloads = {
      {"conv2d", 1, 8, 8, 4, 8, 3, 1, 1},
      {"depthwise_conv2d", 1, 8, 8, 8, 8, 3, 1, 1},
      {"conv2d_transpose", 1, 4, 4, 4, 8, 4, 2, 1},
      {"dense", 4, 1, 1, 1, 16, 8, 1, 0},
  };
  for (const OpWorkload& wl : workloads) {
    for (bool fused : {false, true}) {
      BuiltOp built = BuildOpCompute(wl);
      Config cfg = DefaultConfig(GetScheduleSpace(wl, t));
      const auto* cop = static_cast<const ComputeOpNode*>(built.output.op().get());
      std::unordered_set<std::string> reduce_names;
      for (const IterVar& rv : cop->reduce_axis) {
        reduce_names.insert(rv->var->name);
      }
      LoweredFunc f;
      if (fused) {
        Tensor out = Relu(built.output);
        f = Lower(ScheduleFusedGroup(t, {out}, built.output, cfg, &wl),
                  {built.inputs[0], built.inputs[1], out}, "fused");
      } else {
        f = Lower(ApplyOpSchedule(wl, t, built, cfg), built.Args(), "unfused");
      }
      InnermostLoopOfUpdates v(reduce_names);
      v.VisitStmt(f.body);
      ASSERT_FALSE(v.innermost.empty()) << wl.kind << " fused=" << fused;
      for (const std::string& loop : v.innermost) {
        EXPECT_EQ(reduce_names.count(loop), 0u)
            << wl.kind << " fused=" << fused << ": reduction update sits directly in "
            << loop << ", inside the spatial tile";
      }
    }
  }
}

}  // namespace
}  // namespace topi
}  // namespace tvmcpp
