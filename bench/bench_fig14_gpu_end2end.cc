// Figure 14: GPU end-to-end evaluation — TVM vs MXNet vs Tensorflow vs Tensorflow XLA
// on ResNet-18, MobileNet, LSTM LM, DQN, DCGAN (Titan X model).
// Paper result: TVM outperforms the baselines by 1.6x-3.8x; DQN gains the most because
// its unconventional convolutions are poorly served by cuDNN.
#include "bench/common.h"

using namespace tvmcpp;

int main() {
  std::printf("Figure 14: GPU end-to-end, estimated (Titan X machine model), times in ms\n");
  std::printf("paper: TVM speedup over frameworks 1.6x - 3.8x (DQN highest)\n\n");
  Target t = Target::TitanX();
  struct Case {
    std::string name;
    frontend::Model model;
  };
  std::vector<Case> cases;
  cases.push_back({"ResNet-18", frontend::ResNet18(1, 224)});
  cases.push_back({"MobileNet", frontend::MobileNet(1, 224)});
  cases.push_back({"LSTM LM", frontend::LstmLanguageModel(8, 650)});
  cases.push_back({"DQN", frontend::Dqn(1)});
  cases.push_back({"DCGAN", frontend::Dcgan(1)});

  TextTable table({"model", "MXNet", "Tensorflow", "TF XLA", "TVM w/o graph opt", "TVM",
                   "best speedup"});
  for (Case& c : cases) {
    graph::TunedConfigs tuned = bench::TuneModel(c.model, t, 48);
    double tvm = bench::TvmEndToEndSeconds(c.model, t, tuned, true);
    double tvm_nograph = bench::TvmEndToEndSeconds(c.model, t, tuned, false);
    double mxnet = bench::LibraryEndToEndSeconds(c.model, t, baselines::Library::kCudnn);
    double tf = mxnet * 1.08;       // TF: same cuDNN kernels, heavier runtime
    double xla = mxnet * 0.95;      // XLA: fuses elementwise ops but keeps cuDNN convs
    double best_base = std::min({mxnet, tf, xla});
    table.AddRow({c.name, TextTable::Num(mxnet * 1e3), TextTable::Num(tf * 1e3),
                  TextTable::Num(xla * 1e3), TextTable::Num(tvm_nograph * 1e3),
                  TextTable::Num(tvm * 1e3), TextTable::Num(best_base / tvm, 2) + "x"});
  }
  table.Print();
  return 0;
}
