// zoo_native and zoo_vm: the paper's model zoo, one request in flight, kernel
// threads fixed at 1. Each round runs every model in a seeded interleaved order
// (light models several times), so slow phases of the host hit all models alike.
#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/replay.h"
#include "perfbench/src/workloads.h"
#include "src/codegen/native.h"
#include "src/interp/interp.h"
#include "src/support/random.h"

namespace perfbench {

using namespace tvmcpp;  // NOLINT

namespace {

struct ZooModel {
  std::string name;     // metric prefix
  std::string ref_key;  // reference entry (model at this input size)
  std::function<frontend::Model()> build;
  int per_round;        // requests per round
};

std::vector<ZooModel> ZooModels(bool native) {
  if (native) {
    return {
        {"resnet18", "resnet18_112", [] { return frontend::ResNet18(1, 112); }, 1},
        {"mobilenet", "mobilenet_112", [] { return frontend::MobileNet(1, 112); }, 1},
        {"dcgan", "dcgan", [] { return frontend::Dcgan(1); }, 1},
        {"dqn", "dqn", [] { return frontend::Dqn(1); }, 8},
        {"lstm", "lstm", [] { return frontend::LstmLanguageModel(4, 650, 1); }, 4},
        {"sparse_mlp", "sparse_mlp",
         [] { return frontend::SparseMlp(1, 1024, 1024, 256, 0.95); }, 128},
    };
  }
  // DCGAN is left out: one VM request takes ~9 s. ResNet-18 and MobileNet run at
  // smaller images than on native so a run holds several requests of each.
  return {
      {"resnet18", "resnet18_32", [] { return frontend::ResNet18(1, 32); }, 1},
      {"mobilenet", "mobilenet_56", [] { return frontend::MobileNet(1, 56); }, 1},
      {"dqn", "dqn", [] { return frontend::Dqn(1); }, 2},
      {"lstm", "lstm", [] { return frontend::LstmLanguageModel(4, 650, 1); }, 1},
      {"sparse_mlp", "sparse_mlp",
       [] { return frontend::SparseMlp(1, 1024, 1024, 256, 0.95); }, 32},
  };
}

struct Loaded {
  frontend::Model model;
  std::shared_ptr<graph::CompiledGraph> compiled;
};

constexpr int kInputsPerModel = 4;

std::vector<std::string> ZooReferenceKeys() {
  std::vector<std::string> keys;
  for (bool native : {true, false}) {
    for (const ZooModel& z : ZooModels(native)) {
      if (std::find(keys.begin(), keys.end(), z.ref_key) == keys.end()) {
        keys.push_back(z.ref_key);
      }
    }
  }
  return keys;
}

// On random weights a final softmax or tanh saturates: the output is one-hot or
// +-1 and says little about the kernels before it. So a model ending in one is
// also checked at that op's input, on a copy whose graph outputs it. Returns
// false (and leaves `m` alone) for a model that ends otherwise.
constexpr char kPreSuffix[] = ".pre";
bool ToPreActivation(frontend::Model* m) {
  const graph::Node& out = m->graph.node(m->graph.outputs.at(0));
  if (out.op != "softmax" && out.op != "tanh" && out.op != "sigmoid") {
    return false;
  }
  m->graph.outputs = {out.inputs.at(0)};
  return true;
}

// Output 0 of one run of `m`, compiled, on the fixed verification input.
NDArray RunVerifyInput(const frontend::Model& m,
                       const std::shared_ptr<graph::CompiledGraph>& cg) {
  graph::RunContext ctx(cg);
  for (const auto& kv : MakeInputs(m, kVerifySeed)) {
    ctx.SetInput(kv.first, kv.second);
  }
  cg->Run(&ctx, SerialExec());
  return ctx.GetOutput(0).Copy();
}

}  // namespace

void MakeZooReferences(const std::string& path) {
  SetExecEngine(ExecEngine::kInterp);
  const auto existing = LoadReferences(path);
  std::vector<std::pair<std::string, Reference>> refs;
  for (const std::string& key : ZooReferenceKeys()) {
    ZooModel spec;
    for (bool native : {true, false}) {
      for (const ZooModel& z : ZooModels(native)) {
        if (z.ref_key == key) {
          spec = z;
        }
      }
    }
    frontend::Model final_model = spec.build();
    frontend::Model pre_model = final_model;
    std::vector<std::pair<std::string, const frontend::Model*>> entries = {
        {key, &final_model}};
    if (ToPreActivation(&pre_model)) {
      entries.emplace_back(key + kPreSuffix, &pre_model);
    }
    for (const auto& [name, model] : entries) {
      if (existing.count(name)) {
        refs.emplace_back(name, existing.at(name));
        continue;
      }
      auto cg = frontend::CompileModel(*model, BenchTarget(), BenchCompileOptions());
      refs.emplace_back(name, Summarize(RunVerifyInput(*model, cg)));
      SaveReferences(path, refs);  // keeps what is done if a later entry is stopped
    }
  }
  SaveReferences(path, refs);
}

Result RunZoo(const Options& o, bool native) {
  Result r;
  r.workload = o.workload;
  SetExecEngine(native ? ExecEngine::kNative : ExecEngine::kVm);
  const std::vector<ZooModel> specs = ZooModels(native);
  const vm::ExecOptions exec = SerialExec();
  Tracer tracer;
  Tracer* tr = o.trace ? &tracer : nullptr;
  CompileTotals totals;

  // Set-up: build and compile every model from a cold private native cache,
  // several times; the models of the last set-up are the ones measured.
  // zoo_native set-up takes ~12 s (mostly cc); zoo_vm's takes ~0.3 s and is
  // noisy, so it is repeated more often.
  const int setups = (o.smoke || o.trace) ? 1 : (native ? 2 : 25);
  std::vector<Loaded> loaded;
  std::vector<double> setup_s;
  CpuRotation cpus;
  for (int rep = 0; rep < setups; ++rep) {
    cpus.Next();
    loaded.clear();
    FreshNativeCache("setup");
    const codegen::NativeStats before = codegen::GetNativeStats();
    Clock::time_point t0 = Clock::now();
    for (const ZooModel& z : specs) {
      ScopedSpan span(tr, "setup." + z.name);
      Loaded l;
      {
        ScopedSpan s(tr, "frontend.build");
        Clock::time_point b0 = Clock::now();
        l.model = z.build();
        totals.frontend_ms += MsBetween(b0, Clock::now());
      }
      {
        ScopedSpan s(tr, "graph.CompiledGraph");
        Clock::time_point c0 = Clock::now();
        l.compiled = frontend::CompileModel(l.model, BenchTarget(), BenchCompileOptions());
        totals.ctor_ms += MsBetween(c0, Clock::now());
      }
      loaded.push_back(std::move(l));
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    const codegen::NativeStats after = codegen::GetNativeStats();
    if (after.disk_hits != before.disk_hits || after.mem_hits != before.mem_hits) {
      r.Problem("set-up was not cold: native cache hits");
    }
    if (after.compile_failures != before.compile_failures ||
        after.emit_failures != before.emit_failures) {
      r.Problem("native emission or compilation failed");
    }
  }
  r.SetSamples("setup_s", "s", setup_s);

  // Output check: one untimed run per model on the fixed verification input,
  // against the committed interp-tier reference. Doubles as the warm-up.
  const auto refs = LoadReferences(o.reference_file);
  auto check = [&](const std::string& what, const std::string& key,
                   const std::function<NDArray()>& run) {
    try {
      auto ref = refs.find(key);
      const std::string diff = ref == refs.end() ? "no reference entry " + key
                                                 : CompareToReference(run(), ref->second);
      r.Count(diff.empty(), what + " verification: " + diff);
    } catch (const std::exception& e) {
      r.Count(false, what + " verification: " + e.what());
    }
  };
  for (size_t m = 0; m < specs.size(); ++m) {
    check(specs[m].name, specs[m].ref_key,
          [&] { return RunVerifyInput(loaded[m].model, loaded[m].compiled); });
    frontend::Model pre = loaded[m].model;
    if (ToPreActivation(&pre)) {
      // Compiled apart from the measured models; freed before the next.
      check(specs[m].name + kPreSuffix, specs[m].ref_key + kPreSuffix, [&] {
        return RunVerifyInput(pre, frontend::CompileModel(pre, BenchTarget(),
                                                          BenchCompileOptions()));
      });
    }
  }

  // Seeded request inputs, a few per model, reused round-robin.
  std::vector<std::vector<std::unordered_map<std::string, NDArray>>> pool(specs.size());
  for (size_t m = 0; m < specs.size(); ++m) {
    for (int j = 0; j < kInputsPerModel; ++j) {
      pool[m].push_back(MakeInputs(loaded[m].model, MixSeed(o.seed, m * 131 + j)));
    }
  }
  std::vector<std::unique_ptr<graph::RunContext>> ctxs;
  for (const Loaded& l : loaded) {
    ctxs.push_back(std::make_unique<graph::RunContext>(l.compiled));
  }

  std::vector<std::unique_ptr<Replay>> replays;
  if (o.trace) {
    // Replays compile from a cold cache too, so their cc spans are real compiles.
    FreshNativeCache("replay");
    for (size_t m = 0; m < specs.size(); ++m) {
      ScopedSpan span(tr, "replay.compile." + specs[m].name);
      replays.push_back(std::make_unique<Replay>(loaded[m].model, loaded[m].compiled,
                                                 BenchTarget(), native, tr, &totals));
      r.Count(replays[m]->num_kernels() == loaded[m].compiled->num_kernels(),
              specs[m].name + ": replay kernel count differs from num_kernels()");
    }
  }

  // Closed loop: rounds of every model in a seeded order until the time is up.
  Rng rng(MixSeed(o.seed, 0xC0DE));
  std::vector<std::vector<double>> run_ms(specs.size());
  std::vector<ReplayTimes> replayed(specs.size());
  std::vector<KindTotals> kind_rounds;
  std::vector<std::unordered_map<int, uint64_t>> first_hash(specs.size());
  std::vector<int> next_input(specs.size(), 0);
  const Clock::time_point start = Clock::now();
  const double limit_ms = o.seconds * 1e3;
  int rounds = 0;
  bool time_up = false;
  while (!time_up) {
    // Models in a seeded order; a light model's requests run back to back, so each
    // round has the same mix of cache-cold first runs and warm repeats.
    std::vector<size_t> models(specs.size());
    for (size_t m = 0; m < specs.size(); ++m) {
      models[m] = m;
    }
    for (size_t i = models.size(); i > 1; --i) {
      std::swap(models[i - 1], models[rng.Uniform(i)]);
    }
    std::vector<size_t> order;
    for (size_t m : models) {
      order.insert(order.end(), static_cast<size_t>(o.trace ? 1 : specs[m].per_round), m);
    }
    KindTotals kinds;
    for (size_t i = 0; i < order.size(); ++i) {
      const size_t m = order[i];
      if (i == 0 || order[i - 1] != m) {
        cpus.Next();  // each model's requests of the round on the next CPU
      }
      // After the first round an untraced run stops when the time is up, even
      // inside a round (a traced run keeps whole rounds for its per-round sums).
      if (!o.trace && rounds > 0 && MsBetween(start, Clock::now()) >= limit_ms) {
        time_up = true;
        break;
      }
      const int j = next_input[m]++ % kInputsPerModel;
      graph::RunContext& ctx = *ctxs[m];
      for (const auto& kv : pool[m][static_cast<size_t>(j)]) {
        ctx.SetInput(kv.first, kv.second);
      }
      try {
        Clock::time_point t0 = Clock::now();
        loaded[m].compiled->Run(&ctx, exec);
        run_ms[m].push_back(MsBetween(t0, Clock::now()));
        // Same input, same bits: every request is checked against the first.
        const uint64_t h = HashBytes(ctx.GetOutput(0));
        auto [it, first] = first_hash[m].emplace(j, h);
        r.Count(first || it->second == h, specs[m].name + ": output changed between runs");
      } catch (const std::exception& e) {
        r.Count(false, specs[m].name + ": " + e.what());
        continue;
      }
      if (!o.trace) {
        continue;
      }
      ReplayBeside(replays[m].get(), ctx, pool[m][static_cast<size_t>(j)],
                   "replay.run." + specs[m].name, tr, &kinds, &replayed[m], &r);
    }
    kind_rounds.push_back(kinds);
    ++rounds;
    time_up = time_up || MsBetween(start, Clock::now()) >= limit_ms;
  }

  double log_sum = 0;
  for (size_t m = 0; m < specs.size(); ++m) {
    r.SetSamples(specs[m].name + "_ms", "ms", run_ms[m]);
    log_sum += std::log(std::max(Median(run_ms[m]), 1e-9));
  }
  r.Set("geomean_ms", "ms", std::exp(log_sum / static_cast<double>(specs.size())),
        static_cast<int64_t>(specs.size()));
  r.Set("rss_mb", "MB", PeakRssMb());
  r.Set("fail_frac", "ratio",
        r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0,
        r.attempted);
  r.Note("rounds", std::to_string(rounds));
  if (o.trace) {
    SetCompileLayers(totals, &r);
    SetKernelLayers(kind_rounds, native, &r);
    // No server runs: run.py reports the serving layers' figures as 0.
    r.not_measured = {"serve", "gen", "runtime"};
    double run_total = 0;
    double replay_total = 0;
    double kernel_total = 0;
    for (size_t m = 0; m < specs.size(); ++m) {
      run_total += Median(run_ms[m]);
      replay_total += Median(replayed[m].replay_ms);
      kernel_total += Median(replayed[m].kernel_ms);
    }
    SetTraceLayers(kernel_total, run_total, replay_total, &r);
    FinishTrace(tracer, o, &r);
  }
  return r;
}

}  // namespace perfbench
