// serve_mix: an open loop of seeded Poisson arrivals from one generator thread into
// an InferenceServer on the native engine (3 workers, dynamic batching up to 8,
// every batch variant compiled in set-up). Most requests are a tiny SparseMlp; a
// small share (2%) are LSTM LM requests whose length sets the tail through head-of-line
// blocking. Latency runs from each request's scheduled send time to its completion.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/src/replay.h"
#include "perfbench/src/workloads.h"
#include "src/codegen/native.h"
#include "src/frontend/models.h"
#include "src/interp/interp.h"
#include "src/serve/serve.h"
#include "src/support/random.h"

namespace perfbench {

using namespace tvmcpp;  // NOLINT

namespace {

constexpr int kWorkers = 3;  // plus the generator thread: 4 = the host's cores
constexpr int kMaxBatch = 8;
constexpr double kHeavyShare = 0.02;
constexpr double kReferenceRate = 300;  // req/s, about a third of capacity
constexpr double kLimitMs = 250;        // p99 latency limit for max_rps
const double kLadder[] = {250, 354, 500, 707, 1000, 1414, 2000};  // offered req/s
constexpr int kTinyInputs = 64;
constexpr int kHeavyInputs = 8;

serve::ServerOptions MakeServerOptions() {
  serve::ServerOptions o;
  o.num_workers = kWorkers;
  o.queue_capacity = 1 << 14;  // Submit never blocks the generator
  o.max_batch = kMaxBatch;
  o.batch_timeout_ms = 0;      // coalesce only what is already queued
  o.default_deadline_ms = 0;   // no deadlines, so nothing is shed
  o.max_retries = 1;
  o.retry_backoff_ms = 0.5;
  o.enable_fallback = 1;       // a fallback is counted as a failure below
  o.enable_shedding = 0;
  o.adaptive_linger = 0;
  return o;
}

struct ServeModel {
  frontend::Model model;
  std::shared_ptr<graph::CompiledGraph> base;
  std::map<int, std::shared_ptr<const graph::CompiledGraph>> variants;
  std::vector<std::unordered_map<std::string, NDArray>> inputs;
  std::vector<NDArray> expected;  // unbatched Run output per input
};

struct Deployment {
  ServeModel tiny;
  ServeModel heavy;
  std::shared_ptr<std::atomic<int>> batch_compiles = std::make_shared<std::atomic<int>>(0);
  std::unique_ptr<serve::InferenceServer> server;  // destroyed first
};

void Compile(ServeModel* m, frontend::Model model, Tracer* tr, CompileTotals* totals) {
  m->model = std::move(model);
  {
    ScopedSpan s(tr, "graph.CompiledGraph");
    Clock::time_point c0 = Clock::now();
    m->base = frontend::CompileModel(m->model, BenchTarget(), BenchCompileOptions());
    totals->ctor_ms += MsBetween(c0, Clock::now());
  }
  ScopedSpan s(tr, "batch.variants");
  for (int b = 2; b <= kMaxBatch; ++b) {
    m->variants[b] = m->base->Rebatched(b);
  }
}

serve::BatchedModelCache::Builder VariantLookup(const ServeModel& m,
                                                std::shared_ptr<std::atomic<int>> misses) {
  const auto* variants = &m.variants;
  std::shared_ptr<graph::CompiledGraph> base = m.base;
  return [variants, base, misses](int b) -> std::shared_ptr<const graph::CompiledGraph> {
    auto it = variants->find(b);
    if (it != variants->end()) {
      return it->second;
    }
    misses->fetch_add(1);
    return base->Rebatched(b);
  };
}

std::unique_ptr<Deployment> Deploy(Tracer* tr, CompileTotals* totals) {
  auto d = std::make_unique<Deployment>();
  {
    ScopedSpan s(tr, "setup.sparse_mlp");
    frontend::Model m;
    {
      ScopedSpan f(tr, "frontend.build");
      Clock::time_point b0 = Clock::now();
      m = frontend::SparseMlp(1, 1024, 1024, 256, 0.95);
      totals->frontend_ms += MsBetween(b0, Clock::now());
    }
    Compile(&d->tiny, std::move(m), tr, totals);
  }
  {
    ScopedSpan s(tr, "setup.lstm");
    frontend::Model m;
    {
      ScopedSpan f(tr, "frontend.build");
      Clock::time_point b0 = Clock::now();
      m = frontend::LstmLanguageModel(4, 650, 1);
      totals->frontend_ms += MsBetween(b0, Clock::now());
    }
    Compile(&d->heavy, std::move(m), tr, totals);
  }
  ScopedSpan s(tr, "serve.start");
  d->server = std::make_unique<serve::InferenceServer>(MakeServerOptions());
  d->server->SetBatchBuilder(d->tiny.base, VariantLookup(d->tiny, d->batch_compiles));
  d->server->SetBatchBuilder(d->heavy.base, VariantLookup(d->heavy, d->batch_compiles));
  return d;
}

// What one open-loop phase measured.
struct Phase {
  double rate = 0;
  std::vector<double> latency_ms;        // all requests; failures are +inf
  std::vector<double> tiny_ms, heavy_ms;  // completed requests by class
  std::vector<double> queue_ms, run_tiny_ms, run_heavy_ms, overhead_ms, lag_ms;
  double batch_sum = 0;
  int64_t completed = 0;
  int64_t outstanding_at_end = 0;  // not done when the last request was sent
  double P99() const { return Quantile(latency_ms, 0.99); }
  // > 1 when the step misses the latency limit or its backlog grows (more requests
  // outstanding at the end than Little's law allows at the limit).
  double Badness() const {
    double backlog = static_cast<double>(outstanding_at_end) / (rate * kLimitMs / 1e3);
    return std::max(P99() / kLimitMs, backlog);
  }
};

Phase RunPhase(Deployment* d, double rate, double seconds, Rng* rng, Result* r, Tracer* tr,
               int64_t* request_ids) {
  Phase ph;
  ph.rate = rate;
  std::vector<double> sched_ms;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng->UniformReal()) * 1e3 / rate;
    if (t >= seconds * 1e3) {
      break;
    }
    sched_ms.push_back(t);
  }
  const size_t n = sched_ms.size();
  std::vector<char> heavy(n);
  std::vector<int> input(n);
  for (size_t i = 0; i < n; ++i) {
    heavy[i] = rng->UniformReal() < kHeavyShare;
    input[i] = static_cast<int>(rng->Uniform(heavy[i] ? kHeavyInputs : kTinyInputs));
  }
  auto done = std::make_shared<std::vector<Clock::time_point>>(n);
  std::vector<Clock::time_point> sent(n);
  std::vector<std::future<serve::InferenceResponse>> futures;
  futures.reserve(n);

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto at = [&](double ms) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
  };
  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(at(sched_ms[i]));
    const ServeModel& m = heavy[i] ? d->heavy : d->tiny;
    serve::InferenceRequest req;
    req.inputs = m.inputs[static_cast<size_t>(input[i])];
    req.on_complete = [done, i](const serve::InferenceResponse&) {
      (*done)[i] = Clock::now();
    };
    sent[i] = Clock::now();
    futures.push_back(d->server->Submit(m.base, std::move(req)));
  }
  const Clock::time_point send_end = Clock::now();
  // Every wait is bounded; a request still open at the deadline is a failure.
  const Clock::time_point deadline = send_end + std::chrono::seconds(30);
  for (size_t i = 0; i < n; ++i) {
    const ServeModel& m = heavy[i] ? d->heavy : d->tiny;
    const double lag = MsBetween(at(sched_ms[i]), sent[i]);
    ph.lag_ms.push_back(lag);
    if (futures[i].wait_until(deadline) != std::future_status::ready) {
      r->Count(false, "request not answered within 30 s of the phase end");
      ph.latency_ms.push_back(INFINITY);
      continue;
    }
    serve::InferenceResponse resp = futures[i].get();
    const bool ok = resp.status.ok() && !resp.fell_back && resp.outputs.size() == 1 &&
                    BitwiseEqual(resp.outputs[0], m.expected[static_cast<size_t>(input[i])]);
    r->Count(ok, std::string(heavy[i] ? "lstm" : "sparse_mlp") + " response: " +
                     (resp.status.ok() ? (resp.fell_back ? "fell back to the interpreter"
                                                         : "output differs from unbatched Run")
                                       : resp.status.message));
    if (!ok) {
      ph.latency_ms.push_back(INFINITY);
      continue;
    }
    const double latency = MsBetween(at(sched_ms[i]), (*done)[i]);
    ++ph.completed;
    ph.latency_ms.push_back(latency);
    (heavy[i] ? ph.heavy_ms : ph.tiny_ms).push_back(latency);
    (heavy[i] ? ph.run_heavy_ms : ph.run_tiny_ms).push_back(resp.run_ms);
    ph.queue_ms.push_back(resp.queue_ms);
    if (!heavy[i]) {
      ph.overhead_ms.push_back(latency - lag - resp.queue_ms - resp.run_ms);
    }
    ph.batch_sum += resp.batch_size;
    if ((*done)[i] > send_end) {
      ++ph.outstanding_at_end;
    }
    if (tr != nullptr) {
      // Request spans are roots (requests overlap); queue and run nest inside.
      const int64_t id = (*request_ids)++;
      const Clock::time_point end = (*done)[i];
      int span = tr->Add(heavy[i] ? "serve.request.lstm" : "serve.request.sparse_mlp",
                         std::min(at(sched_ms[i]), sent[i]), end, -1, id);
      auto clamp = [&](Clock::time_point t) { return std::min(std::max(t, sent[i]), end); };
      const auto ms = [](double v) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(v));
      };
      const Clock::time_point queue_end = clamp(sent[i] + ms(resp.queue_ms));
      tr->Add("serve.queue", sent[i], queue_end, span, id);
      tr->Add("serve.run", std::max(queue_end, clamp(end - ms(resp.run_ms))), end, span, id);
    }
  }
  return ph;
}

// Highest offered rate on the fixed ladder that meets the latency limit without a
// growing backlog, interpolated (in log rate) between the last passing step and
// the first failing one.
double MaxRps(const std::vector<Phase>& steps) {
  for (size_t i = 0; i < steps.size(); ++i) {
    const double bad = steps[i].Badness();
    if (bad <= 1) {
      continue;
    }
    if (i == 0) {
      return steps[0].rate / bad;
    }
    const Phase& pass = steps[i - 1];
    const double b0 = pass.Badness();
    const double frac = std::isfinite(bad) ? (1 - b0) / (bad - b0) : 0.5;
    return pass.rate * std::pow(steps[i].rate / pass.rate, std::min(1.0, std::max(0.0, frac)));
  }
  return steps.empty() ? 0 : steps.back().rate;
}

}  // namespace

Result RunServeMix(const Options& o) {
  Result r;
  r.workload = o.workload;
  SetExecEngine(ExecEngine::kNative);
  Tracer tracer;
  Tracer* tr = o.trace ? &tracer : nullptr;
  CompileTotals totals;

  // Set-up: models, every batch variant and the server, from a cold native cache.
  const int setups = (o.smoke || o.trace) ? 1 : 3;
  std::unique_ptr<Deployment> d;
  std::vector<double> setup_s;
  for (int rep = 0; rep < setups; ++rep) {
    d.reset();
    FreshNativeCache("setup");
    const codegen::NativeStats before = codegen::GetNativeStats();
    Clock::time_point t0 = Clock::now();
    d = Deploy(tr, &totals);
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

  // Seeded inputs and their expected outputs from unbatched CompiledGraph::Run;
  // then one untimed run of every batch variant as warm-up.
  const vm::ExecOptions exec = SerialExec();
  for (ServeModel* m : {&d->tiny, &d->heavy}) {
    const int count = m == &d->tiny ? kTinyInputs : kHeavyInputs;
    const uint64_t stream = m == &d->tiny ? 1000 : 2000;
    for (int j = 0; j < count; ++j) {
      m->inputs.push_back(MakeInputs(m->model, MixSeed(o.seed, stream + j)));
      graph::RunContext ctx(m->base);
      for (const auto& kv : m->inputs.back()) {
        ctx.SetInput(kv.first, kv.second);
      }
      m->base->Run(&ctx, exec);
      m->expected.push_back(ctx.GetOutput(0).Copy());
    }
    for (const auto& kv : m->variants) {
      graph::RunContext ctx(kv.second);
      for (const graph::Node& n : kv.second->graph().nodes()) {
        if (n.op == "input") {
          ctx.SetInput(n.name, NDArray::Empty(n.shape, n.dtype));
        }
      }
      kv.second->Run(&ctx, exec);
    }
  }

  Rng rng(MixSeed(o.seed, 0x5E4E));
  int64_t request_ids = 0;
  const serve::ServerStats before = d->server->stats();
  const double ref_seconds = o.smoke ? 1.0 : 0.6 * o.seconds;
  Phase ref = RunPhase(d.get(), kReferenceRate, ref_seconds, &rng, &r, tr, &request_ids);
  r.SetSamples("p50_ms", "ms", ref.latency_ms);
  r.Set("p99_ms", "ms", ref.P99(), static_cast<int64_t>(ref.latency_ms.size()));
  r.SetSamples("sparse_mlp_ms", "ms", ref.tiny_ms);
  r.SetSamples("lstm_ms", "ms", ref.heavy_ms);
  r.Set("geomean_ms", "ms", std::sqrt(Median(ref.tiny_ms) * Median(ref.heavy_ms)), 2);
  r.Note("reference_completions", std::to_string(ref.completed));
  r.Note("generator_lag_p99_ms", std::to_string(Quantile(ref.lag_ms, 0.99)));
  if (ref.completed < 1000 && !o.smoke) {
    r.Problem("reference phase completed fewer than 1000 requests");
  }

  if (!o.trace) {
    // Rate ladder: stop at the first step that misses the limit.
    std::vector<Phase> steps;
    const double step_seconds = o.smoke ? 0.3 : 0.07 * o.seconds;
    for (double rate : kLadder) {
      steps.push_back(RunPhase(d.get(), rate, step_seconds, &rng, &r, nullptr, &request_ids));
      if (steps.back().Badness() > 1) {
        break;
      }
    }
    r.Set("max_rps", "req/s", MaxRps(steps), static_cast<int64_t>(steps.size()));
  } else {
    // Per-layer figures of the reference phase.
    r.Set("serve.queue_p50_ms", "ms", Quantile(ref.queue_ms, 0.5));
    r.Set("serve.queue_p99_ms", "ms", Quantile(ref.queue_ms, 0.99));
    r.SetSamples("serve.run_tiny_ms", "ms", ref.run_tiny_ms);
    r.SetSamples("serve.run_heavy_ms", "ms", ref.run_heavy_ms);
    r.SetSamples("serve.overhead_ms", "ms", ref.overhead_ms);
    r.Set("serve.batch_mean", "requests",
          ref.completed ? ref.batch_sum / static_cast<double>(ref.completed) : 0);
    r.Set("gen.lag_p99_ms", "ms", Quantile(ref.lag_ms, 0.99));

    // RunContext construction: the per-request allocation of the tiny model.
    std::vector<double> alloc_us;
    for (int i = 0; i < 2000; ++i) {
      Clock::time_point t0 = Clock::now();
      graph::RunContext ctx(d->tiny.base);
      alloc_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
    }
    r.SetSamples("runtime.alloc_us", "us", alloc_us);

    // Kernel layers: traced replays of both models beside their untraced runs.
    FreshNativeCache("replay");
    std::vector<ServeModel*> models = {&d->tiny, &d->heavy};
    std::vector<std::unique_ptr<Replay>> replays;
    for (ServeModel* m : models) {
      ScopedSpan span(tr, "replay.compile");
      replays.push_back(std::make_unique<Replay>(m->model, m->base, BenchTarget(),
                                                 /*native=*/true, tr, &totals));
      r.Count(replays.back()->num_kernels() == m->base->num_kernels(),
              "replay kernel count differs from num_kernels()");
    }
    std::vector<KindTotals> rounds;
    std::vector<std::vector<double>> run_ms(models.size());
    std::vector<ReplayTimes> replayed(models.size());
    const Clock::time_point start = Clock::now();
    const double replay_seconds = o.smoke ? 0.2 : 0.2 * o.seconds;
    for (int round = 0; round < 3 || MsBetween(start, Clock::now()) < replay_seconds * 1e3;
         ++round) {
      KindTotals kinds;
      for (size_t i = 0; i < models.size(); ++i) {
        const ServeModel& m = *models[i];
        const auto& inputs = m.inputs[static_cast<size_t>(round) % m.inputs.size()];
        graph::RunContext ctx(m.base);
        for (const auto& kv : inputs) {
          ctx.SetInput(kv.first, kv.second);
        }
        Clock::time_point t0 = Clock::now();
        m.base->Run(&ctx, exec);
        run_ms[i].push_back(MsBetween(t0, Clock::now()));
        ReplayBeside(replays[i].get(), ctx, inputs, "replay.run", tr, &kinds, &replayed[i],
                     &r);
      }
      rounds.push_back(kinds);
    }
    SetCompileLayers(totals, &r);
    SetKernelLayers(rounds, /*native=*/true, &r);
    double run_total = 0, replay_total = 0, kernel_total = 0;
    for (size_t i = 0; i < models.size(); ++i) {
      run_total += Median(run_ms[i]);
      replay_total += Median(replayed[i].replay_ms);
      kernel_total += Median(replayed[i].kernel_ms);
    }
    SetTraceLayers(kernel_total, run_total, replay_total, &r);
    FinishTrace(tracer, o, &r);
  }
  // Server counters over the whole timed window.
  const serve::ServerStats after = d->server->stats();
  r.Set("serve.retries", "count", static_cast<double>(after.retries - before.retries));
  r.Set("serve.fallbacks", "count", static_cast<double>(after.fallbacks - before.fallbacks));
  r.Set("serve.shed", "count", static_cast<double>(after.shed - before.shed));
  r.Set("serve.deadline_missed", "count",
        static_cast<double>(after.deadline_missed - before.deadline_missed));
  const int64_t batches = after.batches - before.batches;
  r.Set("serve.full_batch_frac", "ratio",
        batches > 0 ? static_cast<double>(after.full_batches - before.full_batches) /
                          static_cast<double>(batches)
                    : 0);
  r.Set("serve.batch_compiles", "count", static_cast<double>(d->batch_compiles->load()));
  r.Count(d->batch_compiles->load() == 0, "a batch variant was compiled in the timed window");
  r.Set("rss_mb", "MB", PeakRssMb());
  r.Set("fail_frac", "ratio",
        r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0,
        r.attempted);
  return r;
}

}  // namespace perfbench
