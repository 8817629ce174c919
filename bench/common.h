// Shared helpers for the figure/table reproduction benches.
#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/autotune/tuner.h"
#include "src/baselines/baselines.h"
#include "src/frontend/models.h"
#include "src/graph/executor.h"
#include "src/support/table.h"

namespace tvmcpp {
namespace bench {

// Monotonic wall-clock timer for real (not modeled) execution measurements.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Average wall-clock milliseconds of `fn` over `repeats` runs after `warmup` runs.
template <typename F>
double MeasureMs(F&& fn, int repeats = 3, int warmup = 1) {
  for (int i = 0; i < warmup; ++i) {
    fn();
  }
  WallTimer timer;
  for (int i = 0; i < repeats; ++i) {
    fn();
  }
  return timer.Ms() / repeats;
}

// Median, min and max wall-clock milliseconds of `fn` over `repeats` timed runs
// after `warmup` untimed ones. A single mean hides a noisy host; the median with
// its range does not.
struct TimingStats {
  double median_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
};

template <typename F>
TimingStats MeasureStatsMs(F&& fn, int repeats, int warmup = 1) {
  for (int i = 0; i < warmup; ++i) {
    fn();
  }
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    WallTimer timer;
    fn();
    ms.push_back(timer.Ms());
  }
  std::sort(ms.begin(), ms.end());
  size_t mid = ms.size() / 2;
  TimingStats st;
  st.median_ms = ms.size() % 2 == 1 ? ms[mid] : 0.5 * (ms[mid - 1] + ms[mid]);
  st.min_ms = ms.front();
  st.max_ms = ms.back();
  return st;
}

// The host a row was measured on: logical core count and CPU model name.
inline int HostCores() { return static_cast<int>(std::thread::hardware_concurrency()); }

inline std::string HostCpu() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t start = line.find_first_not_of(" \t", line.find(':') + 1);
      return start == std::string::npos ? "unknown" : line.substr(start);
    }
  }
  return "unknown";
}

// Reduced-size bench mode for the CI smoke gate: benches that honor it shrink
// workload sizes and repeat counts so the whole sweep finishes in seconds. The CI
// step only sanity-checks that no speedup line falls below 1.0x; smoke numbers are
// not trajectory data, so OpenDefaultBenchJsonSink refuses to write them to the
// tracked BENCH_*.json (CI points TVMCPP_BENCH_JSON at a scratch file instead).
inline bool BenchSmokeMode() {
  const char* s = std::getenv("TVMCPP_BENCH_SMOKE");
  return s != nullptr && std::string(s) == "1";
}

// Optional file sink for bench JSON lines: when set (e.g. BENCH_vm.json at the repo
// root), every PrintBenchJson line is mirrored there so the perf trajectory is
// tracked across PRs without scraping stdout. Lines are keyed by bench name:
// re-running a bench (or several benches sharing one BENCH_*.json) replaces that
// bench's line in place instead of appending a duplicate, so the file holds exactly
// one current line per benchmark no matter how often CI or a local loop re-runs it.
struct BenchJsonSink {
  std::string path;
  // (bench name, full JSON line) produced by THIS process, insertion-ordered.
  // Each write re-reads the file and lays these over it, so rows of benches not
  // re-run here are preserved and legacy duplicate lines collapse (latest
  // occurrence wins) on first rewrite. The read-merge-rewrite is best-effort, not
  // atomic: run bench binaries sequentially; racing writers can still lose the
  // last update.
  std::vector<std::pair<std::string, std::string>> lines;
};

inline BenchJsonSink*& BenchJsonSinkSlot() {
  static BenchJsonSink* sink = nullptr;
  return sink;
}

// Extracts the "bench" key of an existing JSON line (empty when absent).
inline std::string BenchNameOfLine(const std::string& line) {
  const std::string tag = "\"bench\": \"";
  size_t at = line.find(tag);
  if (at == std::string::npos) {
    return "";
  }
  size_t begin = at + tag.size();
  size_t end = line.find('"', begin);
  return end == std::string::npos ? "" : line.substr(begin, end - begin);
}

// Opens `path` as the JSON sink, loading any existing lines so benches not re-run
// in this process keep their latest results. Loading dedups by bench name (keeping
// the latest occurrence), so files written by older appending code converge to one
// line per benchmark on the first re-run.
// Upserts `line` into `lines` by bench name (unnamed lines always append).
inline void UpsertBenchLine(std::vector<std::pair<std::string, std::string>>* lines,
                            const std::string& line) {
  std::string name = BenchNameOfLine(line);
  if (!name.empty()) {
    for (auto& kv : *lines) {
      if (kv.first == name) {
        kv.second = line;
        return;
      }
    }
  }
  lines->emplace_back(std::move(name), line);
}

// Reads `path`'s JSON lines into `lines`, deduping by bench name (latest wins).
inline void LoadBenchLines(const std::string& path,
                           std::vector<std::pair<std::string, std::string>>* lines) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) {
    return;
  }
  std::string line;
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    if (!line.empty()) {
      UpsertBenchLine(lines, line);
    }
    line.clear();
  }
  if (!line.empty()) {
    UpsertBenchLine(lines, line);
  }
  std::fclose(in);
}

// Opens `path` as the JSON sink. Existing file content is not snapshotted here:
// every write re-reads and merges, so the freshest on-disk rows always win.
inline void OpenBenchJsonSink(const std::string& path) {
  BenchJsonSink*& sink = BenchJsonSinkSlot();
  delete sink;
  sink = new BenchJsonSink;
  sink->path = path;
  // Probe writability now so a bad path warns once up front, not per line.
  if (std::FILE* out = std::fopen(path.c_str(), "a")) {
    std::fclose(out);
  } else {
    std::printf("warning: cannot open bench JSON sink %s\n", path.c_str());
    delete sink;
    sink = nullptr;
  }
}

// Standard sink selection for bench main()s: TVMCPP_BENCH_JSON wins; otherwise the
// tracked default trajectory file — except in smoke mode, where reduced-size rows
// must not overwrite trajectory data, so without an explicit override no sink is
// opened (stdout only).
inline void OpenDefaultBenchJsonSink(const std::string& default_path) {
  if (const char* override_path = std::getenv("TVMCPP_BENCH_JSON")) {
    OpenBenchJsonSink(override_path);
    return;
  }
  if (BenchSmokeMode()) {
    std::printf("smoke mode without TVMCPP_BENCH_JSON: JSON sink disabled\n");
    return;
  }
  OpenBenchJsonSink(default_path);
}

// Prints one machine-readable result line, e.g.
//   {"bench": "vm_speedup_conv2d", "interp_ms": 41.2, "vm_ms": 5.1, "speedup": 8.1,
//    "host_cores": 4, "cpu": "..."}
// to stdout (`text_fields` are appended as JSON strings, then the host the row was
// measured on) and, when a sink is open, upserts it by bench name into the
// BENCH_*.json trajectory file (rewritten and flushed per line, so partial runs
// still land).
inline void PrintBenchJson(const std::string& bench,
                           const std::vector<std::pair<std::string, double>>& fields,
                           const std::vector<std::pair<std::string, std::string>>&
                               text_fields = {}) {
  std::string line = "{\"bench\": \"" + bench + "\"";
  char buf[64];
  for (const auto& kv : fields) {
    std::snprintf(buf, sizeof(buf), "%.6g", kv.second);
    line += ", \"" + kv.first + "\": " + buf;
  }
  for (const auto& kv : text_fields) {
    line += ", \"" + kv.first + "\": \"" + kv.second + "\"";
  }
  line += ", \"host_cores\": " + std::to_string(HostCores());
  line += ", \"cpu\": \"" + HostCpu() + "\"";
  line += "}";
  std::printf("%s\n", line.c_str());
  BenchJsonSink* sink = BenchJsonSinkSlot();
  if (sink == nullptr) {
    return;
  }
  UpsertBenchLine(&sink->lines, line);
  // Merge-on-write: re-read the file and lay this process's lines over it, so
  // rows this process never produced survive the rewrite.
  std::vector<std::pair<std::string, std::string>> merged;
  LoadBenchLines(sink->path, &merged);
  for (const auto& kv : sink->lines) {
    UpsertBenchLine(&merged, kv.second);
  }
  if (std::FILE* out = std::fopen(sink->path.c_str(), "w")) {
    for (const auto& kv : merged) {
      std::fprintf(out, "%s\n", kv.second.c_str());
    }
    std::fclose(out);
  }
}

// Tunes a workload with the ML-based optimizer; returns (best seconds, best config).
// Results are cached per (workload, target) within one process.
inline std::pair<double, topi::Config> TuneOp(const topi::OpWorkload& wl,
                                              const Target& target, int trials = 96,
                                              uint64_t seed = 7) {
  static std::unordered_map<std::string, std::pair<double, topi::Config>> cache;
  std::string key = wl.Key() + "@" + target.name;
  auto it = cache.find(key);
  if (it != cache.end()) {
    return it->second;
  }
  autotune::TuningTask task(wl, target, seed);
  autotune::TuneOptions opt;
  opt.num_trials = trials;
  opt.batch_size = 16;
  opt.seed = seed;
  autotune::TuneResult r = autotune::Tune(&task, autotune::TunerKind::kMlBased, opt);
  std::pair<double, topi::Config> out{task.TrueCost(r.best_config),
                                      task.space().At(r.best_config)};
  cache[key] = out;
  return out;
}

// Collects the tuned configs for every master workload of a model.
inline graph::TunedConfigs TuneModel(const frontend::Model& model, const Target& target,
                                     int trials = 64) {
  graph::TunedConfigs tuned;
  graph::GraphExecutor probe(model.graph, target, {});
  for (const topi::OpWorkload& wl : probe.workloads()) {
    if (tuned.count(wl.Key())) {
      continue;
    }
    tuned[wl.Key()] = TuneOp(wl, target, trials).second;
  }
  return tuned;
}

// End-to-end estimated time of a model under TVM (tuned, optionally without fusion).
inline double TvmEndToEndSeconds(const frontend::Model& model, const Target& target,
                                 const graph::TunedConfigs& tuned, bool fusion) {
  graph::CompileOptions opts;
  opts.enable_fusion = fusion;
  opts.tuned = &tuned;
  graph::GraphExecutor exec(model.graph, target, opts);
  return exec.EstimateSeconds();
}

// End-to-end time of a model executed with a vendor library: per-master-op library
// kernels + injective ops at memory-bound speed + framework overhead.
inline double LibraryEndToEndSeconds(const frontend::Model& model, const Target& target,
                                     baselines::Library lib) {
  graph::GraphExecutor probe(model.graph, target, {});
  double total = 0;
  for (const topi::OpWorkload& wl : probe.workloads()) {
    baselines::Library use = lib;
    // cuDNN has no depthwise kernels: frameworks fall back to their own (paper Sec 6.1).
    if (lib == baselines::Library::kCudnn && wl.kind == "depthwise_conv2d") {
      use = baselines::Library::kMxNetKernels;
    }
    total += baselines::OperatorSeconds(use, wl, target);
  }
  // Frameworks run injective/reduction ops as separate memory-bound kernels (no fusion).
  double epilogue = 0;
  for (const auto& node : model.graph.nodes()) {
    if (node.op == "input" || node.op == "const" || node.op == "conv2d" ||
        node.op == "depthwise_conv2d" || node.op == "dense" ||
        node.op == "conv2d_transpose") {
      continue;
    }
    double elems = 1;
    for (int64_t d : node.shape) {
      elems *= static_cast<double>(d);
    }
    // read input + write output, plus per-kernel launch overhead
    epilogue += elems * 4 * 2.5 / (target.dram_gbps * 1e9) + 6e-6;
  }
  return (total + epilogue) * baselines::FrameworkOverhead(lib);
}

}  // namespace bench
}  // namespace tvmcpp

#endif  // BENCH_COMMON_H_
