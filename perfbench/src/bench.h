// Shared pieces of the end-to-end benchmark: clocks, order statistics, the result
// record every workload fills in, hermetic process set-up, and the committed
// reference outputs the zoo workloads are checked against.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/frontend/models.h"
#include "src/runtime/ndarray.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using tvmcpp::NDArray;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;          // one set-up, shortest measurement: checks, not figures
  std::string trace_file;      // Chrome trace-event output of a traced run
  std::string reference_file;  // committed interp-tier outputs of the zoo models
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  int64_t samples = 1;
  std::string tail;  // highest percentile with >= 10 samples beyond it, e.g. "p95=41.2"
};

// What one workload process reports: every metric it measured, the operation
// counts behind fail_frac, and the checks that failed.
struct Result {
  std::string workload;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
  // Layers (metric name prefixes before the first '.') this workload does not
  // exercise; run.py reports their declared metrics as 0.
  std::vector<std::string> not_measured;

  void Set(const std::string& name, const std::string& unit, double value,
           int64_t samples = 1, const std::string& tail = "");
  // A latency-like sample set reported as its median, with sample count and tail.
  void SetSamples(const std::string& name, const std::string& unit,
                  const std::vector<double>& samples);
  void Note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  // A failed check: the result is reported as incorrect.
  void Problem(const std::string& what);
  // One attempted operation; `ok` false counts it as failed.
  void Count(bool ok, const std::string& what_if_failed = "");
  void WriteJson(bool trace) const;
};

// Process set-up that makes a run independent of the caller's shell: clears every
// TVMCPP_* variable except the private native cache, and turns on strict mode so a
// silent down-tier fails the run instead of being timed as the wrong tier.
void MakeHermetic();

// Points the native module cache at a fresh, empty directory under the run's
// private cache root and drops the in-process module registry, so the next
// compile is cold. Returns the directory.
std::string FreshNativeCache(const std::string& tag);

// Moves the calling thread to the next of the CPUs the process may run on, in
// turn (child processes, such as the C compiler, inherit the choice). On a shared
// host the CPUs differ in speed by up to a third, as one may share its core with a
// busy neighbour, and a single-threaded run that stays on one CPU takes on that
// CPU's speed for its whole life. Rotating makes every run sample all of them.
class CpuRotation {
 public:
  CpuRotation();
  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Deterministic inputs: every graph input of `m` filled from `seed`.
std::unordered_map<std::string, NDArray> MakeInputs(const tvmcpp::frontend::Model& m,
                                                    uint64_t seed);

// 64-bit FNV-1a over a tensor's bytes (bitwise-equality witness).
uint64_t HashBytes(const NDArray& a);
bool BitwiseEqual(const NDArray& a, const NDArray& b);

// Verification of a zoo model's output against the committed interp reference.
// Fixed input (independent of the workload seed), tolerance rather than bitwise
// equality so a change of the value model does not need a benchmark edit.
constexpr uint64_t kVerifySeed = 0x5eed0f0e;
struct Reference {
  int64_t n = 0;
  double sum = 0;
  double abs_sum = 0;
  int64_t argmax = 0;
  double weighted = 0;          // sum of x[i] * (i % 97 + 1): sees where values sit
  std::vector<double> samples;  // elements at index i * n / samples.size()
};
Reference Summarize(const NDArray& out, int num_samples = 64);
// Empty when the output matches, else what differs.
std::string CompareToReference(const NDArray& out, const Reference& ref);
std::unordered_map<std::string, Reference> LoadReferences(const std::string& path);
void SaveReferences(const std::string& path,
                    const std::vector<std::pair<std::string, Reference>>& refs);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
