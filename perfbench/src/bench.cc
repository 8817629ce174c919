#include "perfbench/src/bench.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/codegen/native.h"
#include "src/support/logging.h"
#include "src/vm/vm.h"

extern char** environ;

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Result::Set(const std::string& name, const std::string& unit, double value,
                 int64_t samples, const std::string& tail) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m = Metric{name, unit, value, samples, tail};
      return;
    }
  }
  metrics.push_back(Metric{name, unit, value, samples, tail});
}

void Result::SetSamples(const std::string& name, const std::string& unit,
                        const std::vector<double>& samples) {
  // The highest of these percentiles that still has at least ten samples beyond it.
  std::string tail;
  const double n = static_cast<double>(samples.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "p%g=%.6g", p, Quantile(samples, p / 100.0));
      tail = buf;
      break;
    }
  }
  Set(name, unit, Median(samples), static_cast<int64_t>(samples.size()), tail);
}

void Result::Problem(const std::string& what) {
  if (problems.size() < 20) {
    problems.push_back(what);
  }
}

void Result::Count(bool ok, const std::string& what_if_failed) {
  ++attempted;
  if (!ok) {
    ++failed;
    Problem(what_if_failed);
  }
}

void Result::WriteJson(bool trace) const {
  std::ostringstream os;
  os << "{\"workload\": \"" << workload << "\", \"trace\": " << (trace ? 1 : 0)
     << ", \"correct\": " << (problems.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"problems\": [";
  for (size_t i = 0; i < problems.size(); ++i) {
    os << (i ? ", " : "") << '"' << JsonEscape(problems[i]) << '"';
  }
  os << "], \"notes\": {";
  for (size_t i = 0; i < notes.size(); ++i) {
    os << (i ? ", " : "") << '"' << JsonEscape(notes[i].first) << "\": \""
       << JsonEscape(notes[i].second) << '"';
  }
  os << "}, \"not_measured\": [";
  for (size_t i = 0; i < not_measured.size(); ++i) {
    os << (i ? ", " : "") << '"' << JsonEscape(not_measured[i]) << '"';
  }
  os << "], \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << Num(m.value)
       << ", \"unit\": \"" << m.unit << "\", \"samples\": " << m.samples
       << ", \"tail\": \"" << m.tail << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

void MakeHermetic() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string kv = *e;
    std::string name = kv.substr(0, kv.find('='));
    if (name.rfind("TVMCPP_", 0) == 0 && name != "TVMCPP_NATIVE_CACHE") {
      names.push_back(name);
    }
  }
  for (const std::string& name : names) {
    ::unsetenv(name.c_str());
  }
  const char* cache = std::getenv("TVMCPP_NATIVE_CACHE");
  CHECK(cache != nullptr && *cache != '\0')
      << "TVMCPP_NATIVE_CACHE must name the run's private cache directory";
  tvmcpp::vm::SetStrictMode(true);
}

std::string FreshNativeCache(const std::string& tag) {
  static const std::string root = std::getenv("TVMCPP_NATIVE_CACHE");
  static int counter = 0;
  std::string dir = root + "/" + tag + "-" + std::to_string(counter++);
  ::setenv("TVMCPP_NATIVE_CACHE", dir.c_str(), 1);
  tvmcpp::codegen::ClearNativeModuleRegistryForTesting();
  return dir;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus_.push_back(c);
      }
    }
  }
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  CHECK(::sched_setaffinity(0, sizeof(set), &set) == 0) << "sched_setaffinity failed";
}

double PeakRssMb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::unordered_map<std::string, NDArray> MakeInputs(const tvmcpp::frontend::Model& m,
                                                    uint64_t seed) {
  std::unordered_map<std::string, NDArray> inputs;
  uint64_t k = 0;
  for (const tvmcpp::graph::Node& n : m.graph.nodes()) {
    if (n.op == "input") {
      inputs[n.name] = NDArray::Random(n.shape, n.dtype, seed * 1000003ULL + k++);
    }
  }
  return inputs;
}

uint64_t HashBytes(const NDArray& a) {
  uint64_t h = 1469598103934665603ULL;
  const unsigned char* p = a.Data<unsigned char>();
  for (int64_t i = 0; i < a.ByteSize(); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool BitwiseEqual(const NDArray& a, const NDArray& b) {
  return a.shape() == b.shape() && a.dtype() == b.dtype() &&
         std::memcmp(a.Data<char>(), b.Data<char>(), static_cast<size_t>(a.ByteSize())) ==
             0;
}

Reference Summarize(const NDArray& out, int num_samples) {
  Reference r;
  r.n = out.NumElements();
  const float* p = out.Data<float>();
  for (int64_t i = 0; i < r.n; ++i) {
    r.sum += p[i];
    r.abs_sum += std::fabs(p[i]);
    r.weighted += p[i] * static_cast<double>(i % 97 + 1);
    if (p[i] > p[r.argmax]) {
      r.argmax = i;
    }
  }
  for (int i = 0; i < num_samples && r.n > 0; ++i) {
    r.samples.push_back(p[static_cast<int64_t>(i) * r.n / num_samples]);
  }
  return r;
}

std::string CompareToReference(const NDArray& out, const Reference& ref) {
  // Tolerance: 1e-3 relative to each value, plus 1e-3 of the mean magnitude, so
  // values near zero do not demand more precision than the output carries.
  constexpr double kRtol = 1e-3;
  Reference got = Summarize(out, static_cast<int>(ref.samples.size()));
  if (got.n != ref.n) {
    return "element count " + std::to_string(got.n) + " != " + std::to_string(ref.n);
  }
  const double scale = ref.n > 0 ? ref.abs_sum / static_cast<double>(ref.n) : 0;
  auto close = [&](double a, double b, double mag) {
    return std::isfinite(a) && std::fabs(a - b) <= kRtol * (std::fabs(b) + mag);
  };
  if (!close(got.sum, ref.sum, ref.abs_sum) || !close(got.abs_sum, ref.abs_sum, 0) ||
      !close(got.weighted, ref.weighted, 97 * ref.abs_sum)) {
    return "sum " + Num(got.sum) + " / abs sum " + Num(got.abs_sum) + " / weighted " +
           Num(got.weighted) + " vs " + Num(ref.sum) + " / " + Num(ref.abs_sum) + " / " +
           Num(ref.weighted);
  }
  if (got.argmax != ref.argmax) {
    return "argmax " + std::to_string(got.argmax) + " vs " + std::to_string(ref.argmax);
  }
  for (size_t i = 0; i < ref.samples.size(); ++i) {
    if (!close(got.samples[i], ref.samples[i], scale)) {
      return "sample " + std::to_string(i) + ": " + Num(got.samples[i]) + " vs " +
             Num(ref.samples[i]);
    }
  }
  return "";
}

// Text format, one model per line: name n sum abs_sum argmax weighted, then the
// samples; '#' starts a comment line.
std::unordered_map<std::string, Reference> LoadReferences(const std::string& path) {
  std::unordered_map<std::string, Reference> refs;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string name;
    Reference r;
    ls >> name >> r.n >> r.sum >> r.abs_sum >> r.argmax >> r.weighted;
    double v = 0;
    while (ls >> v) {
      r.samples.push_back(v);
    }
    refs[name] = r;
  }
  return refs;
}

void SaveReferences(const std::string& path,
                    const std::vector<std::pair<std::string, Reference>>& refs) {
  std::ofstream os(path);
  os << "# Interp-tier outputs of the zoo models on the fixed verification input\n"
        "# (seed 0x5eed0f0e), written by `perfbench --make-reference`.\n"
        "# name elements sum abs_sum argmax weighted samples...\n";
  for (const auto& kv : refs) {
    const Reference& r = kv.second;
    os << kv.first << ' ' << r.n << ' ' << Num(r.sum) << ' ' << Num(r.abs_sum) << ' '
       << r.argmax << ' ' << Num(r.weighted);
    for (double v : r.samples) {
      os << ' ' << Num(v);
    }
    os << '\n';
  }
}

}  // namespace perfbench
