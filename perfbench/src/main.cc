// perfbench: one workload per process.
//
//   perfbench --workload zoo_native|zoo_vm|serve_mix --seed N --seconds S --trace 0|1
//             [--smoke] [--trace-file PATH] [--reference PATH]
//   perfbench --make-reference PATH
//
// TVMCPP_NATIVE_CACHE must name a private, empty directory (perfbench/run.py makes
// one per run and removes it). The last line of stdout is the result as JSON.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/src/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload zoo_native|zoo_vm|serve_mix --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-file PATH] [--reference PATH]\n"
               "       perfbench --make-reference PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string make_reference;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      o.workload = argv[++i];
    } else if (arg == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-file") {
      o.trace_file = argv[++i];
    } else if (arg == "--reference") {
      o.reference_file = argv[++i];
    } else if (arg == "--make-reference") {
      make_reference = argv[++i];
    } else {
      return Usage();
    }
  }
  try {
    perfbench::MakeHermetic();
    if (!make_reference.empty()) {
      perfbench::MakeZooReferences(make_reference);
      return 0;
    }
    perfbench::Result r;
    if (o.workload == "zoo_native" || o.workload == "zoo_vm") {
      r = perfbench::RunZoo(o, o.workload == "zoo_native");
    } else if (o.workload == "serve_mix") {
      r = perfbench::RunServeMix(o);
    } else {
      return Usage();
    }
    r.WriteJson(o.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
