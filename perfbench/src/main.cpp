// Repository benchmark driver.
//
//   ssr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--node-bin PATH] [--out-dir DIR]
//
// Workloads: sim-silent, sim-recovery, sim-services, udp-services. The last
// line of standard output is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Any failed correctness check makes the run incorrect and
// the exit code 1; usage errors exit 2.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: ssr_perfbench --workload "
               "sim-silent|sim-recovery|sim-services|udp-services --seed N "
               "--seconds S --trace 0|1 [--node-bin PATH] [--out-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return usage("bad --seed");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || opt.seconds <= 0) {
        return usage("bad --seconds");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--node-bin") {
      opt.node_binary = v;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }

  perfbench::Outcome out;
  if (opt.workload == "sim-silent" || opt.workload == "sim-recovery" ||
      opt.workload == "sim-services") {
    out = perfbench::run_sim_workload(opt);
  } else if (opt.workload == "udp-services") {
    if (opt.node_binary.empty()) return usage("udp-services needs --node-bin");
    out = perfbench::run_udp_workload(opt);
  } else {
    return usage("unknown --workload");
  }
  perfbench::print_outcome(opt, out);
  return out.errors.empty() ? 0 : 1;
}
