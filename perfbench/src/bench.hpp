#pragma once

// Shared types of the repository benchmark: command-line options, the
// per-run metric report, and the workload entry points.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// ssr_node binary for the process-backed workload.
  std::string node_binary;
  /// Where run artefacts go (span dumps, daemon scratch dirs). Relative to
  /// the working directory, which is the checkout root.
  std::string out_dir = ".bench_build/out";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one invocation reports. `end_to_end` is printed with tracing
/// off, `per_layer` with tracing on; `errors` lists every failed correctness
/// check (empty = correct).
struct Outcome {
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(std::string name, double v, std::string unit) {
    end_to_end.push_back(Metric{std::move(name), v, std::move(unit)});
  }
  void layer(std::string name, double v, std::string unit) {
    per_layer.push_back(Metric{std::move(name), v, std::move(unit)});
  }
};

// -- Statistics helpers (report.cpp) ------------------------------------------

/// Exact percentile (nearest-rank, p in [0, 100]) of unsorted samples;
/// 0 for an empty set.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double ratio(double num, double den);

/// Wall and CPU clocks.
double wall_now_s();
double cpu_now_s();
/// Peak resident set of this process, MiB.
double self_peak_rss_mb();
/// Largest peak resident set among this process's live children named
/// `comm`, MiB.
double children_peak_rss_mb(const std::string& comm);
/// CPU seconds of every reaped child.
double children_cpu_s();

/// Prints the human-readable table and the final JSON line.
void print_outcome(const Options& opt, const Outcome& out);

// -- Workloads ----------------------------------------------------------------

/// sim-silent, sim-recovery, sim-services (sim_workloads.cpp).
Outcome run_sim_workload(const Options& opt);
/// udp-services (udp_workload.cpp).
Outcome run_udp_workload(const Options& opt);

/// Stream seed for repetition `rep` of a run seeded `seed`.
inline std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t rep) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + rep + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) | 1;
}

}  // namespace perfbench
