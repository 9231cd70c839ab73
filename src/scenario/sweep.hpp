#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/backend.hpp"
#include "util/histogram.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ssr::scenario {

/// One unit of sweep work: a (spec, seed) pair, which names exactly one
/// execution. The spec is copied so jobs share nothing — two jobs built
/// from the same library entry still own independent data.
struct SweepJob {
  ScenarioSpec spec;
  std::uint64_t seed = 0;
};

struct SweepOptions {
  /// Worker threads (clamped to >= 1). Each worker runs whole jobs, each in
  /// fully isolated Worlds (one per shard); nothing below the harvest
  /// queue is shared, so --jobs=N is byte-identical to --jobs=1.
  std::size_t jobs = 1;
  /// When non-empty: one trace file per job is written here, named
  /// "<index>-<scenario>-seed<seed>.trace". The submission index prefixes
  /// the name so no two jobs can ever collide on a path, even if the same
  /// (spec, seed) pair is submitted twice. Sharded jobs (shards > 1)
  /// record nothing: their K traces make no one stream.
  std::string record_dir;
};

/// Everything a finished sweep reports. `results` is in submission order
/// regardless of which worker finished when — the deterministic contract
/// the jobs=1-vs-jobs=N property test pins.
struct SweepSummary {
  std::vector<ScenarioResult> results;  // submission order
  bool ok = false;            // every job ran clean
  std::size_t failed = 0;     // jobs with !ok
  /// Per-job latency histograms merged bucket-wise (exact aggregation;
  /// averaging per-run percentiles would not be).
  util::LatencyHistogram op_latency;
  double wall_ms = 0;
  /// Slowest worker's thread CPU seconds — the capacity-per-core number
  /// BM_SweepThroughput normalizes by (0 where unsupported).
  double max_worker_cpu_sec = 0;

  std::string summary() const;
};

/// Executes independent (spec, seed) jobs on a fixed-size thread pool.
///
/// Design notes, in decreasing order of importance:
///  * Determinism. A job's execution depends only on its (spec, seed) pair:
///    every random draw flows from the World seeded with the job seed, the
///    wire::BufferPool and the TraceRecorder segment pool are thread-local
///    (recycled memory is rewritten before it is read), and the repo keeps
///    no mutable globals in the node stack (the only function-local statics
///    are the const scenario library and const sentinels — audited,
///    see DESIGN note in sweep.cpp). Hence a parallel sweep produces
///    byte-identical per-job trace hashes to a serial one.
///  * Harvest. Workers publish finished results into a mutex-guarded queue
///    (thread-safety-annotated; the TSan CI job race-checks it); run()
///    drains the queue into submission-order slots after the join.
///  * Isolation. Per-job record files embed the submission index, and each
///    job's RNG stream derivation is its own seed — no two concurrent jobs
///    share a work path or an RNG stream.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opt);

  /// Enqueues one (spec, seed) job. Submission order is report order.
  void add(const ScenarioSpec& spec, std::uint64_t seed);
  /// Enqueues the inclusive seed range [first, last] for one spec.
  void add_seed_range(const ScenarioSpec& spec, std::uint64_t first,
                      std::uint64_t last);

  std::size_t job_count() const { return jobs_.size(); }

  /// Runs every job and returns the deterministic summary. Call once.
  SweepSummary run();

 private:
  struct Harvested {
    std::size_t index = 0;  // submission index
    ScenarioResult result;
  };

  /// Worker loop: pull the next unclaimed index, run it fully isolated,
  /// publish to the harvest queue.
  void work();
  ScenarioResult run_job(const SweepJob& job, std::size_t index) const;

  SweepOptions opt_;
  std::vector<SweepJob> jobs_;

  util::Mutex mu_;
  std::size_t next_ SSR_GUARDED_BY(mu_) = 0;
  std::vector<Harvested> harvested_ SSR_GUARDED_BY(mu_);
  /// Thread CPU seconds burned by each worker over its whole loop, measured
  /// on the worker itself — max over these is SweepSummary::max_worker_cpu_sec.
  std::vector<double> worker_cpu_ SSR_GUARDED_BY(mu_);
};

/// Convenience: sweep `specs` × seeds [first, last] at `jobs` workers.
SweepSummary run_sweep(const std::vector<ScenarioSpec>& specs,
                       std::uint64_t first_seed, std::uint64_t last_seed,
                       std::size_t jobs);

}  // namespace ssr::scenario
