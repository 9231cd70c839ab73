#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "node/status.hpp"
#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"
#include "util/histogram.hpp"
#include "util/types.hpp"

namespace ssr::scenario {

/// Outcome of one scenario execution, shared by every backend. Simulator
/// runs fill the determinism fields (trace_hash, sched_events, pool_*);
/// process runs leave them at their sim-only defaults and report wall time
/// through sim_time.
struct ScenarioResult {
  std::string name;
  std::uint64_t seed = 0;
  /// Every await met its deadline and the invariant registry is clean.
  bool ok = false;
  /// First await that missed its deadline (empty when all met).
  std::string failure;
  std::uint64_t trace_hash = 0;
  std::size_t trace_events = 0;
  /// Virtual time under the simulator; wall time under the process backend.
  SimTime sim_time = 0;
  /// Scheduler events executed during the run — the unit bench_scenarios
  /// reports as events/sec. Simulator only.
  std::uint64_t sched_events = 0;
  /// Fabric totals summed over every channel (sim) or every transport
  /// (process) at the end of the run.
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  /// wire::BufferPool activity during the run (deltas of the thread pool):
  /// acquired = payload buffers requested, reused = served from the
  /// freelist. reused/acquired ≈ 1 is the zero-allocation steady state.
  /// Simulator only.
  std::uint64_t pool_acquired = 0;
  std::uint64_t pool_reused = 0;
  /// Client-op latency over every workload action (increments + register
  /// ops): completed-op count and p50/p99 in microseconds (virtual time
  /// under the simulator, wall time under the process backend). Zero when
  /// the scenario drives no workload.
  std::uint64_t ops_completed = 0;
  std::uint64_t op_p50_us = 0;
  std::uint64_t op_p99_us = 0;
  /// The full latency histogram behind the percentiles above, so sweep
  /// aggregation can merge bucket counts across runs (summing buckets is
  /// exact; averaging per-run percentiles is not).
  util::LatencyHistogram op_latency;
  /// UDP syscall batching, summed over the fleet's final STATUS samples
  /// (process backend only; the simulator makes no syscalls): sendmmsg +
  /// recvmmsg invocations, and datagrams that shared a send syscall with at
  /// least one other. batched/sent close to 1 means the ring is doing its
  /// job; syscalls well below packets_sent+packets_delivered is the win.
  std::uint64_t net_syscalls = 0;
  std::uint64_t net_batched = 0;
  std::vector<InvariantRegistry::Violation> violations;

  /// Sharded runs only: each shard's result, in shard order, and the
  /// router's ledger (aborts split by whether the op's shard was paused).
  /// Above, ops_completed counts routed ops, trace_events/sim_time/
  /// op_latency sum, max and merge the shards', trace_hash folds theirs;
  /// the other counters stay per shard.
  std::vector<ScenarioResult> shards;
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_aborted_faulted = 0;
  std::uint64_t ops_aborted_healthy = 0;
  std::uint64_t ops_redirected = 0;

  std::string summary() const;
};

/// One way of executing a ScenarioSpec. The scenario interpreter lives here,
/// once: apply() turns each Action into calls on a small set of fleet
/// primitives and owns every rule the backends share (closure windows end
/// on churn and faults, a reboot is a crash plus a fresh id, the halves of
/// split_config_state, the await/failure/trace records). Two fleets
/// implement the primitives:
///  * ScenarioRunner  — the deterministic in-process simulator;
///  * ProcessRunner   — one real ssr_node OS process per node on localhost
///    UDP, with faults injected through OS primitives (signals, dropped
///    datagrams) and a control socket.
/// Both evaluate the same InvariantRegistry, so a scenario written once
/// runs under either harness with the same meaning.
///
/// A run has three stages, exposed so a driver owning several backends
/// (shard::ShardedRunner, one backend per shard of a sharded spec) can
/// interleave their scripts: run() is exactly bootstrap(), then every phase
/// action through step(), then finish().
class ScenarioBackend {
 public:
  virtual ~ScenarioBackend() = default;

  /// Runs every phase, then evaluates the invariant registry. Call once.
  ScenarioResult run();

  /// Brings up the initial cohort. Returns false (with the failure
  /// recorded) when it could not.
  virtual bool bootstrap() = 0;
  /// Records one action in the trace and applies it. No-op once failed.
  /// `anchor_us` (a util/wallclock steady_usec() instant, 0 = none) starts
  /// the budgets of run_for and the awaits at that instant rather than at
  /// this call: a driver stepping one action into several backends that
  /// run concurrently in real time anchors them all at once, so their
  /// budgets overlap instead of adding up. Virtual-time backends ignore it.
  void step(const Action& a, std::uint64_t anchor_us = 0);
  /// Final harvest + invariant evaluation; call once, after the last step.
  ScenarioResult finish();

  bool failed() const { return failed_; }
  const std::string& failure() const { return failure_; }
  /// Completed client ops so far — a driver diffs this across a step() to
  /// judge whether one routed attempt completed.
  std::uint64_t ops_completed() const { return op_latency_.count(); }
  /// One observation round; true when every node answered.
  virtual bool sample() = 0;
  /// The converged() predicate over the latest observation.
  bool converged_sampled() const { return agreed_config().has_value(); }
  virtual IdSet alive_ids() const = 0;
  /// Latest believed membership for client routing: the common
  /// configuration when there is one, else the alive set.
  IdSet routing_config() const {
    return agreed_config().value_or(alive_ids());
  }

  TraceRecorder& trace() { return trace_; }
  InvariantRegistry& invariants() { return *registry_; }

 protected:
  ScenarioBackend(ScenarioSpec spec, std::uint64_t seed)
      : spec_(std::move(spec)), seed_(seed) {}

  // -- Fleet primitives: all that apply() drives ---------------------------
  // Durations are the spec's; a wall-clock fleet scales them itself.

  /// Starts a node under the next fresh id and records kNodeAdded.
  virtual NodeId add_node() = 0;
  /// Crash-stops `id`; false when there was nothing to stop.
  virtual bool crash_node(NodeId id) = 0;
  /// Freezes / unfreezes `id`; false when the call did not apply.
  virtual bool pause_node(NodeId id) = 0;
  virtual bool resume_node(NodeId id) = 0;
  /// Blocks traffic between the two groups; heal() removes every block.
  virtual void split(const IdSet& a, const IdSet& b) = 0;
  virtual void heal() = 0;
  /// One per-node state fault at `id`: corrupt_recsa, corrupt_fd,
  /// plant_exhausted_counter or plant_recma_flags (see inject_node_fault).
  virtual void inject(const Action& a, NodeId id) = 0;
  /// Makes `id` believe the configuration `ids`.
  virtual void plant_config(NodeId id, const IdSet& ids) = 0;
  virtual void garbage_channels(std::uint64_t per_channel) = 0;
  /// Client workloads: each records its own completions.
  virtual void increment_burst(const Action& a) = 0;
  virtual void shmem_ops(const Action& a, bool write) = 0;
  virtual void run_for(SimTime d) = 0;
  /// Runs until `pred` holds or `d` elapses; true iff it held in time.
  virtual bool await(SimTime d, const std::function<bool()>& pred) = 0;
  /// With every node crashed: true when the fleet goes silent within `d`.
  virtual bool drained(SimTime d) = 0;
  /// The latest status of every alive node, in id order (no new sampling).
  /// A node that has not answered yet reports a default node::Status,
  /// which satisfies no predicate. Valid until the next call.
  virtual std::span<const node::Status> statuses() const = 0;

  /// Pulls in late completions and fills the backend-specific result
  /// fields; finish() adds the shared ones afterwards.
  virtual void settle(ScenarioResult& r) = 0;

  /// Fails the run (first failure wins), prefixed with the kind of the
  /// action being applied, if any.
  void fail(const std::string& detail);
  IdSet targets_or_alive(const Action& a) const {
    return a.targets.empty() ? alive_ids() : a.targets;
  }

  ScenarioSpec spec_;
  std::uint64_t seed_;
  TraceRecorder trace_;
  std::unique_ptr<InvariantRegistry> registry_;
  bool failed_ = false;
  std::string failure_;
  /// Client-op latencies across every workload action.
  util::LatencyHistogram op_latency_;
  /// The current step's anchor_us (0 outside an anchored step).
  std::uint64_t anchor_us_ = 0;

 private:
  /// The scenario interpreter: one Action onto the fleet primitives.
  void apply(const Action& a);
  std::optional<IdSet> agreed_config() const {
    return node::agreed_config(statuses());
  }

  /// The action step() is applying (null outside a step).
  const Action* applying_ = nullptr;
};

/// Builds the backend for one single-group run. `shard_tag` is nonzero for
/// one shard of a sharded spec; process fleets stamp it into each envelope.
using BackendFactory = std::function<std::unique_ptr<ScenarioBackend>(
    const ScenarioSpec& spec, std::uint64_t seed, std::uint32_t shard_tag)>;

/// The one choice of runner: shards > 1 runs shard::ShardedRunner over one
/// backend per shard, else make_backend(spec)->run(). `inspect`, when set,
/// sees every backend after its finish(), before it is destroyed.
ScenarioResult run_spec(
    const ScenarioSpec& spec, std::uint64_t seed,
    const BackendFactory& make_backend,
    const std::function<void(ScenarioBackend&)>& inspect = nullptr);

}  // namespace ssr::scenario
