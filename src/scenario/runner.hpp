#pragma once

#include <memory>
#include <string>

#include "harness/fault_injector.hpp"
#include "harness/world.hpp"
#include "scenario/backend.hpp"
#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"
#include "util/histogram.hpp"

namespace ssr::scenario {

/// Interprets a ScenarioSpec against a fresh World on the deterministic
/// scheduler. One (spec, seed) pair names exactly one execution: the same
/// pair always produces a byte-identical trace (and therefore hash).
class ScenarioRunner final : public ScenarioBackend {
 public:
  ScenarioRunner(ScenarioSpec spec, std::uint64_t seed);

  /// Adds the initial cohort; always succeeds.
  bool bootstrap() override;
  /// Nothing to poll: the world is observed directly.
  bool sample() override { return true; }
  bool converged_sampled() const override { return world_->converged(); }
  IdSet alive_ids() const override { return world_->alive(); }
  IdSet routing_config() const override;

  harness::World& world() { return *world_; }

 private:
  void apply(const Action& a) override;
  void settle(ScenarioResult& r) override;
  NodeId add_fresh_node();
  /// Alive and not paused: a stopped process takes no commands.
  bool accepts_ops(NodeId id) const;

  /// Runs until `pred` holds, polling every `step`; true iff met in time.
  template <class Pred>
  bool await(SimTime timeout, Pred pred, SimTime step = 20 * kMsec) {
    const SimTime deadline = world_->scheduler().now() + timeout;
    while (world_->scheduler().now() < deadline) {
      if (pred()) return true;
      world_->run_for(step);
    }
    return pred();
  }

  void do_increment_burst(const Action& a);
  void do_shmem(const Action& a, bool write);
  void do_await_quiescent(const Action& a);
  void harvest_increments();

  /// Completion state of one increment attempt. Heap-held and captured by
  /// value in the client callback: a quorum operation can outlive the
  /// action that started it, and its callback must still have somewhere
  /// safe to write.
  struct PendingIncrement {
    SimTime started = 0;
    bool done = false;
    std::optional<counter::Counter> got;
  };

  /// Buffer-pool counters at construction, for per-run deltas.
  wire::BufferPool::Stats pool_at_start_;
  std::unique_ptr<harness::World> world_;
  std::unique_ptr<harness::FaultInjector> injector_;
  NodeId next_id_ = 1;
  /// Nodes stopped by kPauseNodes and not yet resumed.
  IdSet paused_;
  /// Attempts whose await timed out with the operation still in flight;
  /// re-harvested at every burst and once more before check_all().
  std::vector<std::pair<NodeId, std::shared_ptr<PendingIncrement>>>
      outstanding_;
};

/// Convenience: build, run, and summarize in one call.
ScenarioResult run_scenario(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace ssr::scenario
