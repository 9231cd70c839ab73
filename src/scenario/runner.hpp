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

/// The simulator fleet: ScenarioBackend's primitives over a fresh World on
/// the deterministic scheduler. One (spec, seed) pair names exactly one
/// execution: the same pair always produces a byte-identical trace (and
/// therefore hash).
class ScenarioRunner final : public ScenarioBackend {
 public:
  ScenarioRunner(ScenarioSpec spec, std::uint64_t seed);

  /// Adds the initial cohort; always succeeds.
  bool bootstrap() override;
  /// Nothing to poll: the world is observed directly.
  bool sample() override { return true; }
  IdSet alive_ids() const override { return world_->alive(); }

  harness::World& world() { return *world_; }

 private:
  NodeId add_node() override;
  bool crash_node(NodeId id) override {
    world_->crash(id);
    return true;
  }
  bool pause_node(NodeId id) override;
  bool resume_node(NodeId id) override;
  void split(const IdSet& a, const IdSet& b) override {
    world_->network().split(a, b);
  }
  void heal() override { world_->network().heal(); }
  void inject(const Action& a, NodeId id) override;
  void plant_config(NodeId id, const IdSet& ids) override;
  void garbage_channels(std::uint64_t per_channel) override {
    injector_->fill_channels_with_garbage(per_channel);
  }
  void increment_burst(const Action& a) override;
  void shmem_ops(const Action& a, bool write) override;
  void run_for(SimTime d) override { world_->run_for(d); }
  bool await(SimTime d, const std::function<bool()>& pred) override {
    return poll(d, pred);
  }
  bool drained(SimTime d) override;
  std::span<const node::Status> statuses() const override {
    return world_->statuses();
  }
  void settle(ScenarioResult& r) override;

  /// Alive and not paused: a stopped process takes no commands.
  bool accepts_ops(NodeId id) const;

  /// Runs until `pred` holds, polling every `step`; true iff met in time.
  template <class Pred>
  bool poll(SimTime timeout, Pred pred, SimTime step = 20 * kMsec) {
    return world_->run_until(pred, timeout, step).has_value();
  }

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

/// The simulator's BackendFactory: a ScenarioRunner over a fresh World (one
/// world needs no shard tag).
std::unique_ptr<ScenarioBackend> make_sim_backend(const ScenarioSpec& spec,
                                                  std::uint64_t seed,
                                                  std::uint32_t shard_tag);

/// Convenience: run_spec on the simulator, sharded specs included.
ScenarioResult run_scenario(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace ssr::scenario
