#pragma once

// The one multi-shard runner. A sharded spec is a scenario::ScenarioSpec
// with shards > 1: K independent quorum groups, each running the paper's
// full stack, behind one client Router. The runner owns one
// scenario::ScenarioBackend per shard — the parent spec with shards = 1, no
// phases and the name "<spec>/shard<s>" — and walks the spec's phases
// through their staged surface (bootstrap, step, finish). The caller's
// factory decides whether a shard is a simulated world or a fleet of
// ssr_node processes; the runner never branches on it.
//
// An action with a shard target steps into that shard; any other plain
// action steps into every shard that is not paused. Only kWorkload and
// kGrowMap are interpreted here. The keyed workload goes through the
// Router as a real client would: hash the key, address the shard's current
// configuration, retry/redirect on failure, adopt a queued map growth on
// the first failed attempt (the "epoch change under load" path). One
// routed attempt is one single-op increment_burst stepped into the owning
// backend, judged by its ops_completed() delta; a paused shard takes no
// commands, so the router rotates on at once. Each shard is judged by its
// own InvariantRegistry; on top, an op that aborts on a shard that was not
// paused is a "shard-isolation" violation.
//
// Threading: single-threaded. Process fleets are separate OS processes
// driven round-robin from one control loop.

#include <cstdint>
#include <memory>
#include <vector>

#include "scenario/backend.hpp"
#include "scenario/scenario.hpp"
#include "shard/router.hpp"

namespace ssr::shard {

class ShardedRunner {
 public:
  /// `spec.shards` backends come from `make_backend`, each with its own
  /// stream of `seed` and a nonzero shard tag.
  ShardedRunner(scenario::ScenarioSpec spec, std::uint64_t seed,
                const scenario::BackendFactory& make_backend);

  /// Runs every phase action, then finishes every shard. Call once.
  scenario::ScenarioResult run();

  /// The per-shard backends, in shard order.
  const std::vector<std::unique_ptr<scenario::ScenarioBackend>>& backends()
      const {
    return shards_;
  }

 private:
  void apply(const scenario::Action& a);
  void do_workload(const scenario::Action& a);
  bool drive_attempt(ShardId s, NodeId target);
  /// Adopts the pending grown map (kGrowMap) if one is queued; fails the
  /// run instead when the map already spans every shard.
  void adopt_pending_grow();
  /// Propagates the first shard-level failure into the run.
  void check_shards();

  scenario::ScenarioSpec spec_;
  Router router_;
  std::vector<std::unique_ptr<scenario::ScenarioBackend>> shards_;
  /// Shards with nodes stopped by the script: faulted, so all-shard steps
  /// skip them and ops aborted there do not count against isolation.
  std::vector<bool> paused_;
  bool pending_grow_ = false;
  bool failed_ = false;
  /// The run's outcome, with the workload ledger filled in as it goes.
  scenario::ScenarioResult result_;
};

}  // namespace ssr::shard
