#pragma once

// Multi-shard scenario model: K independent quorum groups (shards), each
// running the paper's full self-stabilizing reconfiguration stack, driven
// by one keyed workload through the client Router. A sharded scenario is a
// single sequence of shard-aware steps; per-shard correctness is judged
// by the same InvariantRegistry machinery as single-shard scenarios, and a
// cross-shard isolation invariant on top: faults injected into one shard
// must not stall convergence or workload progress in any other shard.
//
// A sharded run is K ordinary single-group runs plus a client router:
// shard::ShardedRunner drives one scenario::ScenarioBackend per shard, so
// the same script runs on K simulated worlds or K disjoint ssr_node fleets.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/backend.hpp"
#include "scenario/scenario.hpp"
#include "shard/shard_map.hpp"
#include "util/types.hpp"

namespace ssr::shard {

/// One step of a sharded script. Whatever one fleet can do on its own is
/// a plain scenario::Action addressed to one shard or to every shard; only
/// the keyed workload and the map growth span shards.
struct ShardedStep {
  enum class Kind {
    kAction,    // `action` on `shard`, or on every shard not paused
    kWorkload,  // n keyed increments routed through the Router
    kGrowMap,   // router adopts map().with_shard_added()
  };
  static constexpr ShardId kAllShards = ~ShardId{0};

  Kind kind = Kind::kAction;
  ShardId shard = kAllShards;
  scenario::Action action;
  std::uint64_t n = 0;
  std::string key_prefix;

  static ShardedStep on_shard(ShardId s, scenario::Action a) {
    return {Kind::kAction, s, std::move(a), 0, {}};
  }
  static ShardedStep on_all(scenario::Action a) {
    return {Kind::kAction, kAllShards, std::move(a), 0, {}};
  }
  static ShardedStep workload(std::uint64_t n, std::string key_prefix) {
    return {Kind::kWorkload, kAllShards, {}, n, std::move(key_prefix)};
  }
  static ShardedStep grow_map() {
    return {Kind::kGrowMap, kAllShards, {}, 0, {}};
  }
};

struct ShardedSpec {
  std::string name;
  std::string description;
  /// Shard fleets instantiated (each one full protocol stack).
  std::uint32_t shards = 2;
  /// Shards covered by the initial ShardMap; 0 ⇒ all of them. Setting it
  /// below `shards` leaves the tail fleets idle until kGrowMap routes
  /// traffic to them (the shard-map epoch-change scenario).
  std::uint32_t initial_map_shards = 0;
  std::size_t nodes_per_shard = 3;
  std::vector<ShardedStep> steps;

  std::uint32_t map_shards() const {
    return initial_map_shards == 0 ? shards : initial_map_shards;
  }
};

/// Outcome of one sharded execution. `per_shard[s]` carries shard s's own
/// invariant verdict (violations, latency, event counts) in the familiar
/// ScenarioResult shape; the top-level fields aggregate the run.
struct ShardedResult {
  std::string name;
  std::uint64_t seed = 0;
  bool ok = false;
  std::string failure;
  std::vector<scenario::ScenarioResult> per_shard;
  /// Workload accounting for the isolation invariant: ops attempted /
  /// completed overall, and aborted ops split by whether their shard was
  /// faulted when they gave up (aborts on healthy shards fail the run).
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t ops_aborted_faulted = 0;
  std::uint64_t ops_aborted_healthy = 0;
  /// Redirects observed after kGrowMap epoch changes.
  std::uint64_t ops_redirected = 0;

  std::string summary() const;
};

/// The multi-shard scenario library: bootstrap, fault isolation, and
/// shard-map growth under load.
const std::vector<ShardedSpec>& sharded_library();
std::optional<ShardedSpec> find_sharded_scenario(const std::string& name);

}  // namespace ssr::shard
