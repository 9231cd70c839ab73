#pragma once

// The one multi-shard runner. It owns K scenario::ScenarioBackends — one
// per shard, each a complete single-group run — and drives them through
// their staged surface (bootstrap, step, finish). It never branches on the
// backend: the caller's factory decides whether a shard is a simulated
// world or a fleet of ssr_node processes.
//
// The keyed workload goes through the client Router exactly as a real
// client would: hash the key, address the shard's current configuration,
// retry/redirect on failure, adopt a queued map growth lazily on the first
// failed attempt (the "epoch change under load" path). One routed attempt
// is one single-op increment_burst stepped into the owning backend, judged
// by that backend's ops_completed() delta. A paused target takes no
// commands, so an attempt on a paused shard fails at once and the router
// rotates on.
//
// Threading: single-threaded. Process fleets are separate OS processes
// driven round-robin from one control loop, so there is no shared
// in-process state to guard.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scenario/backend.hpp"
#include "shard/router.hpp"
#include "shard/sharded_scenario.hpp"

namespace ssr::shard {

class ShardedRunner {
 public:
  /// Builds one shard's backend. `fleet` is the shard's plain spec (named
  /// "<spec>/shard<s>", nodes_per_shard initial nodes, no phases), `seed`
  /// its own stream of the run seed, and `tag` its nonzero shard tag, which
  /// process fleets stamp into every envelope.
  using BackendFactory =
      std::function<std::unique_ptr<scenario::ScenarioBackend>(
          const scenario::ScenarioSpec& fleet, std::uint64_t seed,
          std::uint32_t tag)>;

  ShardedRunner(ShardedSpec spec, std::uint64_t seed,
                const BackendFactory& make_backend);

  /// Runs every step, then finishes every shard. Call once.
  ShardedResult run();

 private:
  void apply(const ShardedStep& st);
  void do_workload(const ShardedStep& st);
  bool drive_attempt(ShardId s, NodeId target);
  /// Adopts the pending grown map (kGrowMap) if one is queued.
  void adopt_pending_grow();
  /// Propagates the first shard-level failure into the run.
  void check_shards();

  ShardedSpec spec_;
  Router router_;
  std::vector<std::unique_ptr<scenario::ScenarioBackend>> shards_;
  /// Shards with nodes stopped by the script: faulted, so all-shard steps
  /// skip them and ops aborted there do not count against isolation.
  std::vector<bool> paused_;
  bool pending_grow_ = false;
  bool failed_ = false;
  /// The run's outcome, with the workload ledger filled in as it goes.
  ShardedResult result_;
};

}  // namespace ssr::shard
