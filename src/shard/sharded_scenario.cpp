#include "shard/sharded_scenario.hpp"

#include <sstream>

namespace ssr::shard {

std::string ShardedResult::summary() const {
  std::ostringstream os;
  os << name << " [seed " << seed << "]: " << (ok ? "OK" : "FAIL");
  os << " shards=" << per_shard.size();
  os << " ops=" << ops_completed << "/" << ops_attempted;
  if (ops_aborted_faulted != 0 || ops_aborted_healthy != 0) {
    os << " aborted(faulted=" << ops_aborted_faulted
       << " healthy=" << ops_aborted_healthy << ")";
  }
  if (ops_redirected != 0) os << " redirects=" << ops_redirected;
  if (!failure.empty()) os << " — " << failure;
  for (const auto& shard : per_shard) {
    for (const auto& v : shard.violations) {
      os << "\n  " << shard.name << " " << v.invariant << ": " << v.message;
    }
  }
  return os.str();
}

const std::vector<ShardedSpec>& sharded_library() {
  static const std::vector<ShardedSpec> lib = [] {
    using A = scenario::Action;
    using S = ShardedStep;
    // Every node of a fresh 3-node fleet: what pausing a whole shard stops.
    const IdSet fleet = {1, 2, 3};
    std::vector<ShardedSpec> v;

    {
      // Acceptance scenario 1: K shards bootstrap from nothing, then one
      // keyed workload spreads over all of them through the router.
      ShardedSpec s;
      s.name = "sharded-bootstrap";
      s.description =
          "3 shards x 3 nodes bootstrap independently; a keyed increment "
          "workload routes across all shards and every shard converges";
      s.shards = 3;
      s.steps = {
          S::on_all(A::await_converged(90 * kSec)),
          S::on_all(A::mark_stable()),
          S::workload(18, "boot"),
          S::on_all(A::await_converged(60 * kSec)),
      };
      v.push_back(std::move(s));
    }

    {
      // Acceptance scenario 2: faults in two shards at once — a crash that
      // forces a reconfiguration in shard 0 and a full stall of shard 1 —
      // while shard 2 stays marked stable. Keyed ops on shards 0 and 2 must
      // complete during the fault window; ops on the stalled shard may give
      // up (bounded by the router's retry budget) without failing the run.
      ShardedSpec s;
      s.name = "sharded-fault-isolation";
      s.description =
          "crash in shard 0 + full stall of shard 1; shards 0 and 2 keep "
          "serving the workload and shard 2 never reconfigures";
      s.shards = 3;
      s.steps = {
          S::on_all(A::await_converged(90 * kSec)),
          S::on_all(A::mark_stable()),
          S::workload(9, "pre"),
          S::on_shard(0, A::crash({1})),
          S::on_shard(1, A::pause_nodes(fleet)),
          // Give shard 0 room to replace the crashed member before keyed
          // traffic returns; shard 1 stays stalled through the workload.
          S::on_all(A::run_for(30 * kSec)),
          S::workload(18, "mid"),
          S::on_shard(1, A::resume_nodes(fleet)),
          S::on_all(A::await_converged(150 * kSec)),
          S::workload(9, "post"),
      };
      v.push_back(std::move(s));
    }

    {
      // Acceptance scenario 3: shard-map epoch change under load. The run
      // starts with a 2-shard map over 3 fleets (fleet 2 idle), stalls the
      // map's most-loaded shard, then grows the map mid-workload: the first
      // failed attempt adopts the epoch-2 map, and keys whose slots moved
      // are redirected to the fresh shard and complete there.
      ShardedSpec s;
      s.name = "sharded-map-growth";
      s.description =
          "grow a 2-shard map to 3 shards while shard 0 is stalled; "
          "redirected keys complete on the fresh shard";
      s.shards = 3;
      s.initial_map_shards = 2;
      s.steps = {
          S::on_all(A::await_converged(90 * kSec)),
          S::workload(12, "pre"),
          // uniform(2)'s most-loaded shard is shard 0 (ties break low), and
          // with_shard_added() steals exactly its slots first — so stalling
          // shard 0 guarantees some mid-workload redirects land on the
          // fresh shard.
          S::on_shard(0, A::pause_nodes(fleet)),
          S::grow_map(),
          S::workload(18, "grow"),
          S::on_shard(0, A::resume_nodes(fleet)),
          S::on_all(A::await_converged(150 * kSec)),
          S::workload(9, "post"),
      };
      v.push_back(std::move(s));
    }

    return v;
  }();
  return lib;
}

std::optional<ShardedSpec> find_sharded_scenario(const std::string& name) {
  for (const ShardedSpec& s : sharded_library()) {
    if (s.name == name) return s;
  }
  return std::nullopt;
}

}  // namespace ssr::shard
