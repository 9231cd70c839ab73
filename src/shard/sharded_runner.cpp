#include "shard/sharded_runner.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/wallclock.hpp"

namespace ssr::shard {

ShardedRunner::ShardedRunner(scenario::ScenarioSpec spec, std::uint64_t seed,
                             const scenario::BackendFactory& make_backend)
    : spec_(std::move(spec)),
      router_(ShardMap::uniform(spec_.initial_map_shards == 0
                                    ? spec_.shards
                                    : spec_.initial_map_shards)),
      paused_(spec_.shards, false) {
  result_.name = spec_.name;
  result_.seed = seed;
  // Every shard runs the parent spec's stack options on its own fleet.
  scenario::ScenarioSpec fleet = spec_;
  fleet.shards = 1;
  fleet.initial_map_shards = 0;
  fleet.phases.clear();
  for (std::uint32_t s = 0; s < spec_.shards; ++s) {
    fleet.name = spec_.name + "/shard" + std::to_string(s);
    // A distinct, seed-derived stream per shard keeps the shards
    // statistically independent while the whole run replays from one seed.
    // Tags start at 1: 0 is the untagged default, and a fleet must never
    // accept a stray datagram from an untagged sender either.
    shards_.push_back(
        make_backend(fleet, seed + 0x9E3779B97F4A7C15ULL * (s + 1), s + 1));
  }
}

void ShardedRunner::check_shards() {
  if (failed_) return;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->failed()) {
      failed_ = true;
      result_.failure = "shard " + std::to_string(s) + ": " +
                        shards_[s]->failure();
      return;
    }
  }
}

void ShardedRunner::adopt_pending_grow() {
  if (!pending_grow_) return;
  pending_grow_ = false;
  if (router_.map().shard_count() >= shards_.size()) {
    // The grown map would route keys to a fleet that does not exist.
    failed_ = true;
    result_.failure = "grow_map: the map already spans every shard";
    return;
  }
  router_.adopt(router_.map().with_shard_added());
}

scenario::ScenarioResult ShardedRunner::run() {
  // Bring every shard up front; process fleets then all run concurrently
  // in real time.
  for (auto& shard : shards_) {
    if (!shard->bootstrap()) break;
  }
  check_shards();
  for (const scenario::Phase& phase : spec_.phases) {
    for (const scenario::Action& a : phase.actions) {
      if (failed_) break;
      apply(a);
      check_shards();
    }
  }

  scenario::ScenarioResult& r = result_;
  r.trace_hash = scenario::TraceRecorder::kFnvBasis;
  bool shards_ok = true;
  for (auto& shard : shards_) {
    scenario::ScenarioResult pr = shard->finish();
    pr.seed = r.seed;
    shards_ok = shards_ok && pr.ok;
    if (!pr.failure.empty() && r.failure.empty()) {
      r.failure = pr.name + ": " + pr.failure;
    }
    r.trace_hash = scenario::TraceRecorder::mix(r.trace_hash, pr.trace_hash);
    r.trace_events += pr.trace_events;
    r.sim_time = std::max(r.sim_time, pr.sim_time);
    r.op_latency.merge(pr.op_latency);
    r.shards.push_back(std::move(pr));
  }
  r.op_p50_us = r.op_latency.percentile(50);
  r.op_p99_us = r.op_latency.percentile(99);
  // The cross-shard isolation invariant: an op may give up only when its
  // own shard was faulted.
  if (r.ops_aborted_healthy != 0) {
    r.violations.push_back(
        {"shard-isolation", std::to_string(r.ops_aborted_healthy) +
                                " op(s) aborted on shards that were not "
                                "faulted"});
  }
  r.ok = !failed_ && shards_ok && r.violations.empty();
  return r;
}

void ShardedRunner::apply(const scenario::Action& a) {
  using scenario::ActionKind;
  // A queued map growth lands lazily inside the next workload; any other
  // action materializes it up front.
  if (a.kind == ActionKind::kGrowMap) {
    pending_grow_ = true;
    return;
  }
  if (a.kind == ActionKind::kWorkload) {
    do_workload(a);
    return;
  }
  adopt_pending_grow();
  if (failed_) return;
  if (a.shard != scenario::Action::kAllShards) {
    SSR_ASSERT(a.shard < shards_.size(), "action addressed to no shard");
    if (a.kind == ActionKind::kPauseNodes) paused_[a.shard] = true;
    if (a.kind == ActionKind::kResumeNodes) paused_[a.shard] = false;
    shards_[a.shard]->step(a);
    return;
  }
  // One anchor for every shard: fleets running concurrently in real time
  // share one budget rather than paying it once per shard.
  const std::uint64_t anchor = steady_usec();
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (!paused_[s]) shards_[s]->step(a, anchor);
  }
}

bool ShardedRunner::drive_attempt(ShardId s, NodeId target) {
  scenario::ScenarioBackend& shard = *shards_[s];
  const std::uint64_t before = shard.ops_completed();
  shard.step(scenario::Action::increment_burst(1, {target}));
  // One more completed op on this shard counts as this attempt completing.
  // An op that straggles past the burst's budget is credited to a later
  // attempt on the same shard; both did complete there, which is what the
  // isolation ledger measures.
  return shard.ops_completed() > before;
}

void ShardedRunner::do_workload(const scenario::Action& a) {
  for (std::uint64_t i = 0; i < a.n && !failed_; ++i) {
    Router::Op op = router_.begin(a.reg + ":" + std::to_string(i));
    bool completed = false;
    for (;;) {
      router_.note_config(op.shard, shards_[op.shard]->routing_config());
      const auto target = router_.target(op);
      if (target && drive_attempt(op.shard, *target)) {
        completed = true;
        break;
      }
      check_shards();
      if (failed_) break;
      // A failed attempt is when a queued epoch change becomes visible —
      // exactly the moment a real client would learn its map is stale.
      adopt_pending_grow();
      if (failed_) break;
      const Router::Verdict v = router_.on_failure(op);
      if (v == Router::Verdict::kGiveUp) break;
      if (v == Router::Verdict::kRedirect) ++result_.ops_redirected;
    }
    ++result_.ops_attempted;
    if (completed) {
      ++result_.ops_completed;
    } else if (paused_[op.shard]) {
      ++result_.ops_aborted_faulted;
    } else {
      ++result_.ops_aborted_healthy;
    }
  }
  // No attempt failed, so nothing pulled the queued map in: adopt it now
  // rather than letting it leak past the workload it was aimed at.
  adopt_pending_grow();
}

}  // namespace ssr::shard
