#include "shard/sharded_runner.hpp"

#include "util/assert.hpp"
#include "util/wallclock.hpp"

namespace ssr::shard {

ShardedRunner::ShardedRunner(ShardedSpec spec, std::uint64_t seed,
                             const BackendFactory& make_backend)
    : spec_(std::move(spec)),
      router_(ShardMap::uniform(spec_.map_shards())),
      paused_(spec_.shards, false) {
  result_.name = spec_.name;
  result_.seed = seed;
  for (std::uint32_t s = 0; s < spec_.shards; ++s) {
    scenario::ScenarioSpec fleet;
    fleet.name = spec_.name + "/shard" + std::to_string(s);
    fleet.initial_nodes = spec_.nodes_per_shard;
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
  router_.adopt(router_.map().with_shard_added());
}

ShardedResult ShardedRunner::run() {
  // Bring every shard up front; process fleets then all run concurrently
  // in real time.
  for (auto& shard : shards_) {
    if (!shard->bootstrap()) break;
  }
  check_shards();
  for (const ShardedStep& st : spec_.steps) {
    if (failed_) break;
    apply(st);
    check_shards();
  }

  bool shards_ok = true;
  for (auto& shard : shards_) {
    scenario::ScenarioResult pr = shard->finish();
    pr.seed = result_.seed;
    shards_ok = shards_ok && pr.ok;
    if (!pr.ok && result_.failure.empty()) {
      result_.failure = pr.name + ": " + pr.failure;
    }
    result_.per_shard.push_back(std::move(pr));
  }
  // The cross-shard isolation invariant: an op may give up only when its
  // own shard was faulted; any abort on a healthy shard fails the run.
  if (result_.ops_aborted_healthy != 0 && result_.failure.empty()) {
    result_.failure = std::to_string(result_.ops_aborted_healthy) +
                      " op(s) aborted on healthy shards (isolation violated)";
  }
  result_.ok = !failed_ && shards_ok && result_.ops_aborted_healthy == 0;
  return result_;
}

void ShardedRunner::apply(const ShardedStep& st) {
  // A queued map growth lands lazily inside the next workload; any other
  // step materializes it up front.
  switch (st.kind) {
    case ShardedStep::Kind::kGrowMap:
      pending_grow_ = true;
      return;
    case ShardedStep::Kind::kWorkload:
      do_workload(st);
      return;
    case ShardedStep::Kind::kAction:
      break;
  }
  adopt_pending_grow();
  const scenario::ActionKind kind = st.action.kind;
  if (st.shard != ShardedStep::kAllShards) {
    SSR_ASSERT(st.shard < shards_.size(), "step addressed to no shard");
    if (kind == scenario::ActionKind::kPauseNodes) paused_[st.shard] = true;
    if (kind == scenario::ActionKind::kResumeNodes) paused_[st.shard] = false;
    shards_[st.shard]->step(st.action);
    return;
  }
  // One anchor for every shard: fleets running concurrently in real time
  // share one budget rather than paying it once per shard.
  const std::uint64_t anchor = steady_usec();
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (!paused_[s]) shards_[s]->step(st.action, anchor);
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

void ShardedRunner::do_workload(const ShardedStep& st) {
  for (std::uint64_t i = 0; i < st.n && !failed_; ++i) {
    Router::Op op = router_.begin(st.key_prefix + ":" + std::to_string(i));
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
