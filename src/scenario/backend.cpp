#include "scenario/backend.hpp"

#include <sstream>

#include "shard/sharded_runner.hpp"

namespace ssr::scenario {

std::string ScenarioResult::summary() const {
  std::ostringstream os;
  os << name << " seed=" << seed << " " << (ok ? "OK" : "FAIL")
     << " events=" << trace_events << " hash=" << std::hex << trace_hash
     << std::dec << " sim=" << sim_time / kSec << "s";
  if (ops_completed > 0) {
    os << " ops=" << ops_completed << " p50=" << op_p50_us << "us"
       << " p99=" << op_p99_us << "us";
  }
  if (net_syscalls > 0) {
    os << " syscalls=" << net_syscalls << " batched=" << net_batched;
  }
  if (!shards.empty()) {
    os << " shards=" << shards.size() << " attempted=" << ops_attempted;
    if (ops_aborted_faulted != 0 || ops_aborted_healthy != 0) {
      os << " aborted(faulted=" << ops_aborted_faulted
         << " healthy=" << ops_aborted_healthy << ")";
    }
    if (ops_redirected != 0) os << " redirects=" << ops_redirected;
  }
  if (!failure.empty()) os << " failure=\"" << failure << "\"";
  for (const auto& v : violations) {
    os << "\n  violation[" << v.invariant << "]: " << v.message;
  }
  // One indented block per shard.
  for (const ScenarioResult& shard : shards) {
    os << "\n  ";
    for (char c : shard.summary()) {
      os << c;
      if (c == '\n') os << "  ";
    }
  }
  return os.str();
}

ScenarioResult ScenarioBackend::run() {
  bootstrap();
  for (const Phase& phase : spec_.phases) {
    if (failed_) break;
    trace_.record(TraceKind::kPhaseStart, kNoNode, digest_name(phase.name));
    for (const Action& a : phase.actions) step(a);
  }
  return finish();
}

void ScenarioBackend::step(const Action& a, std::uint64_t anchor_us) {
  if (failed_) return;
  trace_.record(TraceKind::kActionApplied, kNoNode,
                static_cast<std::uint64_t>(a.kind), digest_action(a));
  anchor_us_ = anchor_us;
  applying_ = &a;
  apply(a);
  applying_ = nullptr;
  anchor_us_ = 0;
}

void ScenarioBackend::apply(const Action& a) {
  switch (a.kind) {
    case ActionKind::kAddNodes:
      registry_->unmark_stable();
      for (std::uint64_t i = 0; i < a.n && !failed_; ++i) add_node();
      return;
    case ActionKind::kCrash:
    case ActionKind::kCrashAll:
      registry_->unmark_stable();
      for (NodeId id : a.kind == ActionKind::kCrash ? a.targets : alive_ids()) {
        if (crash_node(id)) trace_.record(TraceKind::kNodeCrashed, id);
      }
      return;
    case ActionKind::kReboot:
      registry_->unmark_stable();
      // Identifiers are never reused (paper, Section 2): a reboot is a
      // crash-stop plus a fresh processor taking the slot.
      for (NodeId id : a.targets) {
        if (crash_node(id)) trace_.record(TraceKind::kNodeCrashed, id);
        if (!failed_) add_node();
      }
      return;
    case ActionKind::kPauseNodes:
      registry_->unmark_stable();
      for (NodeId id : a.targets) {
        if (pause_node(id)) trace_.record(TraceKind::kNodePaused, id);
      }
      return;
    case ActionKind::kResumeNodes:
      for (NodeId id : a.targets) {
        if (resume_node(id)) trace_.record(TraceKind::kNodeResumed, id);
      }
      return;
    case ActionKind::kSplitNetwork:
      registry_->unmark_stable();
      split(a.targets, a.group_b);
      return;
    case ActionKind::kHealNetwork:
      heal();
      return;
    case ActionKind::kCorruptRecsa:
    case ActionKind::kCorruptFd:
      registry_->unmark_stable();
      for (NodeId id : targets_or_alive(a)) inject(a, id);
      return;
    case ActionKind::kPlantExhaustedCounter:
    case ActionKind::kPlantRecmaFlags:
      registry_->unmark_stable();
      for (NodeId id : a.targets) inject(a, id);
      return;
    case ActionKind::kSplitConfigState: {
      registry_->unmark_stable();
      // The first half of the alive set (in id order) believes `targets`,
      // the rest believe `group_b`.
      const IdSet alive = alive_ids();
      std::size_t i = 0;
      for (NodeId id : alive) {
        plant_config(id, i++ < alive.size() / 2 ? a.targets : a.group_b);
      }
      return;
    }
    case ActionKind::kGarbageChannels:
      registry_->unmark_stable();
      garbage_channels(a.n);
      return;
    case ActionKind::kIncrementBurst:
      increment_burst(a);
      return;
    case ActionKind::kShmemWrite:
      shmem_ops(a, /*write=*/true);
      return;
    case ActionKind::kShmemRead:
      shmem_ops(a, /*write=*/false);
      return;
    case ActionKind::kRunFor:
      run_for(a.duration);
      return;
    case ActionKind::kAwaitConverged:
      if (!await(a.duration, [this] { return converged_sampled(); })) {
        fail("no convergence within the time budget");
        return;
      }
      trace_.record(TraceKind::kConverged, kNoNode,
                    digest_ids(*agreed_config()));
      return;
    case ActionKind::kAwaitVsStable:
      if (!spec_.enable_vs) {
        fail("await_vs_stable needs enable_vs in the spec");
        return;
      }
      if (!await(a.duration,
                 [this] { return node::vs_stable(statuses()); })) {
        fail("VS layer did not stabilize");
        return;
      }
      trace_.record(TraceKind::kVsStable, kNoNode);
      return;
    case ActionKind::kAwaitParticipants: {
      auto admitted = [&] {
        std::size_t found = 0;
        for (const node::Status& s : statuses()) {
          if (!a.targets.contains(s.id)) continue;
          if (!s.participant) return false;
          ++found;
        }
        return found == a.targets.size();
      };
      if (!await(a.duration, admitted)) {
        fail("targets were not admitted as participants");
      }
      return;
    }
    case ActionKind::kAwaitConfigEqualsAlive: {
      auto caught_up = [this] {
        const auto c = agreed_config();
        return c && *c == alive_ids();
      };
      if (!await(a.duration, caught_up)) {
        fail("configuration did not catch up with the alive set");
      }
      return;
    }
    case ActionKind::kMarkStable:
      // Observe every node first, so changes from before the window opened
      // are not attributed into it. A polling fleet retries a node that
      // missed the round: one missed node would surface as a spurious
      // closure violation at its next successful sample.
      await(0, [this] { return sample(); });
      registry_->mark_stable();
      trace_.record(TraceKind::kStableMarked, kNoNode);
      return;
    case ActionKind::kWorkload:
    case ActionKind::kGrowMap:
      // Keyed routing spans shards; shard::ShardedRunner interprets these.
      fail("needs a sharded spec (shards > 1)");
      return;
    case ActionKind::kAwaitQuiescent: {
      if (!alive_ids().empty()) {
        registry_->report("silence", false,
                          "await_quiescent requires every node crashed first");
        return;
      }
      const bool quiet = drained(a.duration);
      registry_->report("silence", quiet,
                        "fleet still busy after every node crashed (silent "
                        "stabilization violated)");
      trace_.record(TraceKind::kQuiescent, kNoNode, quiet ? 1 : 0);
      return;
    }
  }
}

ScenarioResult ScenarioBackend::finish() {
  ScenarioResult r;
  settle(r);
  r.name = spec_.name;
  r.seed = seed_;
  r.failure = failure_;
  r.violations = registry_->check_all();
  r.ok = !failed_ && r.violations.empty();
  // A run that ends with a violation counts as failed too (the process
  // backend keeps its scratch directory on failure).
  if (!r.ok) failed_ = true;
  r.trace_hash = trace_.hash();
  r.trace_events = trace_.size();
  r.ops_completed = op_latency_.count();
  r.op_p50_us = op_latency_.percentile(50);
  r.op_p99_us = op_latency_.percentile(99);
  r.op_latency = op_latency_;
  return r;
}

void ScenarioBackend::fail(const std::string& detail) {
  if (failed_) return;
  failed_ = true;
  failure_ = applying_ == nullptr
                 ? detail
                 : std::string(to_string(applying_->kind)) + ": " + detail;
}

ScenarioResult run_spec(const ScenarioSpec& spec, std::uint64_t seed,
                        const BackendFactory& make_backend,
                        const std::function<void(ScenarioBackend&)>& inspect) {
  if (spec.shards > 1) {
    shard::ShardedRunner runner(spec, seed, make_backend);
    ScenarioResult r = runner.run();
    if (inspect) {
      for (const auto& shard : runner.backends()) inspect(*shard);
    }
    return r;
  }
  const std::unique_ptr<ScenarioBackend> backend =
      make_backend(spec, seed, 0);
  ScenarioResult r = backend->run();
  if (inspect) inspect(*backend);
  return r;
}

}  // namespace ssr::scenario
