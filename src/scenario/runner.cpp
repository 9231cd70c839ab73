#include "scenario/runner.hpp"

namespace ssr::scenario {
namespace {

// The "replace on any suspected member" prediction policy.
reconf::RecMA::EvalConf aggressive_eval(node::Node& n) {
  return [&n](const IdSet& cfg) {
    return cfg.intersection_size(n.failure_detector().trusted()) < cfg.size();
  };
}

// Wraps `base` with the joiner-adoption term: also advise reconfiguration
// while some trusted recSA participant is outside the configuration. Both
// stock policies count only *suspected members*, so a cohort whose churn
// never touches a config member (joins, or crashes of other joiners) keeps
// its configuration frozen — estab(participants()) only ever piggybacks on
// an eviction trigger. Opt-in (ScenarioSpec::adopt_joiners) so the pinned
// default-policy traces stay byte-identical.
reconf::RecMA::EvalConf with_adoption(node::Node& n,
                                      reconf::RecMA::EvalConf base) {
  return [&n, base = std::move(base)](const IdSet& cfg) {
    if (base(cfg)) return true;
    const IdSet admitted =
        n.recsa().participants().intersect(n.failure_detector().trusted());
    return !admitted.subset_of(cfg);
  };
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioSpec spec, std::uint64_t seed)
    : ScenarioBackend(std::move(spec), seed) {
  harness::WorldConfig cfg;
  cfg.seed = seed;
  cfg.node.enable_vs = spec_.enable_vs;
  cfg.channel.corrupt_probability = spec_.corrupt_probability;
  cfg.adversary.enabled = spec_.adversarial;
  if (spec_.exhaust_bound != 0) {
    cfg.node.counter.exhaust_bound = spec_.exhaust_bound;
  }
  pool_at_start_ = wire::BufferPool::local().stats();
  world_ = std::make_unique<harness::World>(cfg);
  injector_ =
      std::make_unique<harness::FaultInjector>(*world_, seed ^ 0xFA417ULL);
  registry_ = std::make_unique<InvariantRegistry>(*world_);
  trace_.attach(*world_);
}

bool ScenarioRunner::bootstrap() {
  for (std::size_t i = 0; i < spec_.initial_nodes; ++i) add_fresh_node();
  return true;
}

NodeId ScenarioRunner::add_fresh_node() {
  const NodeId id = next_id_++;
  node::Node& n = world_->add_node(id);
  if (spec_.aggressive_policy || spec_.adopt_joiners) {
    reconf::RecMA::EvalConf eval =
        spec_.aggressive_policy
            ? aggressive_eval(n)
            : node::quarter_failed_policy(n.failure_detector());
    if (spec_.adopt_joiners) eval = with_adoption(n, std::move(eval));
    n.set_eval_conf(std::move(eval));
  }
  trace_.attach_node(*world_, id);
  registry_->attach_node(id);
  trace_.record(TraceKind::kNodeAdded, id);
  return id;
}

IdSet ScenarioRunner::routing_config() const {
  const auto common = world_->common_config();
  return common ? *common : world_->alive();
}

bool ScenarioRunner::accepts_ops(NodeId id) const {
  return world_->has_node(id) && !world_->node(id).crashed() &&
         !paused_.contains(id);
}

void ScenarioRunner::settle(ScenarioResult& r) {
  harvest_increments();
  r.sim_time = world_->scheduler().now();
  r.sched_events = world_->scheduler().events_executed();
  const wire::BufferPool::Stats& pool = wire::BufferPool::local().stats();
  r.pool_acquired = pool.acquired - pool_at_start_.acquired;
  r.pool_reused = pool.reused - pool_at_start_.reused;
  world_->network().for_each_channel(
      [&r](NodeId, NodeId, net::Channel& ch) {
        r.packets_sent += ch.stats().sent;
        r.packets_delivered += ch.stats().delivered;
      });
}

void ScenarioRunner::apply(const Action& a) {
  switch (a.kind) {
    case ActionKind::kAddNodes: {
      registry_->unmark_stable();
      for (std::uint64_t i = 0; i < a.n; ++i) add_fresh_node();
      return;
    }
    case ActionKind::kCrash: {
      registry_->unmark_stable();
      for (NodeId id : a.targets) {
        world_->crash(id);
        trace_.record(TraceKind::kNodeCrashed, id);
      }
      return;
    }
    case ActionKind::kReboot: {
      registry_->unmark_stable();
      // Identifiers are never reused (paper, Section 2): a reboot is a
      // crash-stop plus a fresh processor taking the slot.
      for (NodeId id : a.targets) {
        world_->crash(id);
        trace_.record(TraceKind::kNodeCrashed, id);
        add_fresh_node();
      }
      return;
    }
    case ActionKind::kSplitNetwork:
      registry_->unmark_stable();
      world_->network().split(a.targets, a.group_b);
      return;
    case ActionKind::kHealNetwork:
      world_->network().heal();
      return;
    case ActionKind::kCorruptRecsa:
      registry_->unmark_stable();
      for (NodeId id : targets_or_alive(a)) injector_->corrupt_recsa(id);
      return;
    case ActionKind::kCorruptFd:
      registry_->unmark_stable();
      for (NodeId id : targets_or_alive(a)) injector_->corrupt_fd(id);
      return;
    case ActionKind::kSplitConfigState:
      registry_->unmark_stable();
      injector_->split_config(a.targets, a.group_b);
      return;
    case ActionKind::kGarbageChannels:
      registry_->unmark_stable();
      injector_->fill_channels_with_garbage(a.n);
      return;
    case ActionKind::kPlantExhaustedCounter:
      registry_->unmark_stable();
      for (NodeId id : a.targets) injector_->plant_exhausted_counter(id, a.n);
      return;
    case ActionKind::kPlantRecmaFlags:
      registry_->unmark_stable();
      for (NodeId id : a.targets) {
        injector_->plant_recma_flags(id, (a.n & 1) != 0, (a.n & 2) != 0);
      }
      return;
    case ActionKind::kIncrementBurst:
      do_increment_burst(a);
      return;
    case ActionKind::kShmemWrite:
      do_shmem(a, /*write=*/true);
      return;
    case ActionKind::kShmemRead:
      do_shmem(a, /*write=*/false);
      return;
    case ActionKind::kRunFor:
      world_->run_for(a.duration);
      return;
    case ActionKind::kAwaitConverged: {
      if (!await(a.duration, [&] { return world_->converged(); })) {
        fail(a, "no convergence within the time budget");
        return;
      }
      trace_.record(TraceKind::kConverged, kNoNode,
                    digest_ids(*world_->common_config()));
      return;
    }
    case ActionKind::kAwaitVsStable: {
      if (!await(a.duration, [&] { return world_->vs_stable(); })) {
        fail(a, "VS layer did not stabilize");
        return;
      }
      trace_.record(TraceKind::kVsStable, kNoNode);
      return;
    }
    case ActionKind::kAwaitParticipants: {
      auto all_part = [&] {
        for (NodeId id : a.targets) {
          if (!world_->node(id).recsa().is_participant()) return false;
        }
        return true;
      };
      if (!await(a.duration, all_part)) {
        fail(a, "targets were not admitted as participants");
      }
      return;
    }
    case ActionKind::kAwaitConfigEqualsAlive: {
      auto caught_up = [&] {
        auto c = world_->common_config();
        return c && *c == world_->alive();
      };
      if (!await(a.duration, caught_up)) {
        fail(a, "configuration did not catch up with the alive set");
      }
      return;
    }
    case ActionKind::kMarkStable:
      registry_->mark_stable();
      trace_.record(TraceKind::kStableMarked, kNoNode);
      return;
    case ActionKind::kCrashAll: {
      registry_->unmark_stable();
      for (NodeId id : world_->alive()) {
        world_->crash(id);
        trace_.record(TraceKind::kNodeCrashed, id);
      }
      return;
    }
    case ActionKind::kAwaitQuiescent:
      do_await_quiescent(a);
      return;
    case ActionKind::kPauseNodes: {
      // The closest fabric analog of SIGSTOP: a stopped process takes no
      // steps and answers nothing, so from its peers' point of view it is
      // unreachable until resumed.
      registry_->unmark_stable();
      for (NodeId id : a.targets) {
        world_->network().isolate(id);
        paused_.insert(id);
        trace_.record(TraceKind::kNodePaused, id);
      }
      return;
    }
    case ActionKind::kResumeNodes: {
      for (NodeId id : a.targets) {
        world_->network().rejoin(id);
        paused_.erase(id);
        trace_.record(TraceKind::kNodeResumed, id);
      }
      return;
    }
  }
}

void ScenarioRunner::do_increment_burst(const Action& a) {
  const IdSet clients = targets_or_alive(a);
  // Sequential ops create real-time-ordered pairs, which is exactly what the
  // counter-order invariant (Theorem 4.6) constrains.
  for (NodeId id : clients) {
    if (!accepts_ops(id)) continue;
    for (std::uint64_t op = 0; op < a.n; ++op) {
      auto& client = world_->node(id).increment();
      bool completed = false;
      // A begin() can be refused while a previous operation drains, and a
      // begun operation can abort during reconfigurations — both are legal;
      // retry a bounded number of times. Each attempt gets fresh state so a
      // late completion of a timed-out attempt never bleeds into the next.
      for (int attempt = 0; attempt < 12 && !completed; ++attempt) {
        if (!await(30 * kSec, [&] { return !client.busy(); })) break;
        auto st = std::make_shared<PendingIncrement>();
        st->started = world_->scheduler().now();
        if (!client.begin([st](std::optional<counter::Counter> c) {
              st->got = std::move(c);
              st->done = true;
            })) {
          continue;
        }
        await(120 * kSec, [&] { return st->done; }, 5 * kMsec);
        if (st->done && st->got) {
          registry_->counter_order().record(
              st->started, world_->scheduler().now(), *st->got);
          op_latency_.record(world_->scheduler().now() - st->started);
          trace_.record(TraceKind::kIncrementDone, id, 1, st->got->seqn);
          completed = true;
        } else if (st->done) {
          trace_.record(TraceKind::kIncrementDone, id, 0, 0);
        } else {
          outstanding_.emplace_back(id, st);
        }
      }
    }
  }
  harvest_increments();
}

void ScenarioRunner::harvest_increments() {
  // Records attempts that completed after their await timed out (possibly
  // phases later). Observing the finish late only widens the [started,
  // finished] interval, which can never manufacture a false real-time-
  // ordered pair. Recorded entries are removed; still-pending ones stay for
  // the next harvest (every burst, and once more before check_all()).
  std::erase_if(outstanding_, [&](const auto& entry) {
    const auto& [id, st] = entry;
    if (!st->done) return false;
    if (st->got) {
      registry_->counter_order().record(st->started,
                                        world_->scheduler().now(), *st->got);
      op_latency_.record(world_->scheduler().now() - st->started);
      trace_.record(TraceKind::kIncrementDone, id, 1, st->got->seqn);
    }
    return true;
  });
}

void ScenarioRunner::do_shmem(const Action& a, bool write) {
  // As with increments: the service stores the callback, and an operation
  // can outlive this function, so completion state is heap-held and
  // captured by value.
  struct OpState {
    bool done = false;
    bool ok = false;
  };
  for (NodeId id : targets_or_alive(a)) {
    if (!accepts_ops(id)) continue;
    auto& svc = world_->node(id).registers();
    bool succeeded = false;
    for (int attempt = 0; attempt < 12 && !succeeded; ++attempt) {
      if (!await(30 * kSec, [&] { return !svc.busy(); })) break;
      auto st = std::make_shared<OpState>();
      const SimTime op_started = world_->scheduler().now();
      bool begun;
      if (write) {
        wire::Bytes payload;
        for (int i = 0; i < 8; ++i) {
          payload.push_back(
              static_cast<std::uint8_t>((a.n + id) >> (8 * i) & 0xFF));
        }
        begun = svc.write(a.reg, std::move(payload),
                          [st](bool w_ok, counter::Counter) {
                            st->ok = w_ok;
                            st->done = true;
                          });
      } else {
        begun = svc.read(a.reg, [st](bool r_ok, const wire::Bytes&,
                                     counter::Counter) {
          st->ok = r_ok;
          st->done = true;
        });
      }
      if (!begun) continue;
      await(160 * kSec, [&] { return st->done; }, 5 * kMsec);
      succeeded = st->done && st->ok;
      if (succeeded) {
        op_latency_.record(world_->scheduler().now() - op_started);
      }
    }
    trace_.record(TraceKind::kShmemOpDone, id, succeeded ? 1 : 0,
                  write ? 1 : 0);
  }
}

void ScenarioRunner::do_await_quiescent(const Action& a) {
  if (!world_->alive().empty()) {
    registry_->report("silence", false,
                      "await_quiescent requires every node crashed first");
    return;
  }
  auto& sched = world_->scheduler();
  const SimTime deadline = sched.now() + a.duration;
  while (sched.now() < deadline && !sched.empty()) {
    world_->run_for(10 * kMsec);
  }
  const bool drained = sched.empty();
  registry_->report("silence", drained,
                    "scheduler still holds live events after every node "
                    "crashed (silent stabilization violated)");
  trace_.record(TraceKind::kQuiescent, kNoNode, drained ? 1 : 0);
}

ScenarioResult run_scenario(const ScenarioSpec& spec, std::uint64_t seed) {
  ScenarioRunner runner(spec, seed);
  return runner.run();
}

}  // namespace ssr::scenario
