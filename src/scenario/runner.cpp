#include "scenario/runner.hpp"

namespace ssr::scenario {

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
  for (std::size_t i = 0; i < spec_.initial_nodes; ++i) add_node();
  return true;
}

NodeId ScenarioRunner::add_node() {
  const NodeId id = next_id_++;
  node::Node& n = world_->add_node(id);
  node::select_policy(n, spec_.aggressive_policy, spec_.adopt_joiners);
  trace_.attach_node(*world_, id);
  registry_->attach_node(id);
  trace_.record(TraceKind::kNodeAdded, id);
  return id;
}

// The closest fabric analog of SIGSTOP: a stopped process takes no steps
// and answers nothing, so from its peers' point of view it is unreachable
// until resumed.
bool ScenarioRunner::pause_node(NodeId id) {
  world_->network().isolate(id);
  paused_.insert(id);
  return true;
}

bool ScenarioRunner::resume_node(NodeId id) {
  world_->network().rejoin(id);
  paused_.erase(id);
  return true;
}

void ScenarioRunner::inject(const Action& a, NodeId id) {
  inject_node_fault(a, world_->node(id), injector_->rng(), world_->alive());
}

void ScenarioRunner::plant_config(NodeId id, const IdSet& ids) {
  harness::FaultInjector::plant_config(world_->node(id), ids);
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

void ScenarioRunner::increment_burst(const Action& a) {
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
        if (!poll(30 * kSec, [&] { return !client.busy(); })) break;
        auto st = std::make_shared<PendingIncrement>();
        st->started = world_->scheduler().now();
        if (!client.begin([st](std::optional<counter::Counter> c) {
              st->got = std::move(c);
              st->done = true;
            })) {
          continue;
        }
        poll(120 * kSec, [&] { return st->done; }, 5 * kMsec);
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

void ScenarioRunner::shmem_ops(const Action& a, bool write) {
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
      if (!poll(30 * kSec, [&] { return !svc.busy(); })) break;
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
      poll(160 * kSec, [&] { return st->done; }, 5 * kMsec);
      succeeded = st->done && st->ok;
      if (succeeded) {
        op_latency_.record(world_->scheduler().now() - op_started);
      }
    }
    trace_.record(TraceKind::kShmemOpDone, id, succeeded ? 1 : 0,
                  write ? 1 : 0);
  }
}

bool ScenarioRunner::drained(SimTime d) {
  auto& sched = world_->scheduler();
  const SimTime deadline = sched.now() + d;
  while (sched.now() < deadline && !sched.empty()) {
    world_->run_for(10 * kMsec);
  }
  return sched.empty();
}

std::unique_ptr<ScenarioBackend> make_sim_backend(const ScenarioSpec& spec,
                                                  std::uint64_t seed,
                                                  std::uint32_t /*shard_tag*/) {
  return std::make_unique<ScenarioRunner>(spec, seed);
}

ScenarioResult run_scenario(const ScenarioSpec& spec, std::uint64_t seed) {
  return run_spec(spec, seed, make_sim_backend);
}

}  // namespace ssr::scenario
