// E7 — Theorem 4.13: virtually synchronous SMR across reconfigurations.
// Measured: multicast round throughput in steady state; the service gap
// around a member crash that triggers the coordinator-led delicate
// reconfiguration (Algorithm 4.6); virtual-synchrony violations and replica
// divergence (both must be 0).
#include <deque>

#include "bench_common.hpp"

namespace ssr::bench {
namespace {

struct Feeder {
  std::map<NodeId, std::deque<wire::Bytes>> pending;
  int produced = 0;

  void attach(harness::World& w, NodeId id) {
    w.node(id).set_fetch([this, id]() -> std::optional<wire::Bytes> {
      auto& q = pending[id];
      if (q.empty()) return std::nullopt;
      wire::Bytes cmd = q.front();
      q.pop_front();
      return cmd;
    });
  }
  void produce(NodeId id) {
    std::string key = "k";  // append, not `"k" + ...`: GCC 12 -Wrestrict
    key += std::to_string(produced % 16);
    pending[id].push_back(
        vs::KvStateMachine::set_cmd(key, std::to_string(produced)));
    ++produced;
  }
};

const vs::KvStateMachine& kv(harness::World& w, NodeId id) {
  return static_cast<const vs::KvStateMachine&>(
      const_cast<const vs::StateMachine&>(w.node(id).vs()->state_machine()));
}

std::uint64_t rounds_at_coordinator(harness::World& w) {
  for (NodeId id : w.alive()) {
    auto* v = w.node(id).vs();
    if (v != nullptr && v->is_coordinator()) return v->round();
  }
  return 0;
}

void BM_SmrRoundThroughput(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  double rounds_per_s = 0;
  double divergence = 0;
  double vs_mismatches = 0;
  std::uint64_t seed = 4100;
  for (auto _ : state) {
    harness::World w(world_config(seed++, /*vs=*/true));
    harness::VirtualSynchronyMonitor monitor;
    for (NodeId id = 1; id <= n; ++id) w.add_node(id);
    monitor.attach(w);
    if (!w.run_until_converged(300 * kSec) ||
        !w.run_until_vs_stable(900 * kSec)) {
      state.SkipWithError("SMR did not stabilize");
      return;
    }
    Feeder feeder;
    for (NodeId id = 1; id <= n; ++id) feeder.attach(w, id);
    const std::uint64_t r0 = rounds_at_coordinator(w);
    const SimTime t0 = w.scheduler().now();
    const SimTime window = 120 * kSec;
    while (w.scheduler().now() < t0 + window) {
      for (NodeId id = 1; id <= n; ++id) feeder.produce(id);
      w.run_for(kSec);
    }
    const std::uint64_t r1 = rounds_at_coordinator(w);
    rounds_per_s += static_cast<double>(r1 - r0) /
                    (static_cast<double>(window) / kSec);
    const std::uint64_t d = kv(w, 1).digest();
    for (NodeId id = 2; id <= n; ++id) {
      if (kv(w, id).digest() != d) divergence += 1;
    }
    vs_mismatches += static_cast<double>(monitor.mismatches());
  }
  state.counters["rounds_per_sim_s"] =
      benchmark::Counter(rounds_per_s / static_cast<double>(state.iterations()));
  state.counters["replica_divergence"] = benchmark::Counter(divergence);
  state.counters["vs_violations"] = benchmark::Counter(vs_mismatches);
}

BENCHMARK(BM_SmrRoundThroughput)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->ArgName("N")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Member crash → view change → coordinator-led delicate reconfiguration →
// service resumes on the new configuration. Reported: the service gap and
// whether the replica state survived (divergence must be 0).
void BM_SmrReconfigurationGap(benchmark::State& state) {
  double gap_ms = 0;
  double state_lost = 0;
  std::uint64_t seed = 4500;
  for (auto _ : state) {
    harness::World w(world_config(seed++, /*vs=*/true));
    for (NodeId id = 1; id <= 4; ++id) w.add_node(id);
    if (!w.run_until_converged(300 * kSec) ||
        !w.run_until_vs_stable(900 * kSec)) {
      state.SkipWithError("SMR did not stabilize");
      return;
    }
    Feeder feeder;
    for (NodeId id = 1; id <= 4; ++id) feeder.attach(w, id);
    feeder.pending[1].push_back(vs::KvStateMachine::set_cmd("marker", "v"));
    w.run_for(60 * kSec);
    // Crash a non-coordinator member.
    const NodeId crd = w.node(1).vs()->coordinator();
    NodeId victim = kNoNode;
    for (NodeId id = 1; id <= 4; ++id) {
      if (id != crd) {
        victim = id;
        break;
      }
    }
    w.crash(victim);
    const SimTime crash_time = w.scheduler().now();
    const double ms = run_until(w, 1800 * kSec, [&] {
      auto c = w.common_config();
      if (!c || c->contains(victim)) return false;
      return w.vs_stable();
    });
    if (ms < 0) {
      state.SkipWithError("service did not resume on new configuration");
      return;
    }
    gap_ms += to_ms(w.scheduler().now() - crash_time);
    for (NodeId id : w.alive()) {
      const auto& data = kv(w, id).data();
      auto it = data.find("marker");
      if (it == data.end() || it->second != "v") state_lost += 1;
    }
  }
  state.counters["reconfig_gap_sim_ms"] =
      benchmark::Counter(gap_ms / static_cast<double>(state.iterations()));
  state.counters["state_lost"] = benchmark::Counter(state_lost);
}

BENCHMARK(BM_SmrReconfigurationGap)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace ssr::bench

BENCHMARK_MAIN();
