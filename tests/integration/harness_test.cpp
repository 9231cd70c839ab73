// Tests of the harness itself: the invariant monitors that every other
// suite and bench relies on, and whole-world determinism (same seed ⇒
// identical executions), which the reproducibility of every experiment
// depends on.
#include <gtest/gtest.h>

#include "harness/fault_injector.hpp"
#include "harness/monitors.hpp"
#include "harness/world.hpp"

namespace ssr::harness {
namespace {

counter::Counter mk_counter(NodeId creator, std::uint64_t seqn, NodeId wid) {
  counter::Counter c;
  c.lbl.creator = creator;
  c.lbl.sting = 1;
  c.seqn = seqn;
  c.wid = wid;
  return c;
}

TEST(CounterOrderMonitorTest, DetectsRealTimeViolations) {
  CounterOrderMonitor m;
  // op A finished at t=10, op B started at t=20 — B must be greater.
  m.record(0, 10, mk_counter(1, 5, 1));
  m.record(20, 30, mk_counter(1, 4, 1));  // smaller! violation
  EXPECT_EQ(m.completed(), 2u);
  EXPECT_EQ(m.violations(), 1u);
}

TEST(CounterOrderMonitorTest, ConcurrentOpsNotConstrained) {
  CounterOrderMonitor m;
  // Overlapping in time: no real-time order, no violation either way.
  m.record(0, 100, mk_counter(1, 5, 1));
  m.record(50, 60, mk_counter(1, 4, 1));
  EXPECT_EQ(m.violations(), 0u);
}

TEST(CounterOrderMonitorTest, OrderedOpsPass) {
  CounterOrderMonitor m;
  m.record(0, 10, mk_counter(1, 1, 1));
  m.record(20, 30, mk_counter(1, 2, 2));
  m.record(40, 50, mk_counter(2, 0, 1));  // bigger label
  EXPECT_EQ(m.violations(), 0u);
}

TEST(ConfigHistoryMonitorTest, CountsEventsSince) {
  WorldConfig cfg;
  cfg.seed = 71;
  cfg.node.enable_vs = false;
  World w(cfg);
  ConfigHistoryMonitor m;
  for (NodeId id = 1; id <= 3; ++id) w.add_node(id);
  m.attach(w);
  ASSERT_TRUE(w.run_until_converged(180 * kSec).has_value());
  EXPECT_GT(m.events().size(), 0u);  // bootstrap produced config changes
  const SimTime now = w.scheduler().now();
  w.run_for(60 * kSec);
  EXPECT_EQ(m.events_since(now), 0u);  // quiet afterwards
}

TEST(VirtualSynchronyMonitorTest, ComparesBatchesPerViewAndRound) {
  VirtualSynchronyMonitor m;
  vs::View v;
  v.id = mk_counter(1, 5, 1);
  v.set = IdSet{1, 2, 3};
  vs::View relabeled = v;
  relabeled.id.lbl.antistings = {7};  // same seqn and writer, new label
  const std::vector<std::pair<NodeId, wire::Bytes>> a = {{1, {0xA}}};
  const std::vector<std::pair<NodeId, wire::Bytes>> b = {{1, {0xB}}};

  m.record(v, 1, a);
  m.record(v, 1, a);           // the same batch again: agreement
  m.record(v, 1, b);           // a different batch at (v, 1): mismatch
  m.record(v, 1, a);           // judged against the first batch: fine
  m.record(v, 2, b);           // a new round
  m.record(relabeled, 1, b);   // a different view id, not round (v, 1)
  EXPECT_EQ(m.deliveries(), 6u);
  EXPECT_EQ(m.mismatches(), 1u);
  EXPECT_EQ(m.rounds_observed(), 3u);
}

// The legality predicates both fleets evaluate (node::agreed_config and
// node::vs_stable), over hand-built statuses. Rows marked * failed under
// the process fleet's earlier private copies, which had no `advised` term
// and a view digest without the label.
TEST(LegalityPredicates, Table) {
  vs::View view;
  view.id = mk_counter(1, 4, 1);
  view.set = IdSet{1, 2, 3};
  vs::View relabeled = view;
  relabeled.id.lbl.sting = 2;
  ASSERT_NE(view.digest(), relabeled.digest());

  // A converged, VS-stable participant believing {1,2,3}.
  const auto stable = [&](NodeId id) {
    node::Status s;
    s.id = id;
    s.noreco = true;
    s.participant = true;
    s.config = reconf::ConfigValue::set({1, 2, 3});
    s.vs = node::Status::Vs{true, false, false, 1, view.digest()};
    return s;
  };
  const std::vector<node::Status> fleet = {stable(1), stable(2), stable(3)};
  auto with = [&](std::size_t i, auto change) {
    std::vector<node::Status> out = fleet;
    change(out[i]);
    return out;
  };
  auto unsampled = fleet;
  unsampled.push_back(node::Status{});
  unsampled.back().id = 4;

  struct Row {
    const char* name;
    std::vector<node::Status> fleet;
    bool converged;
    bool vs_stable;
  };
  const Row rows[] = {
      {"all agree", fleet, true, true},
      {"* advised", with(1, [](node::Status& s) { s.advised = true; }),
       false, false},
      {"* views differ only in label",
       with(2, [&](node::Status& s) { s.vs->view = relabeled.digest(); }),
       true, false},
      {"unsampled alive node", unsampled, false, false},
      {"non-participant skipped for VS",
       with(2,
            [](node::Status& s) {
              s.participant = false;
              s.vs = node::Status::Vs{};
            }),
       true, true},
      {"non-participant without VS layer",
       with(2, [](node::Status& s) { s.vs.reset(); }), true, false},
      {"no alive node", {}, false, false},
      {"reconfiguring", with(0, [](node::Status& s) { s.noreco = false; }),
       false, false},
      {"configs differ",
       with(0,
            [](node::Status& s) {
              s.config = reconf::ConfigValue::set({1, 2});
            }),
       false, false},
      {"coordinators differ",
       with(0, [](node::Status& s) { s.vs->coordinator = 2; }), true, false},
      {"proposing", with(0, [](node::Status& s) { s.vs->multicast = false; }),
       true, false},
  };
  for (const Row& r : rows) {
    EXPECT_EQ(node::agreed_config(r.fleet).has_value(), r.converged)
        << r.name;
    EXPECT_EQ(node::vs_stable(r.fleet), r.vs_stable) << r.name;
  }
  EXPECT_EQ(node::agreed_config(fleet), (IdSet{1, 2, 3}));
}

TEST(WorldTest, AliveTracksCrashes) {
  WorldConfig cfg;
  cfg.seed = 73;
  cfg.node.enable_vs = false;
  World w(cfg);
  for (NodeId id = 1; id <= 3; ++id) w.add_node(id);
  EXPECT_EQ(w.alive(), (IdSet{1, 2, 3}));
  w.crash(2);
  EXPECT_EQ(w.alive(), (IdSet{1, 3}));
  EXPECT_TRUE(w.node(2).crashed());
}

TEST(WorldTest, ConvergedFalseWhileDiverged) {
  WorldConfig cfg;
  cfg.seed = 75;
  cfg.node.enable_vs = false;
  World w(cfg);
  for (NodeId id = 1; id <= 4; ++id) w.add_node(id);
  ASSERT_TRUE(w.run_until_converged(180 * kSec).has_value());
  FaultInjector fi(w, 750);
  fi.split_config(IdSet{1, 2}, IdSet{3, 4});
  EXPECT_FALSE(w.converged());
  EXPECT_FALSE(w.common_config().has_value());
}

// Reproducibility: identical seeds produce byte-identical convergence
// behaviour — the foundation of every experiment in EXPERIMENTS.md.
TEST(WorldTest, SameSeedSameExecution) {
  auto run = [](std::uint64_t seed) {
    WorldConfig cfg;
    cfg.seed = seed;
    cfg.node.enable_vs = false;
    World w(cfg);
    ConfigHistoryMonitor m;
    for (NodeId id = 1; id <= 4; ++id) w.add_node(id);
    m.attach(w);
    w.run_for(90 * kSec);
    w.node(1).recsa().estab(IdSet{1, 2, 3});
    w.run_for(90 * kSec);
    std::vector<std::pair<SimTime, NodeId>> trace;
    for (const auto& e : m.events()) trace.emplace_back(e.when, e.node);
    return std::make_pair(trace, w.scheduler().events_executed());
  };
  const auto a = run(12345);
  const auto b = run(12345);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  const auto c = run(54321);
  EXPECT_NE(a.second, c.second);  // different seed, different execution
}

}  // namespace
}  // namespace ssr::harness
