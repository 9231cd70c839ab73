#include "vs/vs_smr.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "harness/monitors.hpp"
#include "harness/world.hpp"

namespace ssr::harness {
namespace {

WorldConfig vs_config(std::uint64_t seed) {
  WorldConfig cfg;
  cfg.seed = seed;
  cfg.node.enable_vs = true;
  return cfg;
}

World& converge_vs(World& w, std::size_t n, SimTime budget = 600 * kSec) {
  for (NodeId id = 1; id <= n; ++id) w.add_node(id);
  EXPECT_TRUE(w.run_until_converged(180 * kSec).has_value());
  EXPECT_TRUE(w.run_until_vs_stable(budget).has_value());
  return w;
}

// Feeds each node a queue of commands through the fetch interface.
struct Workload {
  std::map<NodeId, std::deque<wire::Bytes>> pending;

  void attach(World& w, NodeId id) {
    w.node(id).set_fetch([this, id]() -> std::optional<wire::Bytes> {
      auto& q = pending[id];
      if (q.empty()) return std::nullopt;
      wire::Bytes cmd = q.front();
      q.pop_front();
      return cmd;
    });
  }
  void push(NodeId id, wire::Bytes cmd) { pending[id].push_back(std::move(cmd)); }
  bool drained() const {
    for (const auto& [id, q] : pending) {
      (void)id;
      if (!q.empty()) return false;
    }
    return true;
  }
};

const vs::KvStateMachine& kv_of(World& w, NodeId id) {
  return static_cast<const vs::KvStateMachine&>(
      const_cast<const vs::StateMachine&>(w.node(id).vs()->state_machine()));
}

bool kv_has(World& w, NodeId id, const std::string& key,
            const std::string& value) {
  const auto& data = kv_of(w, id).data();
  auto it = data.find(key);
  return it != data.end() && it->second == value;
}

// A coordinator is elected and one view with all participants installs.
TEST(VsSmr, ViewEstablishes) {
  World w(vs_config(111));
  converge_vs(w, 4);
  NodeId crd = w.node(1).vs()->coordinator();
  EXPECT_NE(crd, kNoNode);
  for (NodeId id = 1; id <= 4; ++id) {
    auto* v = w.node(id).vs();
    EXPECT_EQ(v->coordinator(), crd) << id;
    EXPECT_EQ(v->view().set, (IdSet{1, 2, 3, 4})) << id;
    EXPECT_EQ(v->status(), vs::Status::kMulticast) << id;
  }
}

// Multicast rounds deliver commands to every replica identically.
TEST(VsSmr, CommandsReplicateToAllNodes) {
  World w(vs_config(113));
  converge_vs(w, 3);
  Workload load;
  for (NodeId id = 1; id <= 3; ++id) load.attach(w, id);
  load.push(1, vs::KvStateMachine::set_cmd("a", "1"));
  load.push(2, vs::KvStateMachine::set_cmd("b", "2"));
  load.push(3, vs::KvStateMachine::set_cmd("c", "3"));
  w.run_for(120 * kSec);
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_TRUE(kv_has(w, id, "a", "1")) << id;
    EXPECT_TRUE(kv_has(w, id, "b", "2")) << id;
    EXPECT_TRUE(kv_has(w, id, "c", "3")) << id;
  }
  // Replica digests must be identical (same history applied).
  const std::uint64_t d = kv_of(w, 1).digest();
  EXPECT_EQ(kv_of(w, 2).digest(), d);
  EXPECT_EQ(kv_of(w, 3).digest(), d);
}

// The virtual synchrony property: processors delivering the same
// (view, round) deliver exactly the same message batch.
TEST(VsSmr, VirtualSynchronyHolds) {
  World w(vs_config(115));
  for (NodeId id = 1; id <= 4; ++id) w.add_node(id);
  VirtualSynchronyMonitor monitor;
  monitor.attach(w);
  ASSERT_TRUE(w.run_until_converged(180 * kSec).has_value());
  ASSERT_TRUE(w.run_until_vs_stable(600 * kSec).has_value());
  Workload load;
  for (NodeId id = 1; id <= 4; ++id) load.attach(w, id);
  for (int i = 0; i < 8; ++i) {
    std::string key = "k";  // append, not `"k" + ...`: GCC 12 -Wrestrict
    key += std::to_string(i);
    load.push(1 + (i % 4), vs::KvStateMachine::set_cmd(key, "v"));
  }
  w.run_for(180 * kSec);
  EXPECT_GT(monitor.deliveries(), 0u);
  EXPECT_EQ(monitor.mismatches(), 0u);
}

// Coordinator crash: a new view forms and the replica state is preserved
// (the paper's supportive-majority liveness argument).
TEST(VsSmr, CoordinatorCrashPreservesState) {
  World w(vs_config(117));
  converge_vs(w, 4);
  Workload load;
  for (NodeId id = 1; id <= 4; ++id) load.attach(w, id);
  load.push(1, vs::KvStateMachine::set_cmd("survives", "yes"));
  w.run_for(90 * kSec);
  const NodeId crd = w.node(1).vs()->coordinator();
  ASSERT_TRUE(kv_has(w, crd, "survives", "yes"));
  w.crash(crd);
  // A new view without the crashed coordinator must install.
  const SimTime deadline = w.scheduler().now() + 900 * kSec;
  bool new_view = false;
  while (w.scheduler().now() < deadline && !new_view) {
    w.run_for(50 * kMsec);
    new_view = true;
    for (NodeId id : w.alive()) {
      auto* v = w.node(id).vs();
      if (v->view().set.contains(crd) || v->no_coordinator() ||
          v->status() != vs::Status::kMulticast) {
        new_view = false;
        break;
      }
    }
  }
  ASSERT_TRUE(new_view) << "no post-crash view installed";
  for (NodeId id : w.alive()) {
    EXPECT_TRUE(kv_has(w, id, "survives", "yes")) << id;
  }
}

// A joiner is absorbed into the next view and receives the replica state.
TEST(VsSmr, JoinerReceivesStateThroughView) {
  World w(vs_config(119));
  converge_vs(w, 3);
  Workload load;
  for (NodeId id = 1; id <= 3; ++id) load.attach(w, id);
  load.push(2, vs::KvStateMachine::set_cmd("base", "state"));
  w.run_for(90 * kSec);
  auto& n4 = w.add_node(4);
  const SimTime deadline = w.scheduler().now() + 900 * kSec;
  bool in_view = false;
  while (w.scheduler().now() < deadline && !in_view) {
    w.run_for(50 * kMsec);
    in_view = n4.recsa().is_participant() && n4.vs() != nullptr &&
              n4.vs()->view().set.contains(4) &&
              n4.vs()->status() == vs::Status::kMulticast;
  }
  ASSERT_TRUE(in_view) << "joiner never entered a view";
  EXPECT_TRUE(kv_has(w, 4, "base", "state"));
}

}  // namespace
}  // namespace ssr::harness
