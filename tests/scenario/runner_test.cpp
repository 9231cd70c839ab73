// The scenario interpreter (ScenarioBackend::apply) over a recording fake
// fleet, and the simulator backend's staged surface: bootstrap()/step()/
// finish() is the same execution as run(), and workload actions aimed at a
// paused node return at once (a stopped process takes no commands).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/library.hpp"
#include "scenario/runner.hpp"

namespace ssr::scenario {
namespace {

std::string ids_text(const IdSet& ids) {
  std::string out;
  for (NodeId id : ids) {
    if (!out.empty()) out += ',';
    out += std::to_string(id);
  }
  return out;
}

/// A fleet with no nodes behind it: every primitive appends one line to
/// `log`, so a test reads the interpreter's calls in order. Every alive
/// node reports a VS-stable participant status believing `config`.
class RecordingFleet final : public ScenarioBackend {
 public:
  explicit RecordingFleet(ScenarioSpec spec)
      : ScenarioBackend(std::move(spec), 1) {
    registry_ = std::make_unique<InvariantRegistry>(
        InvariantRegistry::Clock([] { return SimTime{0}; }));
  }

  bool bootstrap() override {
    for (std::size_t i = 0; i < spec_.initial_nodes; ++i) add_node();
    log.clear();
    return true;
  }
  bool sample() override { return true; }
  IdSet alive_ids() const override { return alive_; }

  std::vector<std::string> log;
  IdSet config;

 private:
  void note(const std::string& what, NodeId id) {
    log.push_back(what + " " + std::to_string(id));
  }

  NodeId add_node() override {
    const NodeId id = next_id_++;
    alive_.insert(id);
    trace_.record(TraceKind::kNodeAdded, id);
    note("add", id);
    return id;
  }
  bool crash_node(NodeId id) override {
    note("crash", id);
    if (!alive_.contains(id)) return false;
    alive_.erase(id);
    return true;
  }
  bool pause_node(NodeId id) override {
    note("pause", id);
    return true;
  }
  bool resume_node(NodeId id) override {
    note("resume", id);
    return true;
  }
  void split(const IdSet& a, const IdSet& b) override {
    log.push_back("split " + ids_text(a) + "|" + ids_text(b));
  }
  void heal() override { log.push_back("heal"); }
  void inject(const Action& a, NodeId id) override {
    note(to_string(a.kind), id);
  }
  void plant_config(NodeId id, const IdSet& ids) override {
    log.push_back("conf " + std::to_string(id) + " " + ids_text(ids));
  }
  void garbage_channels(std::uint64_t n) override {
    log.push_back("garbage " + std::to_string(n));
  }
  void increment_burst(const Action&) override { log.push_back("inc"); }
  void shmem_ops(const Action&, bool write) override {
    log.push_back(write ? "shmem_write" : "shmem_read");
  }
  void run_for(SimTime) override { log.push_back("run_for"); }
  bool await(SimTime, const std::function<bool()>& pred) override {
    log.push_back("await");
    return pred();
  }
  bool drained(SimTime) override { return true; }
  std::span<const node::Status> statuses() const override {
    statuses_.clear();
    for (NodeId id : alive_) {
      node::Status s;
      s.id = id;
      s.noreco = true;
      s.participant = true;
      s.config = reconf::ConfigValue::set(config);
      s.vs = node::Status::Vs{true, false, false, 1, 1};
      statuses_.push_back(s);
    }
    return statuses_;
  }
  void settle(ScenarioResult&) override {}

  NodeId next_id_ = 1;
  IdSet alive_;
  mutable std::vector<node::Status> statuses_;
};

ScenarioSpec spec_of(std::size_t nodes) {
  ScenarioSpec s;
  s.name = "recording";
  s.initial_nodes = nodes;
  return s;
}

TEST(ScenarioInterpreter, RebootIsCrashThenFreshId) {
  RecordingFleet fleet(spec_of(3));
  ASSERT_TRUE(fleet.bootstrap());
  fleet.step(Action::reboot({2, 3}));
  EXPECT_EQ(fleet.log, (std::vector<std::string>{"crash 2", "add 4",
                                                 "crash 3", "add 5"}));
  EXPECT_EQ(fleet.alive_ids(), (IdSet{1, 4, 5}));
}

TEST(ScenarioInterpreter, CrashAllCoversEveryAliveNode) {
  RecordingFleet fleet(spec_of(4));
  ASSERT_TRUE(fleet.bootstrap());
  fleet.step(Action::crash({2}));
  fleet.log.clear();
  const std::size_t before = fleet.trace().size();
  fleet.step(Action::crash_all());
  EXPECT_EQ(fleet.log,
            (std::vector<std::string>{"crash 1", "crash 3", "crash 4"}));
  EXPECT_TRUE(fleet.alive_ids().empty());
  // One action record, then one crash record per node actually stopped.
  ASSERT_EQ(fleet.trace().size(), before + 4);
  EXPECT_EQ(fleet.trace()[before + 1].kind, TraceKind::kNodeCrashed);
  EXPECT_EQ(fleet.trace()[before + 3].node, 4u);
}

TEST(ScenarioInterpreter, CrashOfAStoppedNodeRecordsNothing) {
  RecordingFleet fleet(spec_of(2));
  ASSERT_TRUE(fleet.bootstrap());
  fleet.step(Action::crash({2}));
  const std::size_t before = fleet.trace().size();
  fleet.step(Action::crash({2}));
  EXPECT_EQ(fleet.trace().size(), before + 1);  // the action record only
}

TEST(ScenarioInterpreter, SplitConfigStateGivesTargetsToTheFirstHalf) {
  RecordingFleet fleet(spec_of(5));
  ASSERT_TRUE(fleet.bootstrap());
  fleet.step(Action::crash({2}));
  fleet.log.clear();
  // Alive {1,3,4,5}: floor(4/2) = 2 ids believe `targets`.
  fleet.step(Action::split_config_state({1, 3}, {4, 5}));
  EXPECT_EQ(fleet.log,
            (std::vector<std::string>{"conf 1 1,3", "conf 3 1,3",
                                      "conf 4 4,5", "conf 5 4,5"}));

  RecordingFleet odd(spec_of(5));
  ASSERT_TRUE(odd.bootstrap());
  odd.step(Action::split_config_state({9}, {8}));
  EXPECT_EQ(odd.log, (std::vector<std::string>{"conf 1 9", "conf 2 9",
                                               "conf 3 8", "conf 4 8",
                                               "conf 5 8"}));
}

TEST(ScenarioInterpreter, FaultsCloseTheStableWindow) {
  const std::vector<Action> faults = {
      Action::add_nodes(1),
      Action::crash({1}),
      Action::reboot({1}),
      Action::split_network({1}, {2}),
      Action::corrupt_recsa(),
      Action::corrupt_fd({1}),
      Action::split_config_state({1}, {2}),
      Action::garbage_channels(2),
      Action::plant_exhausted_counter({1}, 5),
      Action::plant_recma_flags({1}, true, false),
      Action::crash_all(),
      Action::pause_nodes({1}),
  };
  for (const Action& fault : faults) {
    RecordingFleet fleet(spec_of(3));
    ASSERT_TRUE(fleet.bootstrap());
    fleet.step(Action::mark_stable());
    ASSERT_TRUE(fleet.invariants().stable_marked());
    fleet.step(fault);
    EXPECT_FALSE(fleet.invariants().stable_marked()) << to_string(fault.kind);
  }
  const std::vector<Action> benign = {
      Action::heal_network(), Action::resume_nodes({1}),
      Action::run_for(kSec), Action::increment_burst(1),
      Action::shmem_read({1}, "x")};
  for (const Action& a : benign) {
    RecordingFleet fleet(spec_of(3));
    ASSERT_TRUE(fleet.bootstrap());
    fleet.step(Action::mark_stable());
    fleet.step(a);
    EXPECT_TRUE(fleet.invariants().stable_marked()) << to_string(a.kind);
  }
}

TEST(ScenarioInterpreter, CorruptionWithoutTargetsHitsEveryAliveNode) {
  RecordingFleet fleet(spec_of(3));
  ASSERT_TRUE(fleet.bootstrap());
  fleet.step(Action::corrupt_recsa());
  fleet.step(Action::plant_recma_flags({2}, true, true));
  EXPECT_EQ(fleet.log, (std::vector<std::string>{
                           "corrupt_recsa 1", "corrupt_recsa 2",
                           "corrupt_recsa 3", "plant_recma_flags 2"}));
}

TEST(ScenarioInterpreter, AwaitVsStableWithoutVsFailsAtOnce) {
  RecordingFleet fleet(spec_of(3));
  ASSERT_TRUE(fleet.bootstrap());
  fleet.step(Action::await_vs_stable(600 * kSec));
  EXPECT_TRUE(fleet.failed());
  EXPECT_EQ(fleet.failure(),
            "await_vs_stable: await_vs_stable needs enable_vs in the spec");
  EXPECT_TRUE(fleet.log.empty());  // no await was ever started
  // A failed run applies nothing more.
  fleet.step(Action::crash({1}));
  EXPECT_TRUE(fleet.log.empty());
}

// Keyed routing spans shards: a single group fails on it at once, before
// touching the fleet.
TEST(ScenarioInterpreter, ShardedKindsFailASingleGroupAtOnce) {
  for (const Action& a : {Action::workload(5, "k"), Action::grow_map()}) {
    RecordingFleet fleet(spec_of(3));
    ASSERT_TRUE(fleet.bootstrap());
    fleet.step(a);
    EXPECT_TRUE(fleet.failed());
    EXPECT_EQ(fleet.failure(), std::string(to_string(a.kind)) +
                                   ": needs a sharded spec (shards > 1)");
    EXPECT_TRUE(fleet.log.empty());
  }
}

TEST(ScenarioInterpreter, AwaitsFailWithTheActionKind) {
  RecordingFleet fleet(spec_of(3));
  ASSERT_TRUE(fleet.bootstrap());
  fleet.config = IdSet{1, 2, 3};
  fleet.step(Action::await_config_equals_alive(kSec));
  EXPECT_FALSE(fleet.failed());
  fleet.step(Action::add_nodes(1));  // alive {1,2,3,4}, config unchanged
  fleet.step(Action::await_config_equals_alive(kSec));
  EXPECT_EQ(fleet.failure(),
            "await_config_equals_alive: configuration did not catch up "
            "with the alive set");
}

TEST(ScenarioRunnerStages, StagedDrivingMatchesRun) {
  const auto spec = find_scenario("rolling-churn");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult whole = run_scenario(*spec, 7);

  // Stepping every phase action through the staged surface (as the
  // sharded runner does) is the same execution as run(), minus run()'s
  // phase markers.
  ScenarioRunner staged(*spec, 7);
  ASSERT_TRUE(staged.bootstrap());
  for (const Phase& p : spec->phases) {
    for (const Action& a : p.actions) staged.step(a);
  }
  const ScenarioResult r = staged.finish();
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_EQ(r.sched_events, whole.sched_events);
  EXPECT_EQ(r.sim_time, whole.sim_time);
  EXPECT_EQ(r.trace_events + spec->phases.size(), whole.trace_events);
}

TEST(ScenarioRunnerStages, WorkloadSkipsPausedTargets) {
  ScenarioSpec spec;
  spec.name = "paused-target";
  spec.initial_nodes = 3;
  ScenarioRunner runner(spec, 7);
  ASSERT_TRUE(runner.bootstrap());
  runner.step(Action::await_converged(120 * kSec));
  ASSERT_FALSE(runner.failed()) << runner.failure();
  runner.step(Action::pause_nodes({2}));

  const SimTime t0 = runner.world().scheduler().now();
  runner.step(Action::increment_burst(1, {2}));
  runner.step(Action::shmem_write({2}, "x", 1));
  EXPECT_LT(runner.world().scheduler().now() - t0, kSec);
  EXPECT_EQ(runner.ops_completed(), 0u);

  // The same ops on a running node do complete.
  runner.step(Action::increment_burst(1, {1}));
  EXPECT_EQ(runner.ops_completed(), 1u);
  EXPECT_TRUE(runner.finish().ok);
}

}  // namespace
}  // namespace ssr::scenario
