// The simulator backend's staged surface: bootstrap()/step()/finish() is
// the same execution as run(), and workload actions aimed at a paused node
// return at once (a stopped process takes no commands).
#include <gtest/gtest.h>

#include "scenario/library.hpp"
#include "scenario/runner.hpp"

namespace ssr::scenario {
namespace {

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
