#include <gtest/gtest.h>

#include <memory>

#include "scenario/runner.hpp"
#include "shard/sharded_runner.hpp"
#include "shard/sharded_scenario.hpp"

namespace ssr::shard {
namespace {

// K simulated worlds under the one sharded runner.
ShardedResult run_sharded_sim(const ShardedSpec& spec, std::uint64_t seed) {
  ShardedRunner runner(spec, seed,
                       [](const scenario::ScenarioSpec& fleet,
                          std::uint64_t shard_seed, std::uint32_t) {
                         return std::make_unique<scenario::ScenarioRunner>(
                             fleet, shard_seed);
                       });
  return runner.run();
}

TEST(ShardedSim, LibraryRunsClean) {
  ASSERT_GE(sharded_library().size(), 3u);
  for (const ShardedSpec& spec : sharded_library()) {
    const ShardedResult r = run_sharded_sim(spec, 7);
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.per_shard.size(), spec.shards) << spec.name;
    EXPECT_EQ(r.ops_aborted_healthy, 0u) << r.summary();
    EXPECT_GT(r.ops_completed, 0u) << r.summary();
    for (const auto& shard : r.per_shard) {
      EXPECT_TRUE(shard.violations.empty())
          << spec.name << " " << shard.name;
    }
  }
}

// Same (spec, seed) ⇒ bit-identical per-shard executions: the K worlds run
// in deterministic lockstep and the router is pure, so every shard's trace
// hash and scheduler event count replay exactly.
TEST(ShardedSim, RunsAreDeterministic) {
  const auto spec = find_sharded_scenario("sharded-bootstrap");
  ASSERT_TRUE(spec.has_value());
  const ShardedResult a = run_sharded_sim(*spec, 7);
  const ShardedResult b = run_sharded_sim(*spec, 7);
  ASSERT_EQ(a.per_shard.size(), b.per_shard.size());
  for (std::size_t s = 0; s < a.per_shard.size(); ++s) {
    EXPECT_EQ(a.per_shard[s].trace_hash, b.per_shard[s].trace_hash) << s;
    EXPECT_EQ(a.per_shard[s].trace_events, b.per_shard[s].trace_events) << s;
    EXPECT_EQ(a.per_shard[s].sched_events, b.per_shard[s].sched_events) << s;
  }
  EXPECT_EQ(a.ops_completed, b.ops_completed);

  // And shards are actually independent streams: distinct seeds per shard
  // mean distinct executions.
  EXPECT_NE(a.per_shard[0].trace_hash, a.per_shard[1].trace_hash);
}

TEST(ShardedSim, FaultInOneShardDoesNotStallOthers) {
  const auto spec = find_sharded_scenario("sharded-fault-isolation");
  ASSERT_TRUE(spec.has_value());
  const ShardedResult r = run_sharded_sim(*spec, 7);
  EXPECT_TRUE(r.ok) << r.summary();
  // Every abort happened on the stalled shard; healthy shards served every
  // op routed at them, through a concurrent reconfiguration in shard 0.
  EXPECT_EQ(r.ops_aborted_healthy, 0u) << r.summary();
  EXPECT_GT(r.ops_completed, 0u);
  EXPECT_EQ(r.ops_completed + r.ops_aborted_faulted, r.ops_attempted);
}

TEST(ShardedSim, MapGrowthRedirectsKeysUnderLoad) {
  const auto spec = find_sharded_scenario("sharded-map-growth");
  ASSERT_TRUE(spec.has_value());
  const ShardedResult r = run_sharded_sim(*spec, 7);
  EXPECT_TRUE(r.ok) << r.summary();
  // The epoch change landed mid-workload: at least one op was re-routed,
  // and the fresh shard actually served traffic.
  EXPECT_GT(r.ops_redirected, 0u) << r.summary();
  ASSERT_EQ(r.per_shard.size(), 3u);
  EXPECT_GT(r.per_shard[2].ops_completed, 0u)
      << "fresh shard never served a redirected key";
}

// Every completed op lands in its shard's latency histogram, so sweep
// aggregation (which merges histograms) sees the same ops the ledger counts.
TEST(ShardedSim, LatencyHistogramCoversEveryCompletedOp) {
  for (const ShardedSpec& spec : sharded_library()) {
    const ShardedResult r = run_sharded_sim(spec, 7);
    std::uint64_t completed = 0;
    for (const auto& shard : r.per_shard) {
      EXPECT_EQ(shard.op_latency.count(), shard.ops_completed) << shard.name;
      completed += shard.ops_completed;
    }
    EXPECT_GT(completed, 0u) << spec.name;
  }
}

}  // namespace
}  // namespace ssr::shard
