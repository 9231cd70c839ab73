#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/library.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec_io.hpp"

namespace ssr::scenario {
namespace {

std::vector<ScenarioSpec> sharded_specs() {
  std::vector<ScenarioSpec> out;
  for (const ScenarioSpec& s : library()) {
    if (s.shards > 1) out.push_back(s);
  }
  return out;
}

/// A sharded library spec at seed 7, with the pins below: every shard's
/// trace hash and the router's ledger.
struct Pinned {
  const char* name;
  std::array<std::uint64_t, 3> shard_hash;
  std::uint64_t completed, attempted, aborted_faulted, redirected;
};

// Recorded with the sharded runner as it stood before sharded specs became
// ScenarioSpecs, when each ran a script of its own step type: folding the
// spec into ScenarioSpec, and walking phases instead of steps, changed no
// shard's execution byte.
constexpr Pinned kPinned[] = {
    {"sharded-bootstrap",
     {0xf7b515d2e053542eULL, 0x452828074f321932ULL, 0x3ccbc481d8b1eb4fULL},
     18, 18, 0, 0},
    {"sharded-fault-isolation",
     {0x8fff0b4f23ed41d9ULL, 0x6f56910bfb838d09ULL, 0xad7ef94eb2ac62a3ULL},
     29, 36, 7, 0},
    {"sharded-map-growth",
     {0xea6fe230e29c7010ULL, 0x0401283394b19e91ULL, 0x898057cbd09a7847ULL},
     31, 39, 8, 1},
};

void expect_pinned(const Pinned& pin, const ScenarioResult& r) {
  EXPECT_TRUE(r.ok) << r.summary();
  ASSERT_EQ(r.shards.size(), pin.shard_hash.size()) << r.summary();
  for (std::size_t s = 0; s < r.shards.size(); ++s) {
    EXPECT_EQ(r.shards[s].trace_hash, pin.shard_hash[s])
        << pin.name << " shard " << s << ": " << r.summary();
  }
  EXPECT_EQ(r.ops_completed, pin.completed) << r.summary();
  EXPECT_EQ(r.ops_attempted, pin.attempted) << r.summary();
  EXPECT_EQ(r.ops_aborted_faulted, pin.aborted_faulted) << r.summary();
  EXPECT_EQ(r.ops_aborted_healthy, 0u) << r.summary();
  EXPECT_EQ(r.ops_redirected, pin.redirected) << r.summary();
}

TEST(ShardedSim, PinnedShardHashesAndLedgers) {
  for (const Pinned& pin : kPinned) {
    const auto spec = find_scenario(pin.name);
    ASSERT_TRUE(spec.has_value()) << pin.name;
    expect_pinned(pin, run_scenario(*spec, 7));
  }
}

// A sharded spec survives the spec_io format: the loaded copy runs the
// very same shard executions.
TEST(ShardedSim, SavedAndLoadedSpecKeepsThePins) {
  const auto spec = find_scenario("sharded-map-growth");
  ASSERT_TRUE(spec.has_value());
  std::ostringstream out;
  save_spec(out, *spec);
  std::istringstream in(out.str());
  const auto loaded = load_spec(in);
  ASSERT_TRUE(loaded.has_value()) << out.str();
  EXPECT_EQ(loaded->shards, 3u);
  EXPECT_EQ(loaded->initial_map_shards, 2u);
  expect_pinned(kPinned[2], run_scenario(*loaded, 7));
}

TEST(ShardedSim, LibraryRunsClean) {
  const std::vector<ScenarioSpec> specs = sharded_specs();
  ASSERT_GE(specs.size(), 3u);
  for (const ScenarioSpec& spec : specs) {
    const ScenarioResult r = run_scenario(spec, 7);
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.shards.size(), spec.shards) << spec.name;
    EXPECT_TRUE(r.violations.empty()) << r.summary();
    EXPECT_GT(r.ops_completed, 0u) << r.summary();
    for (const auto& shard : r.shards) {
      EXPECT_TRUE(shard.violations.empty())
          << spec.name << " " << shard.name;
    }
  }
}

// Same (spec, seed) ⇒ bit-identical per-shard executions: the K worlds run
// in deterministic lockstep and the router is pure, so every shard's trace
// hash and scheduler event count replay exactly.
TEST(ShardedSim, RunsAreDeterministic) {
  const auto spec = find_scenario("sharded-bootstrap");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult a = run_scenario(*spec, 7);
  const ScenarioResult b = run_scenario(*spec, 7);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].trace_hash, b.shards[s].trace_hash) << s;
    EXPECT_EQ(a.shards[s].trace_events, b.shards[s].trace_events) << s;
    EXPECT_EQ(a.shards[s].sched_events, b.shards[s].sched_events) << s;
  }
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.trace_hash, b.trace_hash);

  // And shards are actually independent streams: distinct seeds per shard
  // mean distinct executions.
  EXPECT_NE(a.shards[0].trace_hash, a.shards[1].trace_hash);
}

TEST(ShardedSim, FaultInOneShardDoesNotStallOthers) {
  const auto spec = find_scenario("sharded-fault-isolation");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult r = run_scenario(*spec, 7);
  EXPECT_TRUE(r.ok) << r.summary();
  // Every abort happened on the stalled shard; healthy shards served every
  // op routed at them, through a concurrent reconfiguration in shard 0.
  EXPECT_EQ(r.ops_aborted_healthy, 0u) << r.summary();
  EXPECT_GT(r.ops_completed, 0u);
  EXPECT_EQ(r.ops_completed + r.ops_aborted_faulted, r.ops_attempted);
}

TEST(ShardedSim, MapGrowthRedirectsKeysUnderLoad) {
  const auto spec = find_scenario("sharded-map-growth");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult r = run_scenario(*spec, 7);
  EXPECT_TRUE(r.ok) << r.summary();
  // The epoch change landed mid-workload: at least one op was re-routed,
  // and the fresh shard actually served traffic.
  EXPECT_GT(r.ops_redirected, 0u) << r.summary();
  ASSERT_EQ(r.shards.size(), 3u);
  EXPECT_GT(r.shards[2].ops_completed, 0u)
      << "fresh shard never served a redirected key";
}

// A spec built in code skips load_spec's checks; growing the map past the
// spec's fleets fails the run instead of routing keys to a missing shard.
TEST(ShardedSim, GrowingPastTheFleetsFailsTheRun) {
  ScenarioSpec spec;
  spec.name = "grow-past-fleets";
  spec.initial_nodes = 3;
  spec.shards = 2;
  spec.phases.push_back(
      {"grow", {Action::grow_map(), Action::workload(4, "k")}});
  const ScenarioResult r = run_scenario(spec, 7);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("grow_map"), std::string::npos) << r.summary();
}

// Every completed op lands in its shard's latency histogram, so sweep
// aggregation (which merges histograms) sees the same ops the ledger counts.
TEST(ShardedSim, LatencyHistogramCoversEveryCompletedOp) {
  for (const ScenarioSpec& spec : sharded_specs()) {
    const ScenarioResult r = run_scenario(spec, 7);
    std::uint64_t completed = 0;
    for (const auto& shard : r.shards) {
      EXPECT_EQ(shard.op_latency.count(), shard.ops_completed) << shard.name;
      completed += shard.ops_completed;
    }
    EXPECT_GT(completed, 0u) << spec.name;
    EXPECT_EQ(r.op_latency.count(), completed) << spec.name;
  }
}

// Stack options reach every shard: each fleet is the parent spec with one
// shard and no phases, so an adversarial sharded spec runs every shard
// under the worst-case scheduler (a different execution from the fair one).
TEST(ShardedSim, StackOptionsReachEveryShard) {
  auto spec = find_scenario("sharded-bootstrap");
  ASSERT_TRUE(spec.has_value());
  const ScenarioResult fair = run_scenario(*spec, 7);
  spec->adversarial = true;
  const ScenarioResult adv = run_scenario(*spec, 7);
  EXPECT_TRUE(adv.ok) << adv.summary();
  ASSERT_EQ(adv.shards.size(), fair.shards.size());
  for (std::size_t s = 0; s < adv.shards.size(); ++s) {
    EXPECT_NE(adv.shards[s].trace_hash, fair.shards[s].trace_hash) << s;
    EXPECT_EQ(adv.shards[s].name,
              "sharded-bootstrap/shard" + std::to_string(s));
  }
}

}  // namespace
}  // namespace ssr::scenario
