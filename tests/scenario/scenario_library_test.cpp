#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "scenario/library.hpp"
#include "scenario/runner.hpp"

namespace ssr::scenario {
namespace {

TEST(ScenarioLibrary, HasAtLeastEightScenarios) {
  EXPECT_GE(library().size(), 8u);
  for (const ScenarioSpec& s : library()) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.phases.empty()) << s.name;
    EXPECT_TRUE(find_scenario(s.name).has_value()) << s.name;
  }
}

TEST(ScenarioLibrary, NamesAreUnique) {
  const auto& specs = library();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i].name, specs[j].name);
    }
  }
}

// Transport-seam regression: the node stack talks to the fabric only
// through net::Transport, and SimTransport must be a pure pass-through —
// neither the RNG draw order nor the event order may shift. These hashes
// were recorded with `scenario_runner --all --seed 7` on the
// pre-abstraction fabric (nodes holding net::Network& directly); the last
// six (crash-respawn onward) were recorded the same way just before the
// action interpreter moved into ScenarioBackend. Any drift means a refactor
// changed an execution byte. A scenario absent from the table (i.e. added
// later) only skips the pin, not the run.
std::optional<std::uint64_t> golden_hash(const std::string& name) {
  static const std::map<std::string, std::uint64_t> kGolden = {
      {"bootstrap", 0xce2678749c4583c8ULL},
      {"rolling-churn", 0xbe6ff89e3ace23f6ULL},
      {"majority-split", 0x41d52179c0d85f75ULL},
      {"flood-of-joiners", 0xd007c8c49c9302f2ULL},
      {"epoch-rollover", 0x5c7f699101078647ULL},
      {"garbage-channel-recovery", 0xb195c4603df5a386ULL},
      {"partition-heal", 0x031c62e095a445aeULL},
      {"silent-after-convergence", 0x7e9b5019c0999d93ULL},
      {"transient-blast", 0xdfcca4eecaffd454ULL},
      {"vs-workload", 0x2612b84b5b6b7f0dULL},
      {"crash-respawn", 0x6d65ea7e7c1800cbULL},
      {"stall-resume", 0x4457580b3c40a12eULL},
      {"pause-through-heal", 0x773e6db904f54e86ULL},
      {"joiner-adoption", 0xbb39866c5460c7d0ULL},
      {"crash-then-stable", 0xace38b52b2fd91d3ULL},
      {"adversarial-bitflips", 0xb677869a15c7dd2cULL},
  };
  auto it = kGolden.find(name);
  if (it == kGolden.end()) return std::nullopt;
  return it->second;
}

// Every library scenario runs clean: awaits met, zero invariant violations,
// and (for the pinned set) a byte-identical trace to the golden record.
// Parameterized over library() itself so a newly added scenario is covered
// automatically.
class RunsClean : public ::testing::TestWithParam<std::string> {};

TEST_P(RunsClean, ZeroViolationsAndGoldenTrace) {
  auto spec = find_scenario(GetParam());
  ASSERT_TRUE(spec.has_value()) << GetParam();
  const ScenarioResult r = run_scenario(*spec, 7);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_TRUE(r.violations.empty()) << r.summary();
  EXPECT_TRUE(r.failure.empty()) << r.summary();
  EXPECT_GT(r.trace_events, 0u);
  if (auto hash = golden_hash(GetParam())) {
    EXPECT_EQ(r.trace_hash, *hash)
        << "trace drifted from the pre-Transport-refactor fabric: "
        << r.summary();
  }
}

std::vector<std::string> library_names() {
  std::vector<std::string> out;
  for (const ScenarioSpec& s : library()) out.push_back(s.name);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Library, RunsClean,
                         ::testing::ValuesIn(library_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace ssr::scenario
