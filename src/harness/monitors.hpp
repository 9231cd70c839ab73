#pragma once

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "harness/world.hpp"

namespace ssr::harness {

/// Records every configuration change at every node — used to verify
/// closure (Theorem 3.16: no changes during legal executions) and to count
/// reconfigurations in the benches.
class ConfigHistoryMonitor {
 public:
  struct Event {
    SimTime when = 0;
    NodeId node = kNoNode;
    reconf::ConfigValue config;
  };

  /// Attaches to every node currently in the world.
  void attach(World& world);
  void attach_node(World& world, NodeId id);

  /// Direct feed for world-less observers (the process backend records
  /// changes it samples over the control socket).
  void record(SimTime when, NodeId node, reconf::ConfigValue config) {
    events_.push_back(Event{when, node, std::move(config)});
  }

  const std::vector<Event>& events() const { return events_; }
  std::size_t events_since(SimTime t) const;
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

/// Validates Theorem 4.6: counters returned by completed increments are
/// strictly increasing with respect to real-time order — if increment A
/// completed before increment B began, then counter(A) ≺ct counter(B).
class CounterOrderMonitor {
 public:
  struct Op {
    SimTime started = 0;
    SimTime finished = 0;
    counter::Counter value;
  };

  void record(SimTime started, SimTime finished, const counter::Counter& c) {
    ops_.push_back(Op{started, finished, c});
  }

  std::size_t completed() const { return ops_.size(); }
  /// Number of real-time-ordered pairs that violate ≺ct (must be 0).
  std::size_t violations() const;

 private:
  std::vector<Op> ops_;
};

/// Validates the virtual synchrony property (Theorem 4.13): any two
/// processors that deliver a batch for the same (view id, round) deliver
/// exactly the same messages, and replica digests never diverge at equal
/// (view, round).
///
/// Keeps one batch digest per distinct (view id, round) delivered, in an
/// ordered map: memory grows by one entry per round for the monitor's whole
/// life (rounds_observed() of them), and each delivery costs O(log rounds).
class VirtualSynchronyMonitor {
 public:
  void attach(World& world);
  void attach_node(World& world, NodeId id);

  /// One delivery: the first batch seen at (view id, round) is the
  /// reference; every later one that differs is a mismatch.
  void record(const vs::View& view, std::uint64_t rnd,
              const std::vector<std::pair<NodeId, wire::Bytes>>& msgs);

  std::size_t deliveries() const { return deliveries_; }
  std::size_t mismatches() const { return mismatches_; }
  std::uint64_t rounds_observed() const { return digests_.size(); }

 private:
  /// The view id's (label creator, sting, antistings, seqn, writer), then
  /// the round: equivalent keys are exactly the equal ones.
  using RoundKey =
      std::tuple<NodeId, std::uint32_t, std::vector<std::uint32_t>,
                 std::uint64_t, NodeId, std::uint64_t>;
  static std::uint64_t digest_msgs(
      const std::vector<std::pair<NodeId, wire::Bytes>>& msgs);

  std::map<RoundKey, std::uint64_t> digests_;
  std::size_t deliveries_ = 0;
  std::size_t mismatches_ = 0;
};

}  // namespace ssr::harness
