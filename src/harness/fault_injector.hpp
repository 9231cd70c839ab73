#pragma once

#include "harness/world.hpp"

namespace ssr::harness {

/// Transient-fault injection (the paper's fault model: an arbitrary
/// starting state of processors and channels). Every injector leaves the
/// *code* intact and corrupts only state, as self-stabilization requires.
class FaultInjector {
 public:
  explicit FaultInjector(World& world, std::uint64_t seed)
      : world_(world), rng_(seed) {}

  /// Arbitrary recSA state at one node (configs, notifications, echoes).
  void corrupt_recsa(NodeId id);
  /// Arbitrary recSA state at every alive node — the canonical "arbitrary
  /// starting state" of the convergence theorems.
  void corrupt_all_recsa();
  /// Plants a specific configuration conflict: half the nodes believe
  /// `a`, the rest believe `b`.
  void split_config(const IdSet& a, const IdSet& b);
  /// Scrambles failure-detector heartbeat counts.
  void corrupt_fd(NodeId id);
  void corrupt_all_fd();
  /// Fills every channel with garbage packets (stale channel content).
  void fill_channels_with_garbage(std::size_t per_channel = 2);
  /// Stale recMA flags (bounded-triggering experiment, Lemma 3.18).
  void plant_recma_flags(NodeId id, bool no_maj, bool need_reconf);
  /// Near-exhausted counter planted at a member (epoch rollover tests).
  void plant_exhausted_counter(NodeId id, std::uint64_t seqn);

  // -- Per-node fault bodies -------------------------------------------------
  // The one definition of each fault, shared by the methods above and by
  // ssr_node's control socket. `ids` is the id universe the node's state is
  // corrupted against (the alive set here, the peer map in a daemon).
  static void corrupt_recsa(node::Node& n, Rng& rng, const IdSet& ids);
  static void corrupt_fd(node::Node& n, Rng& rng);
  static void plant_config(node::Node& n, const IdSet& config);
  static void plant_recma_flags(node::Node& n, const IdSet& ids, bool no_maj,
                                bool need_reconf);
  static void plant_exhausted_counter(node::Node& n, Rng& rng,
                                      std::uint64_t seqn);

  Rng& rng() { return rng_; }

 private:
  World& world_;
  Rng rng_;
};

}  // namespace ssr::harness
