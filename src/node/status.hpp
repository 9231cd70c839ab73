#pragma once

#include <optional>
#include <span>

#include "reconf/config_value.hpp"

namespace ssr::node {

/// One processor's state as the legality predicates below read it.
/// Node::status() produces it; ssr_node ships it in STATUS replies
/// (scenario::ctl::format_status), so both fleets judge the same value. A
/// default Status (a node not heard from yet) satisfies no predicate.
struct Status {
  NodeId id = kNoNode;
  bool noreco = false;  // recSA's noReco()
  bool participant = false;
  /// The prediction policy advises replacing `config` (false unless proper).
  bool advised = false;
  reconf::ConfigValue config;  // the believed configuration

  /// The VS layer (Algorithm 4.7); absent when the layer is disabled.
  struct Vs {
    bool multicast = false;
    bool null_view = true;
    bool no_coordinator = true;
    NodeId coordinator = kNoNode;
    std::uint64_t view = 0;  // vs::View::digest(), label included
    friend bool operator==(const Vs&, const Vs&) = default;
  };
  std::optional<Vs> vs;

  friend bool operator==(const Status&, const Status&) = default;
};

/// The configuration a fleet agrees on, the conflict-free state of Theorem
/// 3.15: every status reports noReco and the same proper configuration,
/// and none is advised to replace it (agreement on a config the policy is
/// about to move is not a fixpoint). nullopt otherwise, and for an empty
/// fleet. Allocation-free: harnesses poll it every few ms.
std::optional<IdSet> agreed_config(std::span<const Status> fleet);

/// agreed_config() holds, every status comes from a node running the VS
/// layer, and every participant multicasts in one common non-null view
/// with one coordinator (joiners are skipped: they sync up after
/// installation). Needs at least one participant.
bool vs_stable(std::span<const Status> fleet);

}  // namespace ssr::node
