#pragma once

#include "counter/counter.hpp"

namespace ssr::vs {

using counter::Counter;

/// A view ⟨ID, set⟩ (paper §4.3): a processor set together with a unique
/// identifier drawn from the self-stabilizing counter scheme. View IDs are
/// totally ordered by ≺ct, and the writer id inside the counter names the
/// proposer/coordinator.
struct View {
  Counter id;  // boot value: creator kNoNode — smaller than any real counter
  IdSet set;

  /// The processor that minted this view's identifier (the coordinator).
  NodeId proposer() const { return id.wid; }

  /// True for the boot/default view (no real counter minted yet).
  bool is_null() const { return id.wid == kNoNode; }

  friend bool operator==(const View&, const View&) = default;

  /// ≺ct on view identifiers; the null (boot) view is below every real one
  /// (its creator sentinel would otherwise compare greatest).
  static bool id_less(const View& a, const View& b) {
    if (a.is_null()) return !b.is_null();
    if (b.is_null()) return false;
    return Counter::ct_less(a.id, b.id);
  }

  void encode(wire::Writer& w) const;
  static std::optional<View> decode(wire::Reader& r);

  /// 64-bit FNV-1a over every field operator== compares (the counter's
  /// label with its antistings, seqn, writer, and the member set), so two
  /// views that differ only in their label digest differently.
  std::uint64_t digest() const;

  std::string to_string() const;
};

}  // namespace ssr::vs
