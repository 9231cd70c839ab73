#include "node/status.hpp"

namespace ssr::node {

std::optional<IdSet> agreed_config(std::span<const Status> fleet) {
  for (const Status& s : fleet) {
    if (!s.noreco || !s.config.is_proper() || s.advised ||
        !(s.config == fleet.front().config)) {
      return std::nullopt;
    }
  }
  if (fleet.empty()) return std::nullopt;
  return fleet.front().config.ids();
}

bool vs_stable(std::span<const Status> fleet) {
  if (!agreed_config(fleet)) return false;
  const Status::Vs* common = nullptr;
  for (const Status& s : fleet) {
    if (!s.vs) return false;
    if (!s.participant) continue;
    const Status::Vs& v = *s.vs;
    if (!v.multicast || v.null_view || v.no_coordinator) return false;
    if (common == nullptr) common = &v;
    if (v.view != common->view || v.coordinator != common->coordinator) {
      return false;
    }
  }
  return common != nullptr;
}

}  // namespace ssr::node
