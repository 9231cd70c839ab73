#include "harness/monitors.hpp"

#include <algorithm>

namespace ssr::harness {

void ConfigHistoryMonitor::attach(World& world) {
  for (NodeId id : world.all_ids()) attach_node(world, id);
}

void ConfigHistoryMonitor::attach_node(World& world, NodeId id) {
  auto& n = world.node(id);
  n.recsa().add_config_change_handler(
      [this, &world, id](const reconf::ConfigValue& c) {
        events_.push_back(Event{world.scheduler().now(), id, c});
      });
}

std::size_t ConfigHistoryMonitor::events_since(SimTime t) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [t](const Event& e) { return e.when >= t; }));
}

std::size_t CounterOrderMonitor::violations() const {
  std::size_t bad = 0;
  for (std::size_t a = 0; a < ops_.size(); ++a) {
    for (std::size_t b = 0; b < ops_.size(); ++b) {
      if (a == b) continue;
      if (ops_[a].finished < ops_[b].started) {
        if (!counter::Counter::ct_less(ops_[a].value, ops_[b].value)) ++bad;
      }
    }
  }
  return bad;
}

std::uint64_t VirtualSynchronyMonitor::digest_msgs(
    const std::vector<std::pair<NodeId, wire::Bytes>>& msgs) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [id, m] : msgs) {
    h = (h ^ id) * 1099511628211ULL;
    for (std::uint8_t b : m) h = (h ^ b) * 1099511628211ULL;
  }
  return h;
}

void VirtualSynchronyMonitor::attach(World& world) {
  for (NodeId id : world.all_ids()) attach_node(world, id);
}

void VirtualSynchronyMonitor::attach_node(World& world, NodeId id) {
  auto& n = world.node(id);
  if (n.vs() == nullptr) return;
  n.vs()->add_deliver_handler(
      [this](const vs::View& v, std::uint64_t rnd,
             const std::vector<std::pair<NodeId, wire::Bytes>>& msgs) {
        record(v, rnd, msgs);
      });
}

void VirtualSynchronyMonitor::record(
    const vs::View& view, std::uint64_t rnd,
    const std::vector<std::pair<NodeId, wire::Bytes>>& msgs) {
  ++deliveries_;
  const std::uint64_t d = digest_msgs(msgs);
  const counter::Counter& c = view.id;
  const auto [it, fresh] = digests_.try_emplace(
      RoundKey{c.lbl.creator, c.lbl.sting, c.lbl.antistings, c.seqn, c.wid,
               rnd},
      d);
  if (!fresh && it->second != d) ++mismatches_;
}

}  // namespace ssr::harness
