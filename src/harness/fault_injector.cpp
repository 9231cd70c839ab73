#include "harness/fault_injector.hpp"

namespace ssr::harness {

void FaultInjector::corrupt_recsa(NodeId id) {
  corrupt_recsa(world_.node(id), rng_, world_.alive());
}

void FaultInjector::corrupt_all_recsa() {
  for (NodeId id : world_.alive()) corrupt_recsa(id);
}

void FaultInjector::split_config(const IdSet& a, const IdSet& b) {
  const IdSet alive = world_.alive();
  std::size_t i = 0;
  for (NodeId id : alive) {
    plant_config(world_.node(id), i++ < alive.size() / 2 ? a : b);
  }
}

void FaultInjector::corrupt_fd(NodeId id) {
  corrupt_fd(world_.node(id), rng_);
}

void FaultInjector::corrupt_all_fd() {
  for (NodeId id : world_.alive()) corrupt_fd(id);
}

void FaultInjector::fill_channels_with_garbage(std::size_t per_channel) {
  world_.network().for_each_channel(
      [&](NodeId, NodeId, net::Channel& ch) { ch.inject_garbage(per_channel); });
}

void FaultInjector::plant_recma_flags(NodeId id, bool no_maj,
                                      bool need_reconf) {
  plant_recma_flags(world_.node(id), world_.alive(), no_maj, need_reconf);
}

void FaultInjector::plant_exhausted_counter(NodeId id, std::uint64_t seqn) {
  plant_exhausted_counter(world_.node(id), rng_, seqn);
}

void FaultInjector::corrupt_recsa(node::Node& n, Rng& rng, const IdSet& ids) {
  n.recsa().inject_corruption(rng, ids);
}

void FaultInjector::corrupt_fd(node::Node& n, Rng& rng) {
  n.failure_detector().inject_corruption(rng);
}

void FaultInjector::plant_config(node::Node& n, const IdSet& config) {
  n.recsa().inject_config(n.id(), reconf::ConfigValue::set(config));
}

void FaultInjector::plant_recma_flags(node::Node& n, const IdSet& ids,
                                      bool no_maj, bool need_reconf) {
  for (NodeId other : ids) n.recma().inject_flags(other, no_maj, need_reconf);
}

void FaultInjector::plant_exhausted_counter(node::Node& n, Rng& rng,
                                            std::uint64_t seqn) {
  counter::Counter c;
  c.lbl = label::Label::next_label(n.id(), {}, rng);
  c.seqn = seqn;
  c.wid = n.id();
  n.counters().store().inject_max(n.id(), counter::CounterPair::of(c));
}

}  // namespace ssr::harness
