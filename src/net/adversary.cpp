#include "net/adversary.hpp"

#include "dlink/frame.hpp"

namespace ssr::net {

SimTime Adversary::delivery_delay(NodeId src, NodeId dst,
                                  const wire::Bytes& payload, SimTime base,
                                  SimTime min_delay, SimTime max_delay) {
  ++stats_.inspected;
  if (probe_ && sched_.now() >= next_probe_) {
    coordinator_ = probe_();
    next_probe_ = sched_.now() + kProbePeriod;
  }
  const SimTime window = max_delay - min_delay;

  // Rule 1 — stale labels first. Token links retransmit one labelled frame
  // until acked, then step the label; delivering the *repeats* early and
  // holding the *transition* back means receivers keep chewing on old state
  // while new state crawls. Anything but a sealed data frame (garbage
  // included) skips this rule. The frame is parsed in place; its payload is
  // never copied.
  const std::optional<dlink::FrameView> frame =
      cfg_.stale_first > 0 ? dlink::parse_frame(payload) : std::nullopt;
  if (frame && frame->kind == dlink::FrameKind::kData) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(src) << 32) | dst;
    auto it = last_label_.find(key);
    const bool fresh = it == last_label_.end() || it->second != frame->label;
    if (fresh) {
      // ssr-lint: allow(hot-path-alloc) growing-container: one slot per
      // directed link, bounded by the topology; steady state is find-only.
      last_label_[key] = frame->label;
    }
    if (rng_.chance(cfg_.stale_first)) {
      ++stats_.stale_preferred;
      return fresh ? max_delay : min_delay;
    }
  }

  // Rule 2 — starve the coordinator (within fairness bounds): every frame
  // it sends or receives lands in the top eighth of the delay window.
  if (coordinator_ != kNoNode &&
      (src == coordinator_ || dst == coordinator_) &&
      rng_.chance(cfg_.coordinator_delay)) {
    ++stats_.coordinator_delayed;
    return max_delay - rng_.next_below(window / 8 + 1);
  }

  // Rule 3 — maximal reordering across the partition boundary: bimodal
  // delays make post-heal reconciliation traffic interleave as wildly as
  // the window allows.
  if (crosses_boundary(src, dst) && rng_.chance(cfg_.boundary_reorder)) {
    ++stats_.boundary_reordered;
    return rng_.chance(0.5) ? min_delay : max_delay;
  }

  return base;
}

}  // namespace ssr::net
