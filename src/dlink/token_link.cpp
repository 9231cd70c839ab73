#include "dlink/token_link.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace ssr::dlink {

TokenLink::TokenLink(net::Transport& transport, Rng rng, LinkConfig cfg,
                     NodeId self, NodeId peer, ComposeFn compose,
                     DeliverFn deliver, HeartbeatFn heartbeat)
    : transport_(transport),
      rng_(rng),
      cfg_(cfg),
      self_(self),
      peer_(peer),
      compose_(std::move(compose)),
      deliver_(std::move(deliver)),
      heartbeat_(std::move(heartbeat)) {
  SSR_ASSERT(cfg_.label_domain >= 4, "label domain too small");
  rx_clean_ = !cfg_.strict_clean;
}

void TokenLink::start() {
  if (tx_state_ != TxState::kIdle) return;
  down_ = false;
  tx_state_ = TxState::kCleaning;
  clean_nonce_ = static_cast<std::uint8_t>(rng_.next_below(cfg_.label_domain));
  acks_seen_ = 0;
  transmit_current();
  arm_timer();
}

void TokenLink::shutdown() {
  timer_.cancel();
  tx_state_ = TxState::kIdle;
  down_ = true;  // a crashed endpoint takes no further steps, not even acks
}

void TokenLink::arm_timer() {
  timer_.cancel();
  // Small jitter keeps links from lock-stepping in the simulation.
  const SimTime jitter = rng_.next_below(cfg_.retransmit_period / 4 + 1);
  timer_ = transport_.schedule_after(cfg_.retransmit_period + jitter,
                                     [this]() { on_timer(); });
}

void TokenLink::on_timer() {
  if (tx_state_ == TxState::kIdle) return;
  transmit_current();
  arm_timer();
}

void TokenLink::transmit_current() {
  // Re-encoded and re-sealed on every send: no sealed copy of the frame
  // outlives the send (see wire::fnv1a32 for why).
  const bool cleaning = tx_state_ == TxState::kCleaning;
  transport_.send(self_, peer_,
                  encode_frame(cleaning ? FrameKind::kClean : FrameKind::kData,
                               self_, cleaning ? clean_nonce_ : tx_label_,
                               tx_payload_));
}

void TokenLink::begin_round() {
  tx_label_ = static_cast<std::uint8_t>((tx_label_ + 1) % cfg_.label_domain);
  acks_seen_ = 0;
  // The previous round's payload buffer feeds the next compose.
  wire::BufferPool::local().release(std::move(tx_payload_));
  tx_payload_ = compose_();
  transmit_current();
}

void TokenLink::handle_frame(const FrameView& frame) {
  if (down_) return;
  switch (frame.kind) {
    case FrameKind::kData: {
      // Receiver side of link (peer → self).
      if (frame.link_sender != peer_) return;
      if (!rx_clean_) {
        // Paper §3.3: a fresh endpoint must not consume possibly-stale
        // packets before the link is cleaned; the quarantine lifts only
        // after more than the round-trip capacity of cleaning probes.
        ++stats_.stale_discarded;
        return;
      }
      // The ack names the link, i.e. its sender.
      transport_.send(self_, peer_,
                      encode_frame(FrameKind::kAck, peer_, frame.label));
      const bool seen =
          std::find(rx_recent_.begin(), rx_recent_.end(), frame.label) !=
          rx_recent_.end();
      if (!seen) {
        // ssr-lint: allow(hot-path-alloc): label-history deque, bounded by label_domain/2.
        rx_recent_.push_front(frame.label);
        // History shorter than the label domain (else fresh labels would be
        // rejected) but long enough to cover reordered stragglers.
        while (rx_recent_.size() > cfg_.label_domain / 2u) rx_recent_.pop_back();
        ++stats_.frames_delivered;
        heartbeat_();
        // Only a fresh label's payload is copied out of the packet; the
        // retransmitted duplicates that dominate a silent run never are.
        wire::Bytes payload = frame.copy_payload();
        deliver_(payload);
        wire::BufferPool::local().release(std::move(payload));
      }
      return;
    }
    case FrameKind::kAck: {
      // Sender side of link (self → peer).
      if (frame.link_sender != self_ || tx_state_ != TxState::kRunning) return;
      if (frame.label != tx_label_) return;  // stale ack
      if (++acks_seen_ > cfg_.ack_threshold) {
        ++stats_.rounds_completed;
        heartbeat_();
        begin_round();
      }
      return;
    }
    case FrameKind::kClean: {
      if (frame.link_sender != peer_) return;
      // Reset the receiver side: everything previously in flight on this
      // link is untrusted. The sender needs > clean_threshold CLEAN-ACKs
      // before it transmits data, and acks are only sent on probe arrival,
      // so by that point we have seen at least as many probes — any stale
      // data packet has drained from the bounded channel meanwhile.
      // The label history resets only when a *new* cleaning epoch (fresh
      // nonce) starts; straggling probes of the current epoch must not
      // reopen the window for already-delivered labels.
      if (frame.label != rx_clean_nonce_ || rx_clean_count_ == 0) {
        rx_clean_nonce_ = frame.label;
        rx_clean_count_ = 0;
        rx_recent_.clear();
      }
      ++rx_clean_count_;
      if (rx_clean_count_ > cfg_.clean_threshold) rx_clean_ = true;
      transport_.send(self_, peer_,
                      encode_frame(FrameKind::kCleanAck, peer_, frame.label));
      return;
    }
    case FrameKind::kCleanAck: {
      if (frame.link_sender != self_ || tx_state_ != TxState::kCleaning) return;
      if (frame.label != clean_nonce_) return;
      if (++acks_seen_ > cfg_.clean_threshold) {
        ++stats_.cleans_completed;
        tx_state_ = TxState::kRunning;
        tx_label_ = static_cast<std::uint8_t>(rng_.next_below(cfg_.label_domain));
        begin_round();
      }
      return;
    }
  }
}

}  // namespace ssr::dlink
