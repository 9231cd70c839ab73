#include "sim/scheduler.hpp"

#include <bit>

#include "util/assert.hpp"

namespace ssr::sim {

void Scheduler::reserve(std::size_t events) {
  slots_.reserve(events);
  heap_.reserve(events);
}

std::uint32_t Scheduler::alloc_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next;
    slots_[slot].next = kNoSlot;
    return slot;
  }
  // ssr-lint: allow(hot-path-alloc): slab growth, bounded by the peak live-event population.
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Bumping the generation retires every outstanding {slot, gen} handle and
  // turns a far event's heap entry into a tombstone in one store.
  ++s.gen;
  s.kind = Kind::kFree;
  s.sink = nullptr;
  if (s.payload.capacity() != 0) {
    pool_.release(std::move(s.payload));
    s.payload = wire::Bytes();
  }
  if (s.fn) s.fn = nullptr;
  s.next = free_head_;
  free_head_ = slot;
  --live_;
}

void Scheduler::heap_push(const HeapEntry& e) {
  std::size_t i = heap_.size();
  // ssr-lint: allow(hot-path-alloc): amortized heap growth, capacity sticks across laps.
  heap_.resize(i + 1);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];  // move the hole up
    i = parent;
  }
  heap_[i] = e;
}

void Scheduler::heap_pop() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t m = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[m])) m = c;
    }
    if (!earlier(heap_[m], last)) break;
    heap_[i] = heap_[m];  // move the hole down
    i = m;
  }
  heap_[i] = last;
}

Scheduler::Handle Scheduler::push_event(SimTime when, std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::uint64_t seq = next_seq_++;
  ++live_;
  s.far = when - now_ >= kWheelSize;
  if (s.far) {
    heap_push(HeapEntry{when, seq, slot, s.gen});
    return Handle(this, slot, s.gen);
  }
  s.when = when;
  s.seq = seq;
  const std::size_t b = when % kWheelSize;
  Bucket& bucket = buckets_[b];
  s.prev = bucket.tail;
  s.next = kNoSlot;
  if (bucket.tail == kNoSlot) {
    bucket.head = slot;
    occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
  } else {
    slots_[bucket.tail].next = slot;
  }
  bucket.tail = slot;
  ++wheel_events_;
  return Handle(this, slot, s.gen);
}

std::uint32_t Scheduler::wheel_head() const {
  if (wheel_events_ == 0) return kNoSlot;
  // Wheel events lie in [now_, now_ + kWheelSize), so the first occupied
  // bucket at or after now_'s bucket, wrapping once, is the earliest.
  const std::size_t start = now_ % kWheelSize;
  std::size_t w = start / 64;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  while (bits == 0) {
    w = (w + 1) % kWheelWords;
    bits = occupied_[w];
  }
  return buckets_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))]
      .head;
}

void Scheduler::wheel_unlink(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::size_t b = s.when % kWheelSize;
  Bucket& bucket = buckets_[b];
  if (s.prev == kNoSlot) {
    bucket.head = s.next;
  } else {
    slots_[s.prev].next = s.next;
  }
  if (s.next == kNoSlot) {
    bucket.tail = s.prev;
  } else {
    slots_[s.next].prev = s.prev;
  }
  if (bucket.head == kNoSlot) {
    occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  }
  s.prev = kNoSlot;
  s.next = kNoSlot;
  --wheel_events_;
}

Scheduler::Handle Scheduler::schedule_after(SimTime delay, Action action) {
  return schedule_at(now_ + delay, std::move(action));
}

Scheduler::Handle Scheduler::schedule_at(SimTime when, Action action) {
  SSR_ASSERT(when >= now_, "cannot schedule into the past");
  const std::uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.kind = Kind::kClosure;
  s.fn = std::move(action);
  return push_event(when, slot);
}

Scheduler::Handle Scheduler::schedule_packet_after(SimTime delay,
                                                   PacketSink* sink,
                                                   wire::Bytes payload) {
  const std::uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.kind = Kind::kPacket;
  s.sink = sink;
  s.payload = std::move(payload);
  return push_event(now_ + delay, slot);
}

void Scheduler::cancel_event(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slots_.size() || slots_[slot].gen != gen) return;  // stale
  if (!slots_[slot].far) wheel_unlink(slot);
  free_slot(slot);
}

bool Scheduler::event_pending(std::uint32_t slot, std::uint32_t gen) const {
  return slot < slots_.size() && slots_[slot].gen == gen;
}

bool Scheduler::step(SimTime deadline) {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].gen != heap_.front().gen) {
    heap_pop();  // tombstone of a cancelled far event
  }
  std::uint32_t slot = wheel_head();
  bool far = !heap_.empty();
  if (far && slot != kNoSlot) {
    const Slot& head = slots_[slot];
    far = earlier(heap_.front(), HeapEntry{head.when, head.seq, slot, 0});
  }
  if (far) {
    const HeapEntry top = heap_.front();
    if (top.when > deadline) return false;
    heap_pop();
    slot = top.slot;
    now_ = top.when;
  } else {
    if (slot == kNoSlot || slots_[slot].when > deadline) return false;
    wheel_unlink(slot);
    now_ = slots_[slot].when;
  }
  ++executed_;
  Slot& s = slots_[slot];
  // Move the work out and free the slot *before* executing, mirroring the
  // old `*alive = false` semantics: while the action runs its own handle
  // is no longer pending, and rescheduling may reuse the slot safely.
  if (s.kind == Kind::kPacket) {
    PacketSink* sink = s.sink;
    wire::Bytes payload = std::move(s.payload);
    s.payload = wire::Bytes();
    free_slot(slot);
    sink->deliver_packet(std::move(payload));
  } else {
    Action fn = std::move(s.fn);
    s.fn = nullptr;
    free_slot(slot);
    fn();
  }
  return true;
}

std::uint64_t Scheduler::run_until(SimTime deadline) {
  std::uint64_t n = 0;
  while (step(deadline)) ++n;
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace ssr::sim
