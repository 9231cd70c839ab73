#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/types.hpp"
#include "wire/wire.hpp"

namespace ssr::sim {

/// Destination of a typed packet event (the scheduler's fast path).
/// Channels implement this so steady-state packet traffic never builds a
/// closure: the event record is just {sink, pooled payload}.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  /// The scheduled packet came due. Called after the event's slot has been
  /// freed, so scheduling (even into the same slot) is safe from inside.
  /// The sink owns `payload` and is expected to release it back to
  /// wire::BufferPool::local() once the packet dies.
  virtual void deliver_packet(wire::Bytes&& payload) = 0;
};

/// Discrete-event scheduler implementing the paper's interleaving model
/// (Section 2): at most one step executes at any moment; a step is triggered
/// either by a packet arrival or by a periodic timer whose rate is unknown
/// to the algorithms. Virtual time is microseconds.
///
/// Events live in a slab of pooled slots addressed by {slot, generation}
/// handles and run in (when, seq) order, so FIFO tie-breaks and therefore
/// every RNG draw follow schedule order. The queue is a calendar wheel of
/// kWheelSize one-microsecond buckets backed by a far heap:
///  - an event less than kWheelSize us ahead is appended to the FIFO list of
///    bucket `when % kWheelSize`, threaded through its slot. Wheel events
///    always satisfy now <= when < now + kWheelSize, so a bucket holds one
///    `when` and its appends arrive in seq order; an occupancy bitmap finds
///    the next non-empty bucket from now with a count-trailing-zeros.
///    Schedule, pop and cancel (an unlink) are O(1) and leave no tombstones;
///  - an event further ahead goes to a 4-ary min-heap of 24-byte POD entries
///    keyed on (when, seq). Cancelling one frees its slot (a generation
///    bump) and the stale heap entry is dropped when it surfaces.
/// Each step runs whichever of the wheel's head and the heap's top is
/// earlier by (when, seq). The steady-state hot path performs zero heap
/// allocations: no per-event std::function, no shared_ptr tombstone, and no
/// copy-out of the next event.
class Scheduler {
 public:
  // ssr-lint: allow(hot-path-alloc): closure events are the cold path; packets ride PacketSink.
  using Action = std::function<void()>;

  /// Handle used to cancel a scheduled event (e.g., timers of a crashed
  /// node). Cancellation and pending checks are O(1) generation compares;
  /// both are idempotent and safe after the event fired, was cancelled, or
  /// its slot was reused (the generation no longer matches). A handle must
  /// not outlive the scheduler it came from.
  class Handle {
   public:
    Handle() = default;
    void cancel() const {
      if (sched_ != nullptr) sched_->cancel_event(slot_, gen_);
    }
    bool pending() const {
      return sched_ != nullptr && sched_->event_pending(slot_, gen_);
    }
    /// Raw slot/generation pair, for transports that wrap scheduler events
    /// in their own handle type (see net::TimerHandle).
    std::uint32_t slot() const { return slot_; }
    std::uint32_t generation() const { return gen_; }

   private:
    friend class Scheduler;
    Handle(Scheduler* sched, std::uint32_t slot, std::uint32_t gen)
        : sched_(sched), slot_(slot), gen_(gen) {}
    Scheduler* sched_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  SimTime now() const { return now_; }

  /// Schedules `action` to run `delay` after the current time.
  Handle schedule_after(SimTime delay, Action action);
  /// Schedules `action` at absolute time `when` (>= now).
  Handle schedule_at(SimTime when, Action action);
  /// Fast path: schedules delivery of `payload` to `sink` without building
  /// a closure. Consumes the same (when, seq) key as schedule_after, so the
  /// two paths interleave exactly like two closure events would.
  Handle schedule_packet_after(SimTime delay, PacketSink* sink,
                               wire::Bytes payload);

  /// Runs events until the queue is empty or `deadline` is passed.
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime deadline);
  /// Runs for `duration` more virtual time.
  std::uint64_t run_for(SimTime duration) { return run_until(now_ + duration); }
  /// Executes exactly one event if any is pending before `deadline`.
  bool step(SimTime deadline);

  /// True when no *live* events remain; cancelled events never count, so
  /// quiescence detection is exact even while the far heap holds
  /// tombstones.
  bool empty() const { return live_ == 0; }
  std::uint64_t events_executed() const { return executed_; }

  /// O(1) generation-compare primitives backing Handle and the transports'
  /// TimerHandle. Both are no-ops / false when the pair is stale.
  void cancel_event(std::uint32_t slot, std::uint32_t gen);
  bool event_pending(std::uint32_t slot, std::uint32_t gen) const;

  /// Pre-sizes the slab and the far heap (warm start for worlds that know
  /// their steady-state event population).
  void reserve(std::size_t events);

  /// Slab footprint: slots ever allocated (live + pooled). Bounded by the
  /// peak number of simultaneously pending events, not by traffic volume.
  std::size_t slots_total() const { return slots_.size(); }
  /// Currently scheduled (live) events.
  std::size_t live_events() const { return live_; }

 private:
  enum class Kind : std::uint8_t { kFree = 0, kClosure, kPacket };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Wheel horizon in microseconds; it covers every packet delay and timer
  /// period the library schedules, so only rare long timers reach the heap.
  static constexpr std::size_t kWheelSize = 4096;
  static constexpr std::size_t kWheelWords = kWheelSize / 64;

  /// Pooled event record. `gen` is bumped every time the slot is freed, so
  /// a {slot, gen} pair names one event incarnation forever. A wheel event
  /// keeps its key and its bucket links here; `next` doubles as the
  /// free-list link while the slot is free.
  struct Slot {
    std::uint32_t gen = 0;
    Kind kind = Kind::kFree;
    bool far = false;  // queued in heap_, not in a bucket
    std::uint32_t prev = kNoSlot;
    std::uint32_t next = kNoSlot;
    SimTime when = 0;
    std::uint64_t seq = 0;
    PacketSink* sink = nullptr;
    wire::Bytes payload;  // packet events (pooled)
    Action fn;            // closure events
  };

  struct Bucket {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  /// Far-heap entry: the full ordering key is inline so sifts never touch
  /// the slab. A stale (slot, gen) pair marks a tombstone of a cancelled
  /// event.
  struct HeapEntry {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  // 4-ary min-heap over heap_ (root at 0, children of i at 4i+1..4i+4):
  // half the levels of a binary heap and cache-friendlier sift-downs. The
  // extraction order is the total order (when, seq) — seq is unique — so
  // the heap's internal shape cannot affect execution order or traces.
  void heap_push(const HeapEntry& e);
  void heap_pop();

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  Handle push_event(SimTime when, std::uint32_t slot);
  /// First slot of the earliest non-empty bucket, or kNoSlot.
  std::uint32_t wheel_head() const;
  void wheel_unlink(std::uint32_t slot);

  SimTime now_ = 0;
  /// The thread's buffer pool, resolved once (free_slot and the packet
  /// path hit it per event; the TLS lookup is not free at that rate).
  wire::BufferPool& pool_ = wire::BufferPool::local();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::size_t wheel_events_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::array<Bucket, kWheelSize> buckets_{};
  std::array<std::uint64_t, kWheelWords> occupied_{};  // bit b: bucket b
  std::vector<HeapEntry> heap_;  // far events (heap_push/pop)
};

}  // namespace ssr::sim
