#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <utility>
#include <vector>

namespace ssr::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 100u);
}

TEST(Scheduler, FifoTieBreakAtEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  s.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  SimTime fired_at = 0;
  s.schedule_at(50, [&] {
    s.schedule_after(25, [&] { fired_at = s.now(); });
  });
  s.run_until(1000);
  EXPECT_EQ(fired_at, 75u);
}

TEST(Scheduler, DeadlineStopsExecution) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(10, [&] { ++fired; });
  s.schedule_at(200, [&] { ++fired; });
  s.run_until(100);
  EXPECT_EQ(fired, 1);
  s.run_until(300);
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, CancelledEventsDoNotRun) {
  Scheduler s;
  int fired = 0;
  auto h = s.schedule_at(10, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run_until(100);
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 10) s.schedule_after(5, step);
  };
  s.schedule_at(0, step);
  s.run_until(1000);
  EXPECT_EQ(chain, 10);
  EXPECT_EQ(s.events_executed(), 10u);
}

TEST(Scheduler, StepExecutesOneEvent) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1, [&] { ++fired; });
  s.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(s.step(100));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step(100));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.step(100));
}

// Quiescence detection must see through tombstones: a queue holding only
// cancelled events is empty (the silence invariant of the scenario engine
// relies on this after crashing every node).
TEST(Scheduler, EmptyIgnoresTombstonedEvents) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  auto a = s.schedule_at(10, [] {});
  auto b = s.schedule_at(20, [] {});
  EXPECT_FALSE(s.empty());
  a.cancel();
  b.cancel();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Scheduler, EmptyFalseWhileLiveEventBehindTombstones) {
  Scheduler s;
  auto a = s.schedule_at(5, [] {});
  int fired = 0;
  s.schedule_at(30, [&] { ++fired; });
  a.cancel();
  EXPECT_FALSE(s.empty());  // the live event at 30 still counts
  s.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, HandleOutlivingSchedulerEventIsSafe) {
  Scheduler s;
  Scheduler::Handle h;
  {
    h = s.schedule_at(5, [] {});
  }
  s.run_until(10);
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op, must not crash
}

// --- {slot, generation} handle scheme ---------------------------------------

// Cancelling after the event fired must be a no-op even when the slot has
// been reused by a *new* live event: the stale generation must not kill the
// newcomer.
TEST(Scheduler, CancelAfterFireDoesNotKillSlotReuse) {
  Scheduler s;
  int first = 0;
  auto h1 = s.schedule_at(5, [&] { ++first; });
  s.run_until(10);
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(h1.pending());
  // The freed slot is at the head of the freelist: the next event reuses it.
  int second = 0;
  auto h2 = s.schedule_at(20, [&] { ++second; });
  EXPECT_EQ(h2.slot(), h1.slot());  // reuse confirmed
  EXPECT_NE(h2.generation(), h1.generation());
  h1.cancel();  // stale generation — must not cancel the new event
  EXPECT_TRUE(h2.pending());
  s.run_until(30);
  EXPECT_EQ(second, 1);
}

TEST(Scheduler, DoubleCancelIsIdempotentAcrossSlotReuse) {
  Scheduler s;
  int fired = 0;
  auto h1 = s.schedule_at(10, [&] { ++fired; });
  h1.cancel();
  h1.cancel();  // second cancel: no-op, must not double-free the slot
  auto h2 = s.schedule_at(15, [&] { ++fired; });
  EXPECT_EQ(h2.slot(), h1.slot());
  h1.cancel();  // still stale — the reused slot stays live
  EXPECT_TRUE(h2.pending());
  s.run_until(100);
  EXPECT_EQ(fired, 1);
}

// A handle that outlives several reuse laps of its slot keeps reading as
// not-pending (generation mismatch), never as the current occupant.
TEST(Scheduler, StaleHandleSurvivesManyReuseLaps) {
  Scheduler s;
  auto stale = s.schedule_at(1, [] {});
  s.run_until(2);
  for (int lap = 0; lap < 100; ++lap) {
    auto h = s.schedule_after(1, [] {});
    EXPECT_FALSE(stale.pending());
    if (lap % 2 == 0) h.cancel();
    s.run_for(2);
  }
  EXPECT_FALSE(stale.pending());
  stale.cancel();
  EXPECT_TRUE(s.empty());
}

// Slot reuse keeps the slab bounded by the peak live population, not by
// traffic volume: a send/deliver loop must not grow the slab.
TEST(Scheduler, SlabBoundedByPeakLiveEvents) {
  Scheduler s;
  for (int i = 0; i < 1000; ++i) {
    s.schedule_after(1, [] {});
    s.run_for(2);
  }
  EXPECT_LE(s.slots_total(), 4u);
  EXPECT_EQ(s.live_events(), 0u);
}

// Typed packet events interleave with closure events in exact (when, seq)
// order — the fast path must not reorder against the general path.
TEST(Scheduler, PacketEventsInterleaveWithClosuresInSeqOrder) {
  struct Recorder final : PacketSink {
    std::vector<int>* order;
    void deliver_packet(wire::Bytes&& payload) override {
      order->push_back(static_cast<int>(payload[0]));
      wire::BufferPool::local().release(std::move(payload));
    }
  };
  Scheduler s;
  std::vector<int> order;
  Recorder sink;
  sink.order = &order;
  s.schedule_packet_after(7, &sink, wire::Bytes{1});
  s.schedule_at(7, [&] { order.push_back(2); });
  s.schedule_packet_after(7, &sink, wire::Bytes{3});
  s.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Scheduler, CancelledPacketEventDoesNotDeliver) {
  struct Counter final : PacketSink {
    int delivered = 0;
    void deliver_packet(wire::Bytes&& payload) override {
      ++delivered;
      wire::BufferPool::local().release(std::move(payload));
    }
  };
  Scheduler s;
  Counter sink;
  auto h = s.schedule_packet_after(5, &sink, wire::Bytes{42});
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(s.empty());  // tombstone only — quiescence is exact
  s.run_until(100);
  EXPECT_EQ(sink.delivered, 0);
}

// Events scheduled from inside an executing event run at their proper
// times and orders.
TEST(Scheduler, EventsScheduledDuringStepRunInOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(10, [&] {
    order.push_back(0);
    s.schedule_after(0, [&] { order.push_back(1); });  // same time, later seq
    s.schedule_after(5, [&] { order.push_back(3); });
    s.schedule_after(1, [&] { order.push_back(2); });
  });
  s.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Cancelling an event scheduled by the currently executing event must work
// like any other cancel.
TEST(Scheduler, CancelFromInsideStepHolds) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(10, [&] {
    auto h = s.schedule_after(5, [&] { ++fired; });
    h.cancel();
  });
  s.run_until(100);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(s.empty());
}

// --- calendar wheel + far heap -------------------------------------------

// The wheel spans 4096 us; anything scheduled further ahead is a far event.
constexpr SimTime kWheel = 4096;

// A far event and wheel events due at the same time run in schedule (seq)
// order across the two structures.
TEST(Scheduler, FarAndNearTieRunsInSeqOrder) {
  Scheduler s;
  std::vector<int> order;
  const SimTime t = kWheel + 1000;
  s.schedule_at(t, [&] { order.push_back(0); });      // far: t - 0 >= kWheel
  s.schedule_at(t + 1, [&] { order.push_back(3); });  // far, one us later
  s.run_until(2000);
  s.schedule_at(t, [&] { order.push_back(1); });  // near: now 2000
  s.schedule_at(t, [&] { order.push_back(2); });
  s.schedule_at(t + 1, [&] { order.push_back(4); });
  s.run_until(t + 10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Events just before and just after each 4096-us wrap of the wheel, and on
// both sides of the wheel's horizon, run in (when, seq) order over several
// laps.
TEST(Scheduler, EventsAcrossWheelWrapsRunInOrder) {
  Scheduler s;
  std::vector<std::pair<SimTime, int>> fired;
  std::vector<std::pair<SimTime, int>> want;
  int next_id = 0;
  for (SimTime lap = 1; lap <= 5; ++lap) {
    const SimTime wrap = lap * kWheel;
    s.schedule_at(wrap - 10, [&, wrap] {
      // From here, wrap - 10 + {kWheel - 1, kWheel} straddle the horizon.
      for (SimTime delay : {SimTime{13}, SimTime{9}, SimTime{10}, kWheel,
                            kWheel - 1, SimTime{11}, SimTime{0}, SimTime{9},
                            kWheel + 5}) {
        const int id = next_id++;
        want.emplace_back(s.now() + delay, id);
        s.schedule_after(delay, [&, id] { fired.emplace_back(s.now(), id); });
      }
    });
  }
  s.run_until(7 * kWheel);
  std::sort(want.begin(), want.end());  // ids rise with seq
  EXPECT_EQ(fired, want);
  EXPECT_TRUE(s.empty());
}

// Cancelling the head, a middle entry and the tail of one bucket keeps the
// bucket's list intact, and the freed slots are reused (last freed first)
// by later events in the same bucket.
TEST(Scheduler, CancelHeadMiddleTailOfOneBucketThenReuse) {
  Scheduler s;
  std::vector<int> order;
  std::vector<Scheduler::Handle> h;
  for (int i = 0; i < 5; ++i) {
    h.push_back(s.schedule_at(10, [&order, i] { order.push_back(i); }));
  }
  h[0].cancel();
  h[2].cancel();
  h[4].cancel();
  const auto x = s.schedule_at(10, [&] { order.push_back(5); });
  const auto y = s.schedule_at(10, [&] { order.push_back(6); });
  const auto z = s.schedule_at(10, [&] { order.push_back(7); });
  EXPECT_EQ(x.slot(), h[4].slot());
  EXPECT_EQ(y.slot(), h[2].slot());
  EXPECT_EQ(z.slot(), h[0].slot());
  EXPECT_EQ(s.live_events(), 5u);
  s.run_until(20);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 6, 7}));
  EXPECT_EQ(s.slots_total(), 5u);
  EXPECT_TRUE(s.empty());
}

// A zero-delay event scheduled from inside a step runs after every event
// that was already due at that time.
TEST(Scheduler, ZeroDelayFromStepRunsAfterDueEvents) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(10, [&] {
    order.push_back(0);
    s.schedule_after(0, [&] { order.push_back(3); });
  });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(10, [&] { order.push_back(2); });
  s.schedule_at(11, [&] { order.push_back(4); });
  s.run_until(20);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Cancelled far events leave tombstones in the far heap; they must not make
// the queue look busy.
TEST(Scheduler, EmptyIgnoresCancelledFarEvents) {
  Scheduler s;
  auto a = s.schedule_at(3 * kWheel, [] {});
  auto b = s.schedule_at(5 * kWheel, [] {});
  int fired = 0;
  s.schedule_at(10, [&] { ++fired; });
  a.cancel();
  b.cancel();
  EXPECT_FALSE(s.empty());  // the wheel event at 10 is live
  EXPECT_TRUE(s.step(std::numeric_limits<SimTime>::max()));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.step(std::numeric_limits<SimTime>::max()));
  EXPECT_EQ(s.now(), 10u);
}

// Differential test: random schedule / cancel / step / run_until operations
// with delays of 0-10 ms (both sides of the wheel horizon) execute in the
// same order as a reference std::multimap keyed on `when`, whose equal keys
// keep insertion (= seq) order. Some events schedule a child when they run.
TEST(Scheduler, MatchesReferenceQueueUnderRandomOps) {
  using Ref = std::multimap<SimTime, int>;
  constexpr SimTime kMaxDelay = 10 * kMsec;
  constexpr SimTime kForever = std::numeric_limits<SimTime>::max();
  Scheduler s;
  Ref ref;
  std::vector<Scheduler::Handle> handles;
  std::vector<Ref::iterator> entries;
  std::vector<bool> queued;
  std::vector<int> ran;
  std::mt19937_64 rng(0x5eed2016);

  std::function<void(SimTime)> schedule = [&](SimTime delay) {
    const int id = static_cast<int>(handles.size());
    entries.push_back(ref.emplace(s.now() + delay, id));
    queued.push_back(true);
    handles.push_back(s.schedule_after(delay, [&, id] {
      ran.push_back(id);
      if (id % 5 == 0) {
        schedule(static_cast<SimTime>(id) * 7919 % (kMaxDelay + 1));
      }
    }));
  };
  auto random_delay = [&]() -> SimTime {
    const auto pick = rng() % 20;
    if (pick < 3) {
      constexpr SimTime kEdges[] = {0, 1, kWheel - 1, kWheel, kWheel + 1};
      return kEdges[rng() % 5];
    }
    if (pick < 6) return rng() % 100;
    return rng() % (kMaxDelay + 1);
  };
  // Steps once against the reference; returns false when nothing is due.
  auto step_checked = [&](SimTime deadline) {
    if (ref.empty() || ref.begin()->first > deadline) {
      EXPECT_FALSE(s.step(deadline));
      return false;
    }
    const auto [when, id] = *ref.begin();
    ref.erase(ref.begin());
    queued[static_cast<std::size_t>(id)] = false;
    EXPECT_TRUE(s.step(deadline));
    EXPECT_EQ(s.now(), when);
    EXPECT_EQ(ran.back(), id);
    return true;
  };

  for (int op = 0; op < 100000; ++op) {
    const auto r = rng() % 100;
    if (r < 45) {
      schedule(random_delay());
    } else if (r < 60 && !handles.empty()) {
      const std::size_t id = rng() % handles.size();
      ASSERT_EQ(handles[id].pending(), static_cast<bool>(queued[id]));
      if (queued[id]) {
        ref.erase(entries[id]);
        queued[id] = false;
      }
      handles[id].cancel();
      EXPECT_FALSE(handles[id].pending());
    } else if (r < 95) {
      step_checked(kForever);
    } else {
      const SimTime deadline = s.now() + rng() % (3 * kMsec);
      while (step_checked(deadline)) {
      }
      EXPECT_EQ(s.run_until(deadline), 0u);
      EXPECT_EQ(s.now(), deadline);
    }
    ASSERT_EQ(s.empty(), ref.empty());
    ASSERT_EQ(s.live_events(), ref.size());
  }
  while (step_checked(kForever)) {
  }
  EXPECT_TRUE(s.empty());
  EXPECT_GT(ran.size(), 30000u);
}

}  // namespace
}  // namespace ssr::sim
