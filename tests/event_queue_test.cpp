// Edge cases of the calendar-queue event wheel: the deterministic
// simultaneous-event order, wheel rollover past the hyperperiod,
// cancellation, the empty-calendar fast-forward, and a randomized
// differential against a reference heap.
#include "sim/event_queue.h"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.h"

namespace lrt::sim {
namespace {

std::vector<Event> drain(EventQueue& queue) {
  std::vector<Event> popped;
  while (!queue.empty()) {
    EXPECT_EQ(queue.next_time(), queue.next_time());  // peek is pure
    popped.push_back(queue.pop());
  }
  return popped;
}

TEST(EventQueue, SimultaneousEventsPopInClassThenInsertionOrder) {
  EventQueue queue(/*bucket_width=*/4, /*num_buckets=*/8);
  // Insert at one instant in an order scrambled across classes; two
  // kCommAccess entries distinguish the insertion-sequence tie-break.
  queue.schedule(10, EventClass::kTaskRelease, 7);
  queue.schedule(10, EventClass::kCommAccess, 1);
  queue.schedule(10, EventClass::kHostAvailability, 0);
  queue.schedule(10, EventClass::kCommAccess, 2);
  queue.schedule(10, EventClass::kPeriodBoundary, 0);

  const std::vector<Event> popped = drain(queue);
  ASSERT_EQ(popped.size(), 5u);
  EXPECT_EQ(popped[0].klass, EventClass::kHostAvailability);
  EXPECT_EQ(popped[1].klass, EventClass::kPeriodBoundary);
  EXPECT_EQ(popped[2].klass, EventClass::kCommAccess);
  EXPECT_EQ(popped[2].payload, 1u);  // scheduled before payload 2
  EXPECT_EQ(popped[3].klass, EventClass::kCommAccess);
  EXPECT_EQ(popped[3].payload, 2u);
  EXPECT_EQ(popped[4].klass, EventClass::kTaskRelease);
}

TEST(EventQueue, OrderIsIndependentOfBucketGeometry) {
  // The same schedule under adversarial geometries (width 1, width larger
  // than every timestamp, a 2-bucket wheel) must pop identically.
  const std::vector<std::pair<spec::Time, EventClass>> inserts = {
      {30, EventClass::kCommAccess},  {5, EventClass::kTaskRelease},
      {30, EventClass::kTaskRelease}, {0, EventClass::kPeriodBoundary},
      {17, EventClass::kCommAccess},  {5, EventClass::kCommAccess},
      {64, EventClass::kHostAvailability}};
  std::vector<std::vector<Event>> runs;
  for (const auto& [width, buckets] :
       std::vector<std::pair<spec::Time, std::size_t>>{
           {1, 2}, {1, 256}, {7, 4}, {1000, 8}}) {
    EventQueue queue(width, buckets);
    for (const auto& [time, klass] : inserts) queue.schedule(time, klass);
    runs.push_back(drain(queue));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i].time, runs[0][i].time) << "run " << r;
      EXPECT_EQ(runs[r][i].klass, runs[0][i].klass) << "run " << r;
      EXPECT_EQ(runs[r][i].seq, runs[0][i].seq) << "run " << r;
    }
  }
}

TEST(EventQueue, WheelRolloverPastHyperperiod) {
  // Wheel span is 4 * 8 = 32 ticks; a periodic source rescheduling itself
  // crosses the year boundary many times (the hyperperiod-crossing case
  // of the event runtime, where releases re-arm at t + pi_S).
  EventQueue queue(/*bucket_width=*/4, /*num_buckets=*/8);
  queue.schedule(0, EventClass::kCommAccess);
  spec::Time expected = 0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(queue.next_time(), expected);
    const Event event = queue.pop();
    EXPECT_EQ(event.time, expected);
    queue.schedule(event.time + 13, EventClass::kCommAccess);
    expected += 13;  // 13 shares no factor with the wheel span
  }
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, CancelRemovesPendingEvent) {
  EventQueue queue(/*bucket_width=*/2, /*num_buckets=*/4);
  const EventQueue::Handle keep =
      queue.schedule(6, EventClass::kTaskRelease, 1);
  const EventQueue::Handle gone =
      queue.schedule(3, EventClass::kTaskRelease, 2);
  EXPECT_TRUE(queue.cancel(gone));
  EXPECT_FALSE(queue.cancel(gone)) << "double-cancel must report false";
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.next_time(), 6);  // the cancelled min is never surfaced
  const Event event = queue.pop();
  EXPECT_EQ(event.payload, 1u);
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.cancel(keep)) << "popped handles are dead";
  EXPECT_FALSE(queue.cancel(EventQueue::kInvalidHandle));
}

TEST(EventQueue, CancellingWholeBucketLeavesQueueConsistent) {
  EventQueue queue(/*bucket_width=*/10, /*num_buckets=*/4);
  std::vector<EventQueue::Handle> handles;
  for (spec::Time t = 0; t < 12; ++t) {
    handles.push_back(queue.schedule(t, EventClass::kCommAccess,
                                     static_cast<std::uint64_t>(t)));
  }
  // Tombstone the entire first bucket [0, 10).
  for (std::size_t i = 0; i < 10; ++i) EXPECT_TRUE(queue.cancel(handles[i]));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop().payload, 10u);
  EXPECT_EQ(queue.pop().payload, 11u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, EmptyCalendarFastForwardSkipsIdleYears) {
  // One event a million ticks out on a tiny wheel: pop must find it
  // without ever spinning a tick-per-bucket scan (this completing at all
  // in test time is the property; years span 8 ticks here).
  EventQueue queue(/*bucket_width=*/1, /*num_buckets=*/8);
  queue.schedule(1'000'000, EventClass::kCommAccess, 42);
  queue.schedule(2'000'003, EventClass::kTaskRelease, 43);
  EXPECT_EQ(queue.next_time(), 1'000'000);
  EXPECT_EQ(queue.pop().payload, 42u);
  EXPECT_EQ(queue.next_time(), 2'000'003);
  EXPECT_EQ(queue.pop().payload, 43u);
}

TEST(EventQueue, SchedulingBehindTheCursorRewindsTheScan) {
  EventQueue queue(/*bucket_width=*/2, /*num_buckets=*/4);
  queue.schedule(100, EventClass::kCommAccess, 1);
  EXPECT_EQ(queue.next_time(), 100);  // fast-forwards the cursor to t=100
  // The event runtime schedules strictly forward, but the structure must
  // stay a correct priority queue for out-of-order inserts too.
  queue.schedule(4, EventClass::kCommAccess, 2);
  EXPECT_EQ(queue.next_time(), 4);
  EXPECT_EQ(queue.pop().payload, 2u);
  EXPECT_EQ(queue.pop().payload, 1u);
}

TEST(EventQueue, StaleHandlesStayDeadAfterSlotReuse) {
  EventQueue queue(/*bucket_width=*/1, /*num_buckets=*/4);
  const EventQueue::Handle a = queue.schedule(5, EventClass::kCommAccess, 1);
  EXPECT_TRUE(queue.cancel(a));
  // The next schedule recycles a's slot under a bumped generation: the
  // stale handle must not be able to reach the new occupant.
  const EventQueue::Handle b = queue.schedule(9, EventClass::kCommAccess, 2);
  EXPECT_NE(a, b);
  EXPECT_FALSE(queue.cancel(a));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.pop().payload, 2u);
  EXPECT_FALSE(queue.cancel(b)) << "popped handles are dead";
  EXPECT_EQ(queue.stats().scheduled, 2);
  EXPECT_EQ(queue.stats().cancelled, 1);
  EXPECT_EQ(queue.stats().popped, 1);
}

TEST(EventQueue, WheelResizesWithPopulation) {
  EventQueue queue(/*bucket_width=*/1, /*num_buckets=*/2);
  ASSERT_EQ(queue.num_buckets(), 2u);
  std::vector<EventQueue::Handle> handles;
  for (spec::Time t = 0; t < 100; ++t) {
    handles.push_back(
        queue.schedule(t, EventClass::kCommAccess,
                       static_cast<std::uint64_t>(t)));
  }
  // Doubles whenever live > 4 * buckets: at 9, 17, 33, and 65 entries.
  EXPECT_EQ(queue.num_buckets(), 32u);
  const std::int64_t grow_resizes = queue.stats().resizes;
  EXPECT_EQ(grow_resizes, 4);
  for (std::size_t i = 0; i < 99; ++i) EXPECT_TRUE(queue.cancel(handles[i]));
  EXPECT_LT(queue.num_buckets(), 32u);
  EXPECT_GE(queue.num_buckets(), 2u);
  EXPECT_GT(queue.stats().resizes, grow_resizes);
  // The survivor still pops correctly off the shrunken wheel.
  EXPECT_EQ(queue.pop().payload, 99u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SteadyStateHoldsAllocationsFlat) {
  // A periodic source rescheduling itself forever: after warmup the slot
  // free list and the bucket capacities absorb all churn — thousands of
  // further cycles cause zero new heap growth.
  EventQueue queue(/*bucket_width=*/4, /*num_buckets=*/8);
  queue.schedule(0, EventClass::kCommAccess);
  for (int i = 0; i < 100; ++i) {
    const Event event = queue.pop();
    queue.schedule(event.time + 7, EventClass::kCommAccess);
  }
  const std::int64_t warm_allocations = queue.stats().allocations;
  const std::int64_t warm_resizes = queue.stats().resizes;
  for (int i = 0; i < 5000; ++i) {
    const Event event = queue.pop();
    queue.schedule(event.time + 7, EventClass::kCommAccess);
  }
  EXPECT_EQ(queue.stats().allocations, warm_allocations);
  EXPECT_EQ(queue.stats().resizes, warm_resizes);
  EXPECT_EQ(queue.stats().scheduled, 5101);
  EXPECT_EQ(queue.stats().popped, 5100);
}

TEST(EventQueue, ResizesNeverChangePopOrder) {
  // The same traffic on geometries that resize at different points (the
  // 2-bucket wheels grow repeatedly, the 256-bucket one mostly shrinks)
  // must tell the same (time, class, seq) story: the total order is a
  // pure function of the schedule history.
  std::vector<std::vector<Event>> runs;
  std::int64_t max_resizes = 0;
  for (const auto& [width, buckets] :
       std::vector<std::pair<spec::Time, std::size_t>>{
           {1, 2}, {3, 2}, {1, 256}, {50, 4}}) {
    EventQueue queue(width, buckets);
    Xoshiro256 rng(7);
    std::vector<EventQueue::Handle> handles;
    for (std::uint64_t i = 0; i < 300; ++i) {
      handles.push_back(queue.schedule(
          static_cast<spec::Time>(rng.next_below(500)),
          static_cast<EventClass>(rng.next_below(4)), i));
    }
    for (std::size_t i = 0; i < handles.size(); i += 3) {
      EXPECT_TRUE(queue.cancel(handles[i]));
    }
    runs.push_back(drain(queue));
    max_resizes = std::max(max_resizes, queue.stats().resizes);
  }
  EXPECT_GT(max_resizes, 0) << "traffic never exercised a resize";
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i].time, runs[0][i].time) << "run " << r;
      EXPECT_EQ(runs[r][i].klass, runs[0][i].klass) << "run " << r;
      EXPECT_EQ(runs[r][i].seq, runs[0][i].seq) << "run " << r;
      EXPECT_EQ(runs[r][i].payload, runs[0][i].payload) << "run " << r;
    }
  }
}

TEST(EventQueue, RandomizedDifferentialAgainstReferenceHeap) {
  // Mixed schedule/cancel/pop traffic against a tombstone-free reference
  // ordered by the same (time, class, seq) key.
  using Key = std::tuple<spec::Time, int, std::uint64_t>;
  Xoshiro256 rng(20260808);
  for (int round = 0; round < 20; ++round) {
    EventQueue queue(/*bucket_width=*/1 + round % 5,
                     /*num_buckets=*/static_cast<std::size_t>(2 + round % 7));
    std::vector<std::pair<EventQueue::Handle, Key>> live;
    spec::Time horizon = 0;
    for (int op = 0; op < 400; ++op) {
      const double roll = rng.next_double();
      if (roll < 0.55 || live.empty()) {
        const spec::Time time =
            horizon + static_cast<spec::Time>(rng.next_below(50));
        const auto klass = static_cast<EventClass>(rng.next_below(4));
        const EventQueue::Handle handle = queue.schedule(time, klass);
        live.emplace_back(handle,
                          Key{time, static_cast<int>(klass), handle});
      } else if (roll < 0.7 && !live.empty()) {
        const std::size_t pick = rng.next_below(live.size());
        EXPECT_TRUE(queue.cancel(live[pick].first));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        // Rebuild the reference min from the live set (handles are issued
        // in insertion order, so they stand in for seq).
        const auto min_it = std::min_element(
            live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
        ASSERT_EQ(queue.size(), live.size());
        const Event event = queue.pop();
        EXPECT_EQ(event.time, std::get<0>(min_it->second));
        EXPECT_EQ(static_cast<int>(event.klass), std::get<1>(min_it->second));
        horizon = event.time;  // pops are monotone in this traffic pattern
        live.erase(min_it);
      }
    }
  }
}

}  // namespace
}  // namespace lrt::sim
