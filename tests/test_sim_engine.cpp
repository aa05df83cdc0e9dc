// Unit tests for the discrete-event engine: ordering, determinism, clamping.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace spam::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.at(30, [&] { order.push_back(3); });
  e.at(10, [&] { order.push_back(1); });
  e.at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameTimeIsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    e.at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, AfterSchedulesRelative) {
  Engine e;
  Time seen = 0;
  e.at(100, [&] { e.after(50, [&] { seen = e.now(); }); });
  e.run();
  EXPECT_EQ(seen, 150u);
}

TEST(Engine, PastTimeClampsToNow) {
  Engine e;
  Time seen = 0;
  e.at(100, [&] {
    e.at(10, [&] { seen = e.now(); });  // in the past: clamp to now
  });
  e.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Engine, StopHaltsRun) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.at(i, [&] {
      ++count;
      if (count == 3) e.stop();
    });
  }
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(count, 3);
  // Remaining events still pending; a new run() picks them up.
  EXPECT_EQ(e.run(), 7u);
}

TEST(Engine, RunUntilHonorsDeadlineInclusive) {
  Engine e;
  std::vector<Time> fired;
  for (Time t : {5u, 10u, 15u, 20u}) {
    e.at(t, [&, t] { fired.push_back(t); });
  }
  e.run_until(15);
  EXPECT_EQ(fired, (std::vector<Time>{5, 10, 15}));
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, NestedSchedulingChains) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 1000) e.after(1, chain);
  };
  e.after(1, chain);
  e.run();
  EXPECT_EQ(depth, 1000);
  EXPECT_EQ(e.now(), 1000u);
}

TEST(Engine, CalendarOrdersAcrossBucketsAndHeap) {
  // Mix of near (calendar-bucket) and far (heap, beyond the ~1 ms bucket
  // window) events, scheduled in scrambled order, must still execute in
  // exact (t, seq) order.
  Engine e;
  std::vector<Time> fired;
  const std::vector<Time> times = {5,          kMsec * 50, 1023,      1024,
                                   kMsec * 2,  7,          kMsec * 50 + 1,
                                   200 * kUsec};
  for (Time t : times) {
    e.at(t, [&fired, &e] { fired.push_back(e.now()); });
  }
  e.run();
  std::vector<Time> expect = times;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(fired, expect);
}

TEST(Engine, CalendarRebasesAfterLongIdleJump) {
  // After the clock jumps far past the bucket window, short-horizon events
  // must keep landing in calendar buckets (the window rebases), and order
  // must stay exact.
  Engine e;
  std::vector<int> order;
  e.at(kSec, [&] {
    e.after(10, [&] { order.push_back(2); });
    e.after(5, [&] { order.push_back(1); });
    e.after(kMsec * 10, [&] { order.push_back(3); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), kSec + kMsec * 10);
}

TEST(Engine, SameTimeFifoAcrossCalendarAndHeap) {
  // Same-instant events must run in scheduling order even when some were
  // queued while the instant was beyond the bucket window (heap) and some
  // after it entered the window (calendar).
  Engine e;
  std::vector<int> order;
  const Time t = kMsec * 20;  // beyond the window at schedule time
  e.at(t, [&] { order.push_back(0); });
  e.at(kMsec * 19, [&] {
    // Now t is within the window: these land in a calendar bucket.
    e.at(t, [&] { order.push_back(1); });
    e.at(t, [&] { order.push_back(2); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, ElideLedgerFoldsIntoSimulatedCount) {
  Engine e;
  e.at(10, [] {});
  e.at(20, [] {});
  e.run();
  EXPECT_EQ(e.events_executed(), 2u);
  EXPECT_EQ(e.events_simulated(), 2u);
  e.note_elided(5);
  EXPECT_EQ(e.events_executed(), 2u);
  EXPECT_EQ(e.events_simulated(), 7u);
  e.note_elided(-2);  // rollbacks may return elided events to the real queue
  EXPECT_EQ(e.events_simulated(), 5u);
}

TEST(Engine, TrySkipElapseRespectsQueuedEvents) {
  Engine e;
  e.set_fastpath(true);
  bool ran = false;
  e.at(0, [&] {
    e.after(100, [&ran] { ran = true; });
    // Skip would cross (or tie) the queued event: must be denied.  A tie
    // must be denied because the queued event has the smaller seq.
    EXPECT_FALSE(e.try_skip_elapse(150));
    EXPECT_FALSE(e.try_skip_elapse(100));
    // Strictly before the queued event: allowed, advances the clock and
    // counts the avoided wake as elided.
    const std::uint64_t elided = e.events_elided();
    EXPECT_TRUE(e.try_skip_elapse(99));
    EXPECT_EQ(e.now(), 99u);
    EXPECT_EQ(e.events_elided(), elided + 1);
  });
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, TrySkipElapseDisabledInPerHopMode) {
  Engine e;
  e.set_fastpath(false);
  e.at(0, [&] { EXPECT_FALSE(e.try_skip_elapse(10)); });
  e.run();
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(usec(1.0), 1000u);
  EXPECT_EQ(usec(1.3), 1300u);
  EXPECT_DOUBLE_EQ(to_usec(2500), 2.5);
  EXPECT_EQ(transfer_time(0, 40.0), 0u);
  // 256 bytes at 80 MB/s = 3.2 us.
  EXPECT_EQ(transfer_time(256, 80.0), usec(3.2));
  // Tiny transfers round up to at least one tick.
  EXPECT_GE(transfer_time(1, 1e9), 1u);
}

TEST(Rng, DeterministicAndSplittable) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // Different seeds diverge.
  Rng a2(42);
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
  // Split streams are independent of parent's later output.
  Rng p1(7), p2(7);
  Rng s1 = p1.split(0);
  Rng s2 = p2.split(0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s1.next_u64(), s2.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace spam::sim
