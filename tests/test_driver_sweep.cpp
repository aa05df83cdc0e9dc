// SweepRunner: slot-ordered aggregation under adversarial job durations,
// deterministic exception selection, fiber reaping and stack reuse on
// worker threads, NAS worlds whose waits poll off the node fibers, and
// the serial-vs-parallel determinism guarantee on a real Figure-3
// sub-sweep.  TSan-clean by design (the `tsan` CMake preset
// runs everything labelled `driver` under ThreadSanitizer).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/nas.hpp"
#include "driver/sweep.hpp"
#include "harness.hpp"
#include "mpif/mpi_world.hpp"
#include "sim/action.hpp"
#include "sim/world.hpp"

namespace {

using spam::driver::SweepRunner;

TEST(SweepRunner, ResultsAreSlotOrderedUnderAdversarialDurations) {
  // Job i sleeps longer the *lower* its index, so on a multi-threaded run
  // the completion order is roughly the reverse of the submission order.
  // Results must land in slot order regardless.
  constexpr std::size_t kJobs = 8;
  std::vector<std::function<int()>> points;
  for (std::size_t i = 0; i < kJobs; ++i) {
    points.push_back([i] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds((kJobs - 1 - i) * 10));
      return static_cast<int>(i) * 7;
    });
  }
  const std::vector<int> out = SweepRunner(4).run(points);
  ASSERT_EQ(out.size(), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 7) << "slot " << i;
  }
}

TEST(SweepRunner, JobsOneRunsInlineOnCallingThread) {
  const std::thread::id me = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  SweepRunner(1).run_indexed(16, [&](std::size_t) {
    if (std::this_thread::get_id() != me) off_thread.fetch_add(1);
  });
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(SweepRunner, SinglePointRunsInlineEvenWithManyJobs) {
  const std::thread::id me = std::this_thread::get_id();
  bool inline_run = false;
  SweepRunner(8).run_indexed(1, [&](std::size_t i) {
    inline_run = (std::this_thread::get_id() == me) && i == 0;
  });
  EXPECT_TRUE(inline_run);
}

TEST(SweepRunner, EmptySweepRunsNoPoint) {
  // n = 0 starts no thread and calls nothing, on a fresh runner and on
  // one that is called again.
  for (int round = 0; round < 10; ++round) {
    SweepRunner runner(4);
    EXPECT_EQ(runner.jobs(), 4);
    std::atomic<int> calls{0};
    runner.run_indexed(0, [&](std::size_t) { calls.fetch_add(1); });
    runner.run_indexed(0, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
    EXPECT_TRUE(runner.run(std::vector<std::function<int()>>{}).empty());
  }
}

TEST(SweepRunner, RunsEveryIndexExactlyOnce) {
  // One runner, reused across calls: n % jobs != 0, jobs > n.
  SweepRunner runner(3);
  for (const std::size_t n : {10, 2, 10}) {
    std::vector<std::atomic<int>> runs(n);
    runner.run_indexed(n, [&](std::size_t i) { runs[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "n " << n << ", index " << i;
    }
  }
}

TEST(SweepRunner, ZeroJobsSelectsHardwareConcurrency) {
  const unsigned hc = std::thread::hardware_concurrency();
  EXPECT_EQ(SweepRunner(0).jobs(), hc == 0 ? 1 : static_cast<int>(hc));
  EXPECT_GE(SweepRunner(0).jobs(), 1);
}

TEST(SweepRunner, IdleThreadTakesTheNextPoint) {
  // Point 0 blocks until points 1-7 have finished.  With two threads that
  // only works if the other thread takes every remaining point; a static
  // split (0-3 and 4-7) would leave 1-3 queued behind point 0 and time out.
  std::atomic<int> finished{0};
  bool saw_all = false;
  SweepRunner(2).run_indexed(8, [&](std::size_t i) {
    if (i != 0) {
      finished.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (finished.load() < 7 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    saw_all = finished.load() == 7;
  });
  EXPECT_TRUE(saw_all);
}

TEST(SweepRunner, RethrowsLowestIndexedFailure) {
  // Three jobs fail; the higher-indexed failures finish *first* (shorter
  // sleeps).  The runner must still report the failure of job 3, exactly
  // what a serial run would have thrown.  Every job runs to completion —
  // one failure does not cancel the batch.
  std::atomic<int> executed{0};
  auto sweep = [&](int jobs) -> std::string {
    executed.store(0);
    try {
      SweepRunner(jobs).run_indexed(16, [&](std::size_t i) {
        if (i == 12 || i == 9 || i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(i));
          executed.fetch_add(1);
          throw std::runtime_error("fail " + std::to_string(i));
        }
        executed.fetch_add(1);
      });
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(sweep(4), "fail 3");
  EXPECT_EQ(executed.load(), 16);
  // Serial rethrows the same exception (it stops at the first failure, and
  // every job below index 3 had succeeded).
  EXPECT_EQ(sweep(1), "fail 3");
}

TEST(SweepRunner, FailedSweepLeavesTheRunnerUsable) {
  // One failing point among 20 is rethrown after every point ran; the
  // error belongs to that call, so the same runner's next sweep succeeds.
  SweepRunner runner(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(runner.run_indexed(20,
                                  [&](std::size_t i) {
                                    executed.fetch_add(1);
                                    if (i == 7) {
                                      throw std::runtime_error("point 7");
                                    }
                                  }),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 20);
  EXPECT_NO_THROW(
      runner.run_indexed(20, [&](std::size_t) { executed.fetch_add(1); }));
  EXPECT_EQ(executed.load(), 40);
}

TEST(SweepRunner, WorkerThreadsReapAndReuseFiberStacks) {
  // Each point runs four programs per node one after another in one World,
  // so every launch after the first reaps finished fibers (destroying
  // their TSan fibers under the tsan preset) and reuses their stacks on a
  // worker thread.  A suspend/wake pair makes each program switch fibers
  // both ways.  Results must match a serial run.
  struct Point {
    spam::sim::Time end = 0;
    std::size_t stacks = 0;
    bool operator==(const Point&) const = default;
  };
  constexpr int kNodes = 3;
  constexpr int kPrograms = 4;
  std::vector<std::function<Point()>> points;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    points.push_back([seed] {
      spam::sim::World w(kNodes, seed);
      std::function<void()> wake0;
      for (int p = 0; p < kPrograms; ++p) {
        w.spawn(0, [&](spam::sim::NodeCtx& ctx) {
          wake0 = ctx.make_resumer();
          ctx.suspend();
        });
        for (int r = 1; r < kNodes; ++r) {
          w.spawn(r, [&](spam::sim::NodeCtx& ctx) {
            ctx.elapse(1 + ctx.rng().next_below(100));
            if (ctx.rank() == kNodes - 1) wake0();
          });
        }
        w.run();
      }
      return Point{w.engine().now(), w.fiber_stacks()};
    });
  }
  const std::vector<Point> serial = SweepRunner(1).run(points);
  const std::vector<Point> parallel = SweepRunner(4).run(points);
  ASSERT_EQ(parallel.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(parallel[i].stacks, static_cast<std::size_t>(kNodes))
        << "point " << i;
    EXPECT_GT(parallel[i].end, 0u) << "point " << i;
  }
  EXPECT_TRUE(serial == parallel);
}

TEST(SweepRunner, ParallelNasWorldsMatchSerial) {
  // 4-node NAS kernels over MPI-AM, one World per point: their MPI_Wait
  // and collective polls run as idle steps in wake events, on the worker
  // thread's scheduler stack rather than a node fiber's.  Results must
  // match a serial run bit for bit.
  struct Point {
    double time_s = 0;
    double checksum = 0;
    bool finished = false;
    bool operator==(const Point&) const = default;
  };
  using Kernel = spam::apps::NasResult (*)(spam::mpi::MpiWorld&, int, int);
  const Kernel kernels[] = {spam::apps::run_ft, spam::apps::run_mg,
                            spam::apps::run_bt, spam::apps::run_sp};
  std::vector<std::function<Point()>> points;
  for (Kernel kernel : kernels) {
    for (spam::mpi::MpiImpl impl : {spam::mpi::MpiImpl::kAmOptimized,
                                    spam::mpi::MpiImpl::kAmUnoptimized}) {
      points.push_back([kernel, impl] {
        spam::mpi::MpiWorldConfig cfg;
        cfg.nodes = 4;
        cfg.impl = impl;
        spam::mpi::MpiWorld w(cfg);
        const spam::apps::NasResult r = kernel(w, 16, 1);
        return Point{r.time_s, r.checksum, r.finished};
      });
    }
  }
  const std::vector<Point> serial = SweepRunner(1).run(points);
  const std::vector<Point> parallel = SweepRunner(4).run(points);
  ASSERT_EQ(parallel.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(parallel[i].finished) << "point " << i;
  }
  EXPECT_TRUE(serial == parallel);
}

TEST(ThreadLocalState, HeapFallbackCounterIsPerThread) {
  // InlineAction's fallback counter is thread-local: a worker thread
  // spilling closures to the heap must not perturb this thread's counter
  // (each engine reads its own thread's count).
  const std::uint64_t mine = spam::sim::InlineAction::heap_fallbacks();
  std::uint64_t worker_delta = 0;
  std::thread t([&] {
    const std::uint64_t before = spam::sim::InlineAction::heap_fallbacks();
    std::array<char, 256> big{};  // larger than the inline buffer
    spam::sim::InlineAction a = [big] { (void)big; };
    a();
    worker_delta = spam::sim::InlineAction::heap_fallbacks() - before;
  });
  t.join();
  EXPECT_EQ(worker_delta, 1u);
  EXPECT_EQ(spam::sim::InlineAction::heap_fallbacks(), mine);
}

TEST(SweepDeterminism, Figure3SubSweepIsByteIdenticalSerialVsParallel) {
  // The core guarantee: the rendered Figure-3 table is byte-for-byte
  // identical whether the points were computed at --jobs 1 or --jobs 8.
  const std::vector<std::size_t> sizes = {16, 512, 8192, 65536};
  const std::string serial =
      spam::bench::fig3_table(sizes, spam::bench::fig3_sweep(sizes, 1))
          .render();
  const std::string parallel =
      spam::bench::fig3_table(sizes, spam::bench::fig3_sweep(sizes, 8))
          .render();
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
