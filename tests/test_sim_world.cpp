// Tests for the World / NodeCtx layer: virtual time charging, suspension,
// deadlock detection, determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/world.hpp"

namespace spam::sim {
namespace {

TEST(World, ElapseAdvancesVirtualTime) {
  World w(1);
  Time end = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    EXPECT_EQ(ctx.now(), 0u);
    ctx.elapse(100);
    EXPECT_EQ(ctx.now(), 100u);
    ctx.elapse_us(2.5);
    end = ctx.now();
  });
  w.run();
  EXPECT_EQ(end, 100u + usec(2.5));
}

TEST(World, NodesRunConcurrentlyInVirtualTime) {
  World w(2);
  std::vector<std::pair<int, Time>> log;
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.elapse(10);
    log.emplace_back(0, ctx.now());
    ctx.elapse(20);
    log.emplace_back(0, ctx.now());
  });
  w.spawn(1, [&](NodeCtx& ctx) {
    ctx.elapse(15);
    log.emplace_back(1, ctx.now());
    ctx.elapse(30);
    log.emplace_back(1, ctx.now());
  });
  w.run();
  ASSERT_EQ(log.size(), 4u);
  // Interleaving strictly by virtual time: 10(n0), 15(n1), 30(n0), 45(n1).
  EXPECT_EQ(log[0], (std::pair<int, Time>{0, 10}));
  EXPECT_EQ(log[1], (std::pair<int, Time>{1, 15}));
  EXPECT_EQ(log[2], (std::pair<int, Time>{0, 30}));
  EXPECT_EQ(log[3], (std::pair<int, Time>{1, 45}));
}

TEST(World, SuspendResumeAcrossNodes) {
  World w(2);
  int delivered = -1;
  std::function<void()> wake;
  w.spawn(0, [&](NodeCtx& ctx) {
    wake = ctx.make_resumer();
    ctx.suspend();
    delivered = static_cast<int>(ctx.now());
  });
  w.spawn(1, [&](NodeCtx& ctx) {
    ctx.elapse(500);
    wake();
  });
  w.run();
  EXPECT_EQ(delivered, 500);
}

TEST(World, ResumerBeforeSuspendIsNotLost) {
  World w(1);
  bool done = false;
  w.spawn(0, [&](NodeCtx& ctx) {
    auto wake = ctx.make_resumer();
    wake();  // fires while we are still running
    ctx.suspend();  // must consume the pending wake, not sleep forever
    done = true;
  });
  w.run();
  EXPECT_TRUE(done);
}

TEST(World, PollUntilChargesPollCost) {
  World w(2);
  bool flag = false;
  Time woke = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.poll_until([&] { return flag; }, 7);
    woke = ctx.now();
  });
  w.spawn(1, [&](NodeCtx& ctx) {
    ctx.elapse(100);
    flag = true;
  });
  w.run();
  EXPECT_GE(woke, 100u);
  EXPECT_EQ(woke % 7, 0u) << "wake time must be a multiple of the poll cost";
}

TEST(World, DeadlockDetectionThrows) {
  World w(1);
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.suspend();  // nobody will ever wake us
  });
  EXPECT_THROW(w.run(), std::runtime_error);
}

TEST(World, RunUntilReportsUnfinished) {
  World w(1);
  w.spawn(0, [&](NodeCtx& ctx) { ctx.elapse(1000); });
  EXPECT_FALSE(w.run_until(10));
}

// --- Node-local virtual clocks: the charge-debt ledger -----------------------

TEST(LocalClock, ChargeDefersUntilSettle) {
  World w(1);
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.charge(100);
    ctx.charge(25);
    EXPECT_EQ(ctx.debt(), 125u);
    EXPECT_EQ(ctx.engine().now(), 0u) << "charge must not touch the engine";
    EXPECT_EQ(ctx.now(), 125u) << "now() is debt-inclusive";
    ctx.settle();
    EXPECT_EQ(ctx.debt(), 0u);
    EXPECT_EQ(ctx.engine().now(), 125u);
    EXPECT_EQ(ctx.now(), 125u);
  });
  w.run();
}

TEST(LocalClock, ElapseFoldsOutstandingDebt) {
  World w(1);
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.charge(30);
    ctx.charge(12);
    ctx.elapse(8);  // one engine sleep covering 30+12+8
    EXPECT_EQ(ctx.debt(), 0u);
    EXPECT_EQ(ctx.engine().now(), 50u);
    EXPECT_EQ(ctx.now(), 50u);
  });
  w.run();
}

TEST(LocalClock, KnobOffChargesImmediately) {
  World w(1);
  w.engine().set_localclock(false);
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.charge(100);
    EXPECT_EQ(ctx.debt(), 0u);
    EXPECT_EQ(ctx.engine().now(), 100u);
  });
  w.run();
}

TEST(LocalClock, SuspendSettlesBeforeSleeping) {
  World w(2);
  Time woke = 0;
  std::function<void()> wake;
  w.spawn(0, [&](NodeCtx& ctx) {
    wake = ctx.make_resumer();
    ctx.charge(50);
    ctx.suspend();  // must pay the 50 first, then sleep
    woke = ctx.now();
  });
  w.spawn(1, [&](NodeCtx& ctx) {
    ctx.elapse(500);
    wake();
  });
  w.run();
  // Had suspend slept with the debt outstanding, the wake would land at
  // 500 and the stale 50 would fold in afterwards (550).
  EXPECT_EQ(woke, 500u);
}

TEST(LocalClock, CrossNodeObservationSettlesObserver) {
  World w(2);
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.charge(40);
    const Time peer_now = ctx.world().node(1).now();
    EXPECT_EQ(ctx.debt(), 0u) << "observation is an interaction point";
    EXPECT_EQ(ctx.engine().now(), 40u);
    EXPECT_EQ(peer_now, 40u);
  });
  w.spawn(1, [](NodeCtx&) {});
  w.run();
}

TEST(LocalClock, PollUntilSettlesThenPolls) {
  World w(1);
  Time woke = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.charge(5);
    int polls = 0;
    ctx.poll_until([&] { return ++polls > 3; }, 7);
    woke = ctx.now();
  });
  w.run();
  // One debt settlement (5) then three poll quanta (7 each).
  EXPECT_EQ(woke, 5u + 3u * 7u);
}

TEST(LocalClock, EventLedgerMatchesPerChargeMode) {
  auto run = [](bool local_clock) {
    World w(2);
    w.engine().set_localclock(local_clock);
    for (int r = 0; r < 2; ++r) {
      w.spawn(r, [](NodeCtx& ctx) {
        for (int i = 0; i < 20; ++i) {
          ctx.charge(3);
          ctx.charge(4);
          if (i % 3 == 0) ctx.elapse(10);
          if (i % 7 == 0) ctx.settle();
        }
      });
    }
    w.run();
    return w.engine().events_simulated();
  };
  EXPECT_EQ(run(false), run(true));
}

// --- Fiber lifecycle: finished fibers are reaped, their stacks reused --------

TEST(FiberLifecycle, ReusedWorldKeepsOneStackPerNode) {
  World w(4);
  Time last = 0;
  for (int round = 0; round < 100; ++round) {
    w.spawn_all([&](NodeCtx& ctx) {
      ctx.elapse(10 + static_cast<Time>(ctx.rank()));
      last = ctx.now();
    });
    w.run();
    ASSERT_EQ(w.fiber_stacks(), 4u) << "round " << round;
  }
  EXPECT_EQ(last, 100u * 13u);
}

TEST(FiberLifecycle, StaleResumerActsOnTheNodesCurrentProgram) {
  // A resumer names a node, not a program: made by a finished program and
  // called after the next launch, it wakes or latches the node's new
  // program, and does nothing while the node has none.
  World w(2);
  std::function<void()> stale;
  w.spawn(0, [&](NodeCtx& ctx) { stale = ctx.make_resumer(); });
  w.run();

  // Wake: node 0's first fiber is reaped at this launch; the stale resumer,
  // called from node 1, wakes node 0's second program out of suspend().
  Time woke = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.suspend();
    woke = ctx.now();
  });
  w.spawn(1, [&](NodeCtx& ctx) {
    ctx.elapse(100);
    stale();
  });
  w.run();
  EXPECT_EQ(woke, 100u);

  // Latch: called from node 0's own program, the wake is delivered while
  // the node elapses, latched, and consumed by its next suspend().
  bool done = false;
  w.spawn(0, [&](NodeCtx& ctx) {
    stale();
    ctx.elapse(10);
    ctx.suspend();
    done = true;
  });
  w.run();
  EXPECT_TRUE(done);

  // No program: this launch reaps node 0's fiber and starts none there, so
  // the stale resumer is dropped, not latched for a later program.
  w.spawn(1, [](NodeCtx& ctx) { ctx.elapse(1); });
  w.run();
  stale();
  const Time start = w.engine().now();
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.suspend();
    woke = ctx.now();
  });
  w.spawn(1, [&](NodeCtx& ctx) {
    auto wake = w.node(0).make_resumer();
    ctx.elapse(50);
    wake();
  });
  w.run();
  EXPECT_EQ(woke, start + 50);
  EXPECT_EQ(w.fiber_stacks(), 2u);
}

TEST(FiberLifecycle, DeadlockAfterACompletedRunNamesOnlyTheStuckNode) {
  World w(4);
  w.spawn_all([](NodeCtx& ctx) { ctx.elapse(10); });
  w.run();
  w.spawn(2, [](NodeCtx& ctx) { ctx.suspend(); });
  try {
    w.run();
    FAIL() << "expected a deadlock";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 program(s) still blocked: node2"),
              std::string::npos)
        << what;
  }
}

TEST(FiberLifecycle, SecondProgramOnABusyNodeThrows) {
  World w(2);
  auto noop = [](NodeCtx&) {};
  w.spawn(0, [](NodeCtx& ctx) { ctx.elapse(1000); });
  EXPECT_THROW(w.spawn(0, noop), std::logic_error) << "pending";
  EXPECT_FALSE(w.run_until(10));
  EXPECT_THROW(w.spawn(0, noop), std::logic_error) << "live";
  EXPECT_NO_THROW(w.spawn(1, noop));
  w.run();
  EXPECT_NO_THROW(w.spawn(0, noop)) << "finished";
  w.run();
}

// --- Idle steps: a wait loop's empty polls run in the wake event -----------

// A scripted idle step: records the engine instant of each call, accepts
// `accept` calls with `quantum` as the next elapse, then declines.
struct ScriptedStep {
  Engine* engine = nullptr;
  int accept = 0;
  Time quantum = 0;
  std::vector<Time> calls;

  static Time run(void* arg) {
    auto* s = static_cast<ScriptedStep*>(arg);
    s->calls.push_back(s->engine->now());
    if (s->accept == 0) return 0;
    --s->accept;
    return s->quantum;
  }
};

TEST(IdleStep, FiresOnlyAtTheArmedElapsesWake) {
  World w(2);
  ScriptedStep step{&w.engine()};
  Time after_first = 0, after_second = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.arm_idle_step(&ScriptedStep::run, &step);
    ctx.elapse(10);
    after_first = ctx.now();
    ctx.elapse(10);  // not armed
    after_second = ctx.now();
  });
  // A neighbour with an event every tick: neither elapse can skip in place.
  w.spawn(1, [](NodeCtx& ctx) {
    for (int i = 0; i < 40; ++i) ctx.elapse(1);
  });
  w.run();
  EXPECT_EQ(step.calls, std::vector<Time>{10});
  EXPECT_EQ(after_first, 10u);
  EXPECT_EQ(after_second, 20u);
}

TEST(IdleStep, ElapseSkippedInPlaceDropsTheStep) {
  World w(2);
  ScriptedStep step{&w.engine()};
  Time end = 0;
  // Node 1 launches first, so its wake at 100 is all that is queued.
  w.spawn(1, [](NodeCtx& ctx) { ctx.elapse(100); });
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.arm_idle_step(&ScriptedStep::run, &step);
    ctx.elapse(10);   // nothing pending at or before 10: skipped
    ctx.elapse(200);  // a real wake, but the step went with the skip
    end = ctx.now();
  });
  const std::uint64_t executed = w.engine().events_executed();
  w.run();
  EXPECT_TRUE(step.calls.empty());
  EXPECT_EQ(end, 210u);
  // Two launches, node 1's wake and node 0's second wake.
  EXPECT_EQ(w.engine().events_executed() - executed, 4u);
}

TEST(IdleStep, DecliningStepResumesTheFiberAtThatInstant) {
  World w(2);
  ScriptedStep step{&w.engine(), /*accept=*/2, /*quantum=*/7};
  Time resumed = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.arm_idle_step(&ScriptedStep::run, &step);
    ctx.elapse(5);
    resumed = ctx.now();
  });
  // Node 1's wake at 5 keeps node 0's first elapse from skipping; the
  // step's two re-arms then skip in place, as the fiber's elapses would.
  w.spawn(1, [](NodeCtx& ctx) { ctx.elapse(5); });
  const std::uint64_t resumes = Fiber::resume_count();
  w.run();
  EXPECT_EQ(step.calls, (std::vector<Time>{5, 12, 19}));
  EXPECT_EQ(resumed, 19u);
  // Two launches, node 1's wake, and node 0's one resume at the declining
  // step's instant.
  EXPECT_EQ(Fiber::resume_count() - resumes, 4u);
}

TEST(IdleStep, RearmingHonoursTheRunDeadline) {
  World w(2);
  ScriptedStep step{&w.engine(), /*accept=*/6, /*quantum=*/10};
  Time resumed = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.arm_idle_step(&ScriptedStep::run, &step);
    ctx.elapse(5);
    resumed = ctx.now();
  });
  w.spawn(1, [](NodeCtx& ctx) { ctx.elapse(5); });
  EXPECT_FALSE(w.run_until(42));
  // 45 is past the deadline: that re-arm queued a timer instead.
  EXPECT_EQ(step.calls, (std::vector<Time>{5, 15, 25, 35}));
  EXPECT_EQ(w.engine().now(), 35u);
  w.run();
  EXPECT_EQ(step.calls, (std::vector<Time>{5, 15, 25, 35, 45, 55, 65}));
  EXPECT_EQ(resumed, 65u);
}

TEST(IdleStep, AFinishedProgramsStepNeverRuns) {
  World w(2);
  ScriptedStep step{&w.engine(), /*accept=*/1, /*quantum=*/10};
  // Armed, then the program ends owing CPU time: its closing settlement
  // elapses for real (node 1 wakes first) but is no poll.
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.charge(3);
    ctx.arm_idle_step(&ScriptedStep::run, &step);
  });
  w.spawn(1, [](NodeCtx& ctx) { ctx.elapse(1); });
  w.run();
  // Armed and ended clean: the node's next program starts with no step.
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.arm_idle_step(&ScriptedStep::run, &step);
  });
  w.run();
  Time end = 0;
  w.spawn(0, [&](NodeCtx& ctx) {
    ctx.elapse(10);
    end = ctx.now();
  });
  w.spawn(1, [](NodeCtx& ctx) { ctx.elapse(1); });
  const Time start = w.engine().now();
  w.run();
  EXPECT_TRUE(step.calls.empty());
  EXPECT_EQ(end, start + 10);
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    World w(4, /*seed=*/99);
    std::vector<std::uint64_t> trail;
    for (int r = 0; r < 4; ++r) {
      w.spawn(r, [&trail](NodeCtx& ctx) {
        for (int i = 0; i < 10; ++i) {
          ctx.elapse(1 + ctx.rng().next_below(50));
          trail.push_back(ctx.now() * 4 + static_cast<unsigned>(ctx.rank()));
        }
      });
    }
    w.run();
    return trail;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace spam::sim
