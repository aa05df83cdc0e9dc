// World: an engine plus N simulated nodes, each running its program on a
// cooperative fiber.
//
// A node's program sees virtual time through its NodeCtx: `elapse(t)` /
// `charge(t)` charge CPU time (the only way time passes for that node),
// `suspend()` / `make_resumer()` let hardware models park and wake a node,
// and `now()` reads the clock.
//
// Each node carries a *local virtual clock*: `charge()` accumulates CPU
// time into a per-node debt ledger instead of round-tripping through the
// engine, and the debt materializes as a single engine sleep only at
// interaction points — any `elapse()`, `suspend()`, resumer delivery from
// a fiber, trace emission, cross-node `now()` observation, or fiber exit.
// Debt is summed with the same uint64-ns additions in the same order the
// per-call path would have used, so virtual times are bit-identical by
// construction (DESIGN.md §8).  The engine's `localclock` knob disables
// deferral (`charge` degenerates to `elapse`) for dual-mode comparison.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace spam::sim {

class World;

/// Per-node handle given to simulated programs.
class NodeCtx {
 public:
  NodeCtx(World& world, int rank, Rng rng)
      : world_(&world), rank_(rank), rng_(rng) {}

  int rank() const { return rank_; }
  World& world() { return *world_; }
  Engine& engine();
  Rng& rng() { return rng_; }

  /// Current virtual time as seen by this node (engine clock plus any
  /// unmaterialized charge debt).  Reading another node's clock from a
  /// running fiber first settles the reader, so the observation happens at
  /// the exact instant the per-call path would have reached.
  Time now();

  /// Charges `d` ticks of CPU time to this node: the fiber sleeps until
  /// now()+d while the rest of the system keeps running.  Outstanding
  /// charge debt is folded into the sleep, so an elapse is also a
  /// settlement point.
  void elapse(Time d);

  /// Charges fractional microseconds of CPU time.
  void elapse_us(double us) { elapse(usec(us)); }

  /// Charges `d` ticks of CPU time without interacting with the engine:
  /// the time is added to this node's debt ledger and materializes as one
  /// engine sleep at the next interaction point.  Exactly equivalent to
  /// elapse(d) for code that performs no engine-visible action before the
  /// next settlement; use it for pure-compute charges on hot paths.
  void charge(Time d);

  /// Charges fractional microseconds of deferred CPU time.
  void charge_us(double us) { charge(usec(us)); }

  /// Materializes any outstanding charge debt as a single engine sleep.
  /// No-op when the ledger is empty.  Every path that yields the fiber or
  /// exposes engine-ordered state calls this first.
  void settle();

  /// Outstanding unmaterialized charge debt (diagnostics/tests).
  Time debt() const { return debt_; }

  /// Parks the fiber until some event calls the resumer returned by
  /// make_resumer().  Wakes may be spurious (two resumers racing): callers
  /// must re-check their condition in a loop.  A wake that arrives while
  /// the node is running or elapsing is latched and consumed by the next
  /// suspend(), so wake-ups are never lost.
  void suspend();

  /// Returns a callable that wakes this node out of suspend().  Safe to
  /// call from engine events or from any fiber (fiber calls are deferred
  /// through an engine event so fibers never switch to each other
  /// directly).  Does NOT interrupt elapse(): charged CPU time is
  /// indivisible.  The resumer names this node, not the calling program:
  /// once that program is reaped it acts on the node's current program,
  /// or does nothing while the node has none.
  std::function<void()> make_resumer();

  /// A wait loop's empty poll, run without its fiber.  Called in the wake
  /// event of the elapse it was armed for, on the scheduler stack, at the
  /// instant the fiber would have resumed.  If the poll that elapse belongs
  /// to provably has nothing to do, the step does that poll's bookkeeping
  /// and returns the elapse that opens the loop's next poll; otherwise it
  /// returns 0, touching nothing, and the fiber resumes.
  using IdleStep = Time (*)(void* arg);

  /// Arms `step(arg)` for this node's next elapse only.  An elapse skipped
  /// in place drops it (the fiber carries on with the poll itself); a real
  /// wake runs it, and it stays armed for each elapse it re-arms until it
  /// returns 0.  No-op unless the engine's fast path is on, so the per-hop
  /// reference mode runs every poll on the fiber.
  void arm_idle_step(IdleStep step, void* arg) {
    if (!engine().fastpath()) return;
    idle_step_ = step;
    idle_arg_ = arg;
  }

  /// Spins until `done()` returns true, charging `poll_cost` per check.
  /// Mirrors the paper's polling discipline: waiting burns CPU in poll
  /// quanta, so "timeouts" can be emulated by counting unsuccessful polls.
  /// Settles outstanding charge debt before the first check (predicates
  /// may read engine-ordered state); an idle wait then composes with the
  /// engine's elapse skip, so each empty quantum is an in-place clock bump
  /// rather than a fiber round-trip.
  template <typename Pred>
  void poll_until(Pred&& done, Time poll_cost) {
    assert(poll_cost > 0 && "zero-cost poll loop would freeze virtual time");
    settle();
    while (!done()) elapse(poll_cost);  // spam-lint: charge-ok (poll quantum)
  }

 private:
  friend class World;
  enum class SleepState { kRunning, kElapsing, kWaiting };

  // True while this node's program is launched and not finished.
  bool busy() const { return fiber_ != nullptr && !fiber_->finished(); }
  // The elapse timer's event: runs the armed idle step, else resumes the
  // program.
  void wake();

  World* world_;
  int rank_;
  Rng rng_;
  // The node's current program; nullptr before the first launch and once
  // World has reaped it.
  std::unique_ptr<Fiber> fiber_;
  SleepState sleep_state_ = SleepState::kRunning;
  // While kElapsing: the instant the wake timer resumes the program.
  Time wake_at_ = 0;
  bool wake_pending_ = false;
  // The idle step armed for the current or next elapse (nullptr: none).
  IdleStep idle_step_ = nullptr;
  void* idle_arg_ = nullptr;
  // Local virtual clock: CPU time charged but not yet materialized as an
  // engine sleep, and the number of charge() calls it folds (each one is
  // an elapse the per-call path would have performed; settlement reports
  // them to the engine's elide ledger so events_simulated() is identical
  // in both modes).
  Time debt_ = 0;
  std::uint64_t debt_charges_ = 0;
};

/// The node whose fiber is currently executing, nullptr in the main/engine
/// context.  Maintained by the three resume sites in world.cpp; read by
/// cross-node now(), fiber-originated resumer delivery, and the trace
/// pre-emit hook to settle the running node's charge debt before its state
/// becomes observable.
inline thread_local NodeCtx* tl_running_node = nullptr;

class World {
 public:
  explicit World(int num_nodes, std::uint64_t seed = 1);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return static_cast<int>(nodes_.size()); }
  Engine& engine() { return engine_; }
  NodeCtx& node(int rank) { return *nodes_.at(rank); }

  /// Program run by a node: receives its NodeCtx.
  using Program = std::function<void(NodeCtx&)>;

  /// Assigns a program to one node (fiber starts when run() is called).
  /// A node runs one program at a time: throws std::logic_error if `rank`
  /// already has a pending program or one that has not finished.
  void spawn(int rank, Program program);

  /// Assigns the same program to every node.
  void spawn_all(Program program);

  /// Runs the simulation until all programs finish and events drain.
  /// Throws std::runtime_error on deadlock (fibers alive, no events) —
  /// the error lists the stuck ranks.
  void run();

  /// Like run() but gives up once the virtual clock passes `deadline`.
  /// Returns true if all programs finished.
  bool run_until(Time deadline);

  /// Lower bound on the instant at which any node other than `rank` next
  /// runs its program: an elapsing node's wake instant (charged CPU time
  /// is indivisible), now() for a node that is waiting, has a pending
  /// launch or has not started yet, and kTimeNever when no other node has
  /// a program.  Anything a node's program does (a doorbell, a store to
  /// shared memory) therefore happens at or after this instant.
  Time others_next_action(int rank) const;

  /// Fiber stacks this World owns: one per fiber not yet reaped plus the
  /// free list.  A finished fiber is reaped at the next launch and its
  /// stack reused, so a reused World holds at most one stack per node that
  /// ran a program.
  std::size_t fiber_stacks() const;

 private:
  void launch_pending();
  void check_finished();

  Engine engine_;
  Rng root_rng_;
  std::vector<std::unique_ptr<NodeCtx>> nodes_;
  std::vector<std::unique_ptr<char[]>> free_stacks_;  // of reaped fibers
  std::vector<std::pair<int, Program>> pending_;
};

inline Engine& NodeCtx::engine() { return world_->engine(); }

inline Time NodeCtx::now() {
  // Cross-node observation is an interaction point: settle the running
  // node so the engine clock has advanced to the instant the per-call
  // path would observe from.  (A non-running node's own debt is always
  // zero — every yield path settles first.)
  NodeCtx* running = tl_running_node;
  if (running != nullptr && running != this) running->settle();
  return engine().now() + debt_;
}

// Under the production local-clock regime charge() only accrues debt; the
// elapse() below is the local_clock = false reference mode (perfbench
// --ablation and the equivalence suite).
inline void NodeCtx::charge(Time d) {
  assert(Fiber::current() == fiber_.get() &&
         "charge() must run on the node fiber");
  if (!engine().localclock()) {
    elapse(d);
    return;
  }
  debt_ += d;
  ++debt_charges_;
}

inline void NodeCtx::settle() {
  if (debt_ == 0 && debt_charges_ == 0) return;
  // The elapse below stands in for the LAST deferred charge; the rest are
  // counted as elided here.  (An elapse() that folds debt counts all n
  // deferred charges as elided because the elapse itself exists in both
  // modes — a settle's sleep does not, so it must count n events total to
  // keep events_simulated() identical to per-charge mode, where settle()
  // is a no-op.)
  const Time d = debt_;
  engine().note_elided(static_cast<std::int64_t>(debt_charges_) - 1);
  debt_ = 0;
  debt_charges_ = 0;
  elapse(d);
}

}  // namespace spam::sim
