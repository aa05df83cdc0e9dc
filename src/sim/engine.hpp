// Discrete-event engine: a single virtual clock and an ordered event queue.
//
// Events scheduled for the same instant fire in FIFO order of scheduling,
// which makes every run deterministic.  The engine is single-threaded by
// design; concurrency in the simulated system is expressed as interleaved
// events, never as host threads.
//
// The queue is a two-level structure ordered by the total order (t, seq):
//
//   * a near-future *calendar* of power-of-two-width buckets (an O(1)
//     insert front-end for the short-horizon events that dominate network
//     simulation), drained bucket-by-bucket into a sorted run vector, and
//   * the original pooled 4-ary min-heap of event nodes, which absorbs
//     same-bucket, far-future, and out-of-window events.
//
// Because (t, seq) is a total order, neither the heap shape nor the bucket
// routing can change the execution order: any correct queue pops the exact
// same sequence.  Nodes are recycled through a free list (steady state
// performs no heap allocation per event) and each node embeds its action in
// InlineAction small-buffer storage.  pool_stats() exposes the allocation
// counters that let benchmarks and tests assert the zero-allocation
// property.
//
// The engine also hosts the *fast-path accounting* shared by the network
// fast path (src/sphw) and the fiber layer (src/sim/world.cpp):
//
//   * try_skip_elapse(d) advances the clock across a dead interval without
//     scheduling a wake event, when provably equivalent (no pending event
//     at or before now()+d, and now()+d within the active run deadline);
//   * note_elided(n) lets higher layers record events they proved away
//     (fused deliveries, lazily settled FIFO frees), so
//     events_simulated() = events_executed() + events_elided() stays the
//     per-hop-equivalent event count whichever mode produced it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace spam::sim {

class Engine {
 public:
  using Action = InlineAction;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (clamped to now()).
  void at(Time t, Action fn);

  /// Schedules `fn` to run `delay` ticks from now.
  void after(Time delay, Action fn) { at(now_ + delay, std::move(fn)); }

  /// Runs events until the queue drains or stop() is called.
  /// Returns the number of events executed.
  std::uint64_t run();

  /// Runs until the clock would pass `deadline`; events at exactly
  /// `deadline` still execute.  Returns events executed.
  std::uint64_t run_until(Time deadline);

  /// Executes the single earliest event.  Returns false if queue empty.
  bool step();

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  bool empty() const { return pending() == 0; }
  std::size_t pending() const {
    return heap_.size() + (run_.size() - run_pos_) + calendar_count_;
  }

  /// Enables/disables every proven-equivalent shortcut that hangs off the
  /// engine (elapse skip-ahead here; the network fast path reads the same
  /// flag through sphw::SpParams).  On by default; benches flip it off for
  /// the dual-mode comparison.
  void set_fastpath(bool on) { fastpath_ = on; }
  bool fastpath() const { return fastpath_; }

  /// Enables/disables the node-local virtual clocks (deferred compute
  /// charging, src/sim/world.cpp).  Independent of the network fast path
  /// so the two shortcuts can be compared in isolation; perfbench
  /// --ablation and tests/test_mode_equivalence.cpp flip it off.
  void set_localclock(bool on) { localclock_ = on; }
  bool localclock() const { return localclock_; }

  /// Fast path for NodeCtx::elapse: if no pending event fires at or before
  /// now()+d and now()+d does not cross the active run()/run_until()
  /// deadline, advances the clock directly and records one elided event
  /// (the wake timer that per-hop mode would have scheduled and executed).
  /// Returns false — caller must schedule + yield as usual — otherwise.
  bool try_skip_elapse(Time d);

  /// Records `n` per-hop-equivalent events proven away (or un-proven:
  /// fast-path disengagement passes a negative delta when it re-schedules
  /// the real events).  The running sum never dips below zero because a
  /// rollback only ever returns credit taken earlier.
  void note_elided(std::int64_t n) { elided_ += n; }

  /// Total events executed since construction (monotonic; host-perf metric).
  std::uint64_t events_executed() const { return executed_; }

  /// Events proven away by fast paths (fused deliveries, skipped elapse
  /// timers, lazily settled FIFO frees).
  std::uint64_t events_elided() const {
    return static_cast<std::uint64_t>(elided_);
  }

  /// Per-hop-equivalent event count: what events_executed() would read if
  /// every fast path were disabled.  This is the bench throughput
  /// numerator, so fused and unfused runs measure the same work.
  std::uint64_t events_simulated() const {
    return executed_ + static_cast<std::uint64_t>(elided_);
  }

  /// Allocation counters for the event core.  In steady state (after
  /// warmup) scheduling events must not change `nodes_allocated` or
  /// `action_heap_fallbacks`: that is the zero-allocation invariant the
  /// host-perf bench asserts.
  struct PoolStats {
    std::uint64_t nodes_allocated = 0;      // pool growth, total nodes ever
    std::uint64_t nodes_free = 0;           // currently on the free list
    std::uint64_t nodes_live = 0;           // currently queued
    std::uint64_t action_heap_fallbacks = 0;  // InlineAction heap closures
  };
  PoolStats pool_stats() const {
    return {nodes_allocated_, nodes_free_, pending(),
            InlineAction::heap_fallbacks()};
  }

 private:
  struct Node {
    Time t = 0;
    std::uint64_t seq = 0;  // tie-breaker: FIFO among same-time events
    Action fn;
    Node* next_free = nullptr;  // free-list link; doubles as bucket chain
  };

  static bool earlier(const Node* a, const Node* b) {
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
  }

  Node* acquire();
  void release(Node* n);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  Node* heap_pop();

  /// Earliest queued node (exact — drains calendar buckets as needed), or
  /// nullptr when nothing is pending.
  Node* front();
  Node* pop_min();
  std::uint64_t next_nonempty_bucket() const;
  void drain_bucket(std::uint64_t b);
  /// Exact test for a queued event at or before `t`, without draining a
  /// calendar bucket (try_skip_elapse's check).
  bool any_event_at_or_before(Time t) const;

  // Node storage: fixed-size blocks keep node addresses stable while the
  // pool grows; the free list threads through recycled nodes.
  static constexpr std::size_t kBlockNodes = 256;
  std::vector<std::unique_ptr<Node[]>> blocks_;
  Node* free_list_ = nullptr;
  std::uint64_t nodes_allocated_ = 0;
  std::uint64_t nodes_free_ = 0;

  std::vector<Node*> heap_;  // 4-ary min-heap ordered by (t, seq)

  // Near-future calendar: bucket b holds events with t >> kBucketShift == b
  // for absolute bucket indices in (drained_through_,
  // drained_through_ + kBuckets].  Buckets are LIFO-linked through
  // Node::next_free and re-sorted on drain; a bitmap tracks non-empty
  // slots so the next bucket is a couple of word scans away.
  static constexpr std::uint64_t kBucketShift = 10;  // 1.024 us buckets
  static constexpr std::uint64_t kBuckets = 1024;    // ~1.05 ms window
  static constexpr std::uint64_t kBucketMask = kBuckets - 1;
  static constexpr std::size_t kBitmapWords = kBuckets / 64;
  std::array<Node*, kBuckets> bucket_{};
  std::array<std::uint64_t, kBitmapWords> bucket_bits_{};
  std::uint64_t drained_through_ = 0;  // all calendar entries sit above this
  std::size_t calendar_count_ = 0;
  // Earliest non-empty bucket (valid iff calendar_count_ > 0): maintained
  // O(1) on insert, recomputed from the bitmap only on drain, so the hot
  // peek/pop path never scans.
  std::uint64_t cal_min_bucket_ = 0;

  // Drained-bucket staging: sorted ascending by (t, seq); run_pos_ is the
  // consumed prefix.  Everything here precedes everything still bucketed.
  std::vector<Node*> run_;
  std::size_t run_pos_ = 0;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::int64_t elided_ = 0;
  bool stopped_ = false;
  bool fastpath_ = true;
  bool localclock_ = true;
  // Deadline of the active run()/run_until() (0 when not running): a
  // skipped elapse must not move the clock past the point where control
  // would have returned to the caller.
  Time run_deadline_ = 0;
};

}  // namespace spam::sim
