#include "sim/world.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "sim/hot.hpp"
#include "sim/trace.hpp"

namespace spam::sim {

namespace {

// Every node fiber's stack; one size, so any reaped stack fits any node.
constexpr std::size_t kStackBytes = 512 * 1024;

// Marks `node` as the running node for the dynamic extent of a
// fiber_->resume() call, restoring the previous value (the main context's
// nullptr) when the fiber yields back.
struct RunningNodeGuard {
  NodeCtx* prev;
  explicit RunningNodeGuard(NodeCtx* node) : prev(tl_running_node) {
    tl_running_node = node;
  }
  ~RunningNodeGuard() { tl_running_node = prev; }
  RunningNodeGuard(const RunningNodeGuard&) = delete;
  RunningNodeGuard& operator=(const RunningNodeGuard&) = delete;
};

// Trace pre-emit hook: a trace line renders engine-ordered state (the
// timestamp), so emission is an interaction point — the running node
// settles its charge debt first.  Keeps the trace stream byte-identical
// between local-clock modes.
void settle_running_node() {
  if (NodeCtx* running = tl_running_node) running->settle();
}

}  // namespace

void NodeCtx::elapse(Time d) {
  assert(Fiber::current() == fiber_.get() &&
         "elapse() must run on the node fiber");
  if (debt_ != 0 || debt_charges_ != 0) {
    // Fold the charge ledger into this sleep: same uint64-ns additions in
    // the same order as per-call elapses, so the wake instant is
    // bit-identical.  Each folded charge is one elapse the per-call path
    // would have performed — credit them to the elide ledger so
    // events_simulated() matches across modes.
    d += debt_;
    engine().note_elided(static_cast<std::int64_t>(debt_charges_));
    debt_ = 0;
    debt_charges_ = 0;
  }
  // Fast path: when no pending event would fire during the interval, the
  // wake timer and two fiber switches are pure overhead — advance the
  // clock in place.  Equivalent because nothing could have observed or
  // interleaved with this node while it slept.
  if (engine().try_skip_elapse(d)) {
    idle_step_ = nullptr;  // the fiber goes on with the poll itself
    return;
  }
  sleep_state_ = SleepState::kElapsing;
  wake_at_ = engine().now() + d;
  auto wake = [this] { this->wake(); };
  static_assert(Engine::Action::fits_inline<decltype(wake)>,
                "elapse() timer closure must not heap-allocate");
  engine().after(d, std::move(wake));
  Fiber::yield();
}

SPAM_HOT void NodeCtx::wake() {
  // Only our own timer ends an elapse; resumers cannot shorten charged CPU
  // time (they latch wake_pending_ instead).
  assert(sleep_state_ == SleepState::kElapsing);
  while (idle_step_ != nullptr) {
    const Time next = idle_step_(idle_arg_);
    if (next == 0) break;
    // The step did the fiber's empty poll, and the fiber's next poll would
    // open with elapse(next) at this very point of this very event, with
    // no debt to fold: take the same skip-or-timer path.
    if (engine().try_skip_elapse(next)) continue;
    wake_at_ = engine().now() + next;
    engine().after(next, [this] { wake(); });
    return;
  }
  idle_step_ = nullptr;
  sleep_state_ = SleepState::kRunning;
  RunningNodeGuard guard(this);
  fiber_->resume();
}

void NodeCtx::suspend() {
  assert(Fiber::current() == fiber_.get() &&
         "suspend() must run on the node fiber");
  // Settle before looking at the latch: resumer calls riding on events up
  // to this node's virtual instant must land first, exactly as they would
  // have during the per-call path's final elapse.
  settle();
  if (wake_pending_) {
    // A wake arrived while we were running/elapsing; consume it now.
    wake_pending_ = false;
    return;
  }
  sleep_state_ = SleepState::kWaiting;
  Fiber::yield();
}

std::function<void()> NodeCtx::make_resumer() {
  return [this] {
    auto deliver = [this] {
      if (fiber_ == nullptr || fiber_->finished()) return;
      if (sleep_state_ == SleepState::kWaiting) {
        sleep_state_ = SleepState::kRunning;
        RunningNodeGuard guard(this);
        fiber_->resume();
      } else {
        // Running or elapsing: latch for the next suspend().
        wake_pending_ = true;
      }
    };
    if (Fiber::current() == nullptr) {
      deliver();  // already in the main context (an engine event)
    } else {
      // Called from some fiber: defer so fibers never switch directly.
      // Settle the caller first — the deferred delivery must be stamped
      // with the caller's virtual instant, not a stale engine clock.
      if (NodeCtx* running = tl_running_node) running->settle();
      engine().at(engine().now(), deliver);
    }
  };
}

World::World(int num_nodes, std::uint64_t seed) : root_rng_(seed) {
  nodes_.reserve(num_nodes);
  for (int r = 0; r < num_nodes; ++r) {
    nodes_.push_back(std::make_unique<NodeCtx>(*this, r, root_rng_.split(r)));
  }
  // Trace emission is a charge-debt interaction point (the line renders a
  // timestamp); idempotent across Worlds — the hook only touches the
  // thread's running node.
  Trace::set_pre_emit_hook(&settle_running_node);
}

World::~World() = default;

void World::spawn(int rank, Program program) {
  if (rank < 0 || rank >= size()) {
    throw std::out_of_range("World::spawn: bad rank");
  }
  bool busy = nodes_[rank]->busy();
  for (const auto& p : pending_) busy = busy || p.first == rank;
  if (busy) {
    throw std::logic_error("World::spawn: node" + std::to_string(rank) +
                           " already has a program");
  }
  pending_.emplace_back(rank, std::move(program));
}

void World::spawn_all(Program program) {
  for (int r = 0; r < size(); ++r) spawn(r, program);
}

Time World::others_next_action(int rank) const {
  const Time now = engine_.now();
  for (const auto& p : pending_) {
    if (p.first != rank) return now;
  }
  Time lb = kTimeNever;
  for (const auto& node : nodes_) {
    if (node->rank_ == rank || !node->busy()) continue;
    if (node->sleep_state_ != NodeCtx::SleepState::kElapsing) return now;
    lb = std::min(lb, node->wake_at_);
  }
  return lb;
}

std::size_t World::fiber_stacks() const {
  std::size_t n = free_stacks_.size();
  for (const auto& node : nodes_) n += node->fiber_ != nullptr ? 1 : 0;
  return n;
}

void World::launch_pending() {
  // Reap finished programs first so their stacks serve this launch.  A
  // late resumer of a reaped program finds fiber_ == nullptr and does
  // nothing, exactly as it did for the finished fiber.
  for (auto& node : nodes_) {
    if (node->fiber_ != nullptr && node->fiber_->finished()) {
      free_stacks_.push_back(node->fiber_->take_stack());
      node->fiber_.reset();
    }
  }
  for (auto& [rank, program] : pending_) {
    NodeCtx& ctx = *nodes_[rank];
    std::unique_ptr<char[]> stack;
    if (!free_stacks_.empty()) {
      stack = std::move(free_stacks_.back());
      free_stacks_.pop_back();
    }
    ctx.fiber_ = std::make_unique<Fiber>(
        [&ctx, prog = std::move(program)] {
          prog(ctx);
          // A step armed for a poll that never came must not run at this
          // settlement's wake, nor at the node's next program's first one.
          ctx.idle_step_ = nullptr;
          // A program that ends mid-charge still owes its CPU time: the
          // node's completion instant must match the per-call path.
          ctx.settle();
        },
        kStackBytes, "node" + std::to_string(rank), std::move(stack));
    Fiber* f = ctx.fiber_.get();
    engine_.at(engine_.now(), [f, &ctx] {
      RunningNodeGuard guard(&ctx);
      f->resume();
    });
  }
  pending_.clear();
}

void World::check_finished() {
  std::ostringstream stuck;
  int n_stuck = 0;
  for (const auto& node : nodes_) {
    if (node->busy()) {
      if (n_stuck++) stuck << ", ";
      stuck << node->fiber_->name();
    }
  }
  if (n_stuck > 0) {
    throw std::runtime_error(
        "World::run: deadlock — event queue drained with " +
        std::to_string(n_stuck) + " program(s) still blocked: " + stuck.str());
  }
}

void World::run() {
  launch_pending();
  engine_.run();
  check_finished();
}

bool World::run_until(Time deadline) {
  launch_pending();
  engine_.run_until(deadline);
  for (const auto& node : nodes_) {
    if (node->busy()) return false;
  }
  return true;
}

}  // namespace spam::sim
