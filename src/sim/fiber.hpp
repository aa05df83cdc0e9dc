// Cooperative fibers used to run one simulated node's program per fiber on
// top of the single-threaded event engine.
//
// Discipline: the *main* context resumes a fiber with resume(); the fiber
// runs until it calls Fiber::yield() (or returns), which switches back to
// the main context.  Fibers never resume each other directly — all
// scheduling goes through the engine, preserving determinism.
//
// On x86-64 the context switch is a hand-rolled callee-saved-register swap
// (~15 ns per switch).  glibc's swapcontext makes a sigprocmask syscall on
// every switch (~200 ns), and with two switches per elapse() it dominated
// the whole event loop.  The fast path deliberately does NOT preserve
// per-fiber signal masks or FP exception state beyond mxcsr/fpcw — the
// simulator is single-threaded and signal-free.  Other architectures (or
// -DSPAM_SIM_FORCE_UCONTEXT) keep the portable ucontext path.
#pragma once

#include <cstdint>

#if !defined(__x86_64__) || defined(SPAM_SIM_FORCE_UCONTEXT)
#define SPAM_SIM_UCONTEXT_FIBER 1
#include <ucontext.h>
#endif

// Under ThreadSanitizer the manual stack switches must be announced via the
// sanitizer fiber API, or TSan's shadow stack diverges from reality at the
// first switch (crashes and phantom races).  The annotations also give each
// fiber its own happens-before context, so driver::SweepRunner's worker
// threads can run whole Worlds-with-fibers concurrently under TSan.
#if defined(__SANITIZE_THREAD__)
#define SPAM_SIM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPAM_SIM_TSAN_FIBERS 1
#endif
#endif

#if defined(SPAM_SIM_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

namespace spam::sim {

class Fiber {
 public:
  enum class State { kCreated, kRunning, kSuspended, kFinished };

  /// Creates a fiber that will execute `body` on first resume().
  /// `stack_bytes` must comfortably hold the deepest call chain of the
  /// simulated program; application arrays belong on the heap.  `stack`,
  /// when given, is a reused allocation of exactly `stack_bytes` bytes
  /// (see take_stack()); otherwise a fresh one is allocated.
  explicit Fiber(std::function<void()> body,
                 std::size_t stack_bytes = 512 * 1024,
                 std::string name = {},
                 std::unique_ptr<char[]> stack = nullptr);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches from the main context into the fiber.  Must not be called
  /// from inside any fiber, and not on a finished fiber.
  void resume();

  /// Switches from the currently running fiber back to the main context.
  /// Must be called from inside a fiber.
  static void yield();

  /// The fiber currently executing, or nullptr when in the main context.
  static Fiber* current();

  /// Total resume() calls on this host thread since it started (each one
  /// is two context switches: in and back out).  Benches read deltas to
  /// report fiber switches per simulated message.
  static std::uint64_t resume_count();

  State state() const { return state_; }
  bool finished() const { return state_ == State::kFinished; }
  const std::string& name() const { return name_; }

  /// Hands the stack of a finished (or never started) fiber to the caller
  /// for reuse by a later fiber of the same stack size.  Nothing of the
  /// fiber lives on it any more; the fiber must not be resumed again.
  std::unique_ptr<char[]> take_stack();

 private:
  void run_body();

  std::function<void()> body_;
  std::unique_ptr<char[]> stack_;
  std::size_t stack_bytes_;
  std::string name_;
#if defined(SPAM_SIM_UCONTEXT_FIBER)
  static void trampoline(unsigned hi, unsigned lo);
  ucontext_t ctx_{};
  ucontext_t caller_{};
#else
  friend void fiber_entry_dispatch();
  void prepare_stack();
  void* sp_ = nullptr;         // fiber's saved stack pointer when suspended
  void* caller_sp_ = nullptr;  // main context's stack pointer while running
#endif
#if defined(SPAM_SIM_TSAN_FIBERS)
  // Force-inlined so the announcement executes in the *same instrumented
  // frame* as the stack switch.  As out-of-line functions their
  // __tsan_func_entry lands on one fiber's shadow call stack and the
  // matching __tsan_func_exit pops the *other* fiber's (the switch happens
  // mid-function), underflowing the shadow stack until libtsan crashes.
  __attribute__((always_inline)) inline void tsan_before_switch_in() {
    if (tsan_fiber_ == nullptr) tsan_fiber_ = __tsan_create_fiber(0);
    tsan_caller_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber_, 0);
  }
  __attribute__((always_inline)) inline void tsan_before_switch_out() {
    __tsan_switch_to_fiber(tsan_caller_, 0);
  }
  void tsan_destroy();
  void* tsan_fiber_ = nullptr;   // __tsan_create_fiber handle, lazily made
  void* tsan_caller_ = nullptr;  // TSan fiber to return to on yield/finish
#else
  void tsan_before_switch_in() {}
  void tsan_before_switch_out() {}
  void tsan_destroy() {}
#endif
  State state_ = State::kCreated;
};

}  // namespace spam::sim
