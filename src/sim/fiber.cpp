#include "sim/fiber.hpp"

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <utility>

#if defined(SPAM_SIM_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace spam::sim {
namespace {

thread_local Fiber* g_current = nullptr;
// Per-thread so concurrent driver Worlds don't race; see resume_count().
thread_local std::uint64_t g_resumes = 0;

}  // namespace

// TSan fiber bookkeeping.  The switch announcements live in the header
// (force-inlined into the switching frames); only destruction is out of
// line — no stack switch happens around it.
#if defined(SPAM_SIM_TSAN_FIBERS)
void Fiber::tsan_destroy() {
  if (tsan_fiber_ != nullptr) {
    __tsan_destroy_fiber(tsan_fiber_);
    tsan_fiber_ = nullptr;
  }
}
#endif

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes,
             std::string name, std::unique_ptr<char[]> stack)
    : body_(std::move(body)),
      // Uninitialized on purpose: a stack's pages stay unbacked until the
      // fiber first touches them.
      stack_(stack ? std::move(stack)
                   : std::make_unique_for_overwrite<char[]>(stack_bytes)),
      stack_bytes_(stack_bytes),
      name_(std::move(name)) {}

Fiber::~Fiber() {
  // Destroying a suspended fiber abandons its stack.  That is deliberate:
  // teardown after a detected deadlock or a run_until() timeout must not
  // require unwinding parked programs.
  tsan_destroy();
}

std::unique_ptr<char[]> Fiber::take_stack() {
  assert((state_ == State::kFinished || state_ == State::kCreated) &&
         "a running or suspended fiber still lives on its stack");
  return std::move(stack_);
}

Fiber* Fiber::current() { return g_current; }

std::uint64_t Fiber::resume_count() { return g_resumes; }

void Fiber::run_body() { body_(); }

#if defined(SPAM_SIM_UCONTEXT_FIBER)

// ---------------------------------------------------------------------------
// Portable path: ucontext.  One sigprocmask syscall per switch, but works
// on every POSIX architecture.
// ---------------------------------------------------------------------------

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  self->run_body();
  // Returning from the body: mark finished and fall back to the caller
  // context captured in the last resume().
  self->state_ = State::kFinished;
  g_current = nullptr;
  self->tsan_before_switch_out();
  swapcontext(&self->ctx_, &self->caller_);
  // Unreachable: a finished fiber is never resumed.
  std::abort();
}

void Fiber::resume() {
  assert(g_current == nullptr && "resume() must be called from main context");
  assert(state_ != State::kFinished && "cannot resume a finished fiber");
  assert(state_ != State::kRunning);

  ++g_resumes;
  if (state_ == State::kCreated) {
    getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = stack_.get();
    ctx_.uc_stack.ss_size = stack_bytes_;
    ctx_.uc_link = &caller_;
    const auto p = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xffffffffu));
  }
  state_ = State::kRunning;
  g_current = this;
  tsan_before_switch_in();
  swapcontext(&caller_, &ctx_);
  // Back in the main context: the fiber either yielded or finished.
  if (state_ == State::kRunning) state_ = State::kSuspended;
  g_current = nullptr;
}

void Fiber::yield() {
  Fiber* self = g_current;
  assert(self != nullptr && "yield() must be called from inside a fiber");
  self->state_ = State::kSuspended;
  g_current = nullptr;
  self->tsan_before_switch_out();
  swapcontext(&self->ctx_, &self->caller_);
  // Resumed again.
  self->state_ = State::kRunning;
  g_current = self;
}

#else

// ---------------------------------------------------------------------------
// Fast path: hand-rolled x86-64 SysV context switch (boost.context style).
// Saves the callee-saved registers plus mxcsr/fpcw on the suspending stack,
// swaps stack pointers, restores, returns.  No syscall, no signal-mask
// bookkeeping.  One frame below the switch there is no CFI, so debugger
// backtraces stop at the switch — an accepted cost of the ~14x speedup.
// ---------------------------------------------------------------------------

extern "C" void spam_sim_fiber_switch(void** save_sp, void* load_sp);
extern "C" void spam_sim_fiber_entry();

asm(R"(
.text
.globl spam_sim_fiber_switch
.hidden spam_sim_fiber_switch
.type spam_sim_fiber_switch,@function
.align 16
spam_sim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq  $8, %rsp
  stmxcsr 4(%rsp)
  fnstcw  (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 4(%rsp)
  fldcw   (%rsp)
  addq  $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
.size spam_sim_fiber_switch,.-spam_sim_fiber_switch

.globl spam_sim_fiber_entry
.hidden spam_sim_fiber_entry
.type spam_sim_fiber_entry,@function
.align 16
spam_sim_fiber_entry:
  subq $8, %rsp
  call spam_sim_fiber_entry_cxx
  ud2
.size spam_sim_fiber_entry,.-spam_sim_fiber_entry
)");

void fiber_entry_dispatch();

// First activation of a fiber lands here (via the ret in fiber_switch).
// g_current was set by resume() just before the switch.
extern "C" void spam_sim_fiber_entry_cxx() { fiber_entry_dispatch(); }

void fiber_entry_dispatch() {
  Fiber* self = g_current;
  assert(self != nullptr);
  self->run_body();
  // Returning from the body: mark finished and switch back to the caller
  // for good.  A finished fiber is never resumed, so sp_ goes dead here.
  self->state_ = Fiber::State::kFinished;
  g_current = nullptr;
  self->tsan_before_switch_out();
  spam_sim_fiber_switch(&self->sp_, self->caller_sp_);
  std::abort();  // unreachable
}

void Fiber::prepare_stack() {
  // Lay the stack out exactly as spam_sim_fiber_switch leaves it when
  // suspending, with spam_sim_fiber_entry as the return target.  The entry
  // is reached by `ret`, landing with rsp ≡ 8 (mod 16) exactly as if it
  // had been called; its own sub-8 then 16-aligns rsp before calling into
  // C++ — SSE spills in the body segfault if this is off by 8.
  auto top = reinterpret_cast<std::uintptr_t>(stack_.get()) + stack_bytes_;
  top &= ~static_cast<std::uintptr_t>(15);
  auto* sp = reinterpret_cast<std::uint64_t*>(top);
  *--sp = 0;  // fake return slot: entry never returns
  *--sp = reinterpret_cast<std::uint64_t>(&spam_sim_fiber_entry);
  for (int i = 0; i < 6; ++i) *--sp = 0;  // rbp, rbx, r12-r15
  --sp;  // fpcw (low 2 bytes) and mxcsr (at offset 4), seeded from current
  std::uint32_t mxcsr;
  std::uint16_t fpcw;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpcw));
  auto* slot = reinterpret_cast<char*>(sp);
  *reinterpret_cast<std::uint16_t*>(slot) = fpcw;
  *reinterpret_cast<std::uint32_t*>(slot + 4) = mxcsr;
  sp_ = sp;
}

void Fiber::resume() {
  assert(g_current == nullptr && "resume() must be called from main context");
  assert(state_ != State::kFinished && "cannot resume a finished fiber");
  assert(state_ != State::kRunning);

  ++g_resumes;
  if (state_ == State::kCreated) prepare_stack();
  state_ = State::kRunning;
  g_current = this;
  tsan_before_switch_in();
  spam_sim_fiber_switch(&caller_sp_, sp_);
  // Back in the main context: the fiber either yielded or finished.
  if (state_ == State::kRunning) state_ = State::kSuspended;
  g_current = nullptr;
}

void Fiber::yield() {
  Fiber* self = g_current;
  assert(self != nullptr && "yield() must be called from inside a fiber");
  self->state_ = State::kSuspended;
  g_current = nullptr;
  self->tsan_before_switch_out();
  spam_sim_fiber_switch(&self->sp_, self->caller_sp_);
  // Resumed again.
  self->state_ = State::kRunning;
  g_current = self;
}

#endif  // SPAM_SIM_UCONTEXT_FIBER

}  // namespace spam::sim
