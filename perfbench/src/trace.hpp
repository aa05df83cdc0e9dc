// Spans the traced run records around calls into each layer's public
// functions.  Tracing is off unless a Tracer is installed; a disabled
// SpanScope costs one branch.  Spans nest per simulated node, because a
// span on one node's fiber can be interrupted by another node's fiber.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "sim/fiber.hpp"
#include "stats.hpp"

namespace perfbench {

enum class SpanKind { kSend, kPoll, kHandler, kFt, kMg, kLu, kBt, kSp, kCount };

inline double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  /// Spans kept per kind for the percentiles; calls past the cap still
  /// count in calls, total time and switches.
  static constexpr std::size_t kKeep = 1 << 18;

  explicit Tracer(int nodes) : stacks_(static_cast<std::size_t>(nodes)) {}

  void begin(int node) {
    stacks_[static_cast<std::size_t>(node)].push_back(
        {now_ns(), spam::sim::Fiber::resume_count(), 0});
  }

  void end(int node, SpanKind kind) {
    const double t = now_ns();
    auto& stack = stacks_[static_cast<std::size_t>(node)];
    const Open o = stack.back();
    stack.pop_back();
    Span s{t - o.t0, o.resumes, spam::sim::Fiber::resume_count(), o.child_ns};
    if (!stack.empty()) stack.back().child_ns += s.ns;
    Totals& tot = totals_[static_cast<std::size_t>(kind)];
    ++tot.calls;
    tot.ns += s.ns;
    tot.switches += s.resumes_after - s.resumes_before;
    if (classify(s) == SpanClass::kSelf) ++tot.self_calls;
    auto& kept = spans_[static_cast<std::size_t>(kind)];
    if (kept.size() < kKeep) kept.push_back(s);
  }

  /// Summary over every call of `kind`; self_ns_p50 comes from the kept
  /// spans, the first kKeep of the run.
  SpanSummary summary(SpanKind kind) const {
    SpanSummary r = summarize(spans_[static_cast<std::size_t>(kind)]);
    const Totals& tot = totals_[static_cast<std::size_t>(kind)];
    r.calls = tot.calls;
    r.self_calls = tot.self_calls;
    r.total_ns = tot.ns;
    r.switches_per_call =
        tot.calls == 0 ? 0 : static_cast<double>(tot.switches) / tot.calls;
    return r;
  }

  /// Median wall time of `kind` calls, waiting included.
  double wall_ns_p50(SpanKind kind) const {
    std::vector<double> ns;
    for (const Span& s : spans_[static_cast<std::size_t>(kind)]) {
      ns.push_back(s.ns);
    }
    return median(std::move(ns));
  }

 private:
  struct Open {
    double t0;
    std::uint64_t resumes;
    double child_ns;
  };
  struct Totals {
    std::uint64_t calls = 0;
    double ns = 0;
    std::uint64_t switches = 0;
    std::uint64_t self_calls = 0;
  };
  static constexpr std::size_t kKinds = static_cast<std::size_t>(SpanKind::kCount);
  std::vector<std::vector<Open>> stacks_;
  std::array<std::vector<Span>, kKinds> spans_;
  std::array<Totals, kKinds> totals_{};
};

/// The installed tracer, or null when tracing is off.  The benchmark is
/// single-threaded, like the simulator it drives.
inline Tracer* g_tracer = nullptr;

class SpanScope {
 public:
  SpanScope(int node, SpanKind kind) : node_(node), kind_(kind) {
    if (g_tracer != nullptr) g_tracer->begin(node_);
    tracer_ = g_tracer;
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(node_, kind_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int node_;
  SpanKind kind_;
  Tracer* tracer_ = nullptr;
};

}  // namespace perfbench
