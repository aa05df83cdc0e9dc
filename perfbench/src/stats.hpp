// The benchmark's own arithmetic: percentiles and the tail rule, span
// classification, per-packet normalization, metric-name validation and
// the per-sample golden-value check.  Pure functions, no simulator types,
// so selftest.cpp can pin every rule on hand-made inputs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`; 0 for an empty
/// vector.  The value returned is always one of the samples.
double percentile(std::vector<double> xs, double p);

double median(std::vector<double> xs);

/// The highest percentile with at least `beyond` samples above it: the
/// (beyond+1)-th largest sample.  `percentile` is its nearest rank,
/// 100 * (n - beyond) / n.  Invalid (value 0) when n <= beyond.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
  bool valid = false;
};
Tail tail(std::vector<double> xs, std::size_t beyond = 10);

/// Host cost of `total` spread over `packets` simulated packets.  A sample
/// that moved no packet has no per-packet cost: returns 0.
double per_packet(double total, std::uint64_t packets);

/// One timed call into a layer's public function, seen from outside.
/// `resumes_*` are Fiber::resume_count() at entry and exit; `child_ns` is
/// the part of the span covered by spans nested inside it on the same node.
struct Span {
  double ns = 0;
  std::uint64_t resumes_before = 0;
  std::uint64_t resumes_after = 0;
  double child_ns = 0;
};

/// A span that advanced the resume count blocked while other nodes ran:
/// its time is waiting, not the layer's self time.
enum class SpanClass { kSelf, kWaiting };
SpanClass classify(const Span& s);

struct SpanSummary {
  std::uint64_t calls = 0;
  std::uint64_t self_calls = 0;        // calls classified kSelf
  double self_ns_p50 = 0;              // median (ns - child_ns) of kSelf calls
  double switches_per_call = 0;        // mean resume-count advance
  double total_ns = 0;                 // sum of ns over every call
};
SpanSummary summarize(const std::vector<Span>& spans);

/// Metric names are at most 64 characters of [A-Za-z0-9_.-], starting
/// with a letter or digit.
bool valid_metric_name(std::string_view name);

/// The virtual results one sample produced, as exact 64-bit patterns
/// (integer nanoseconds, checksums, or the bits of a double).
struct Fingerprint {
  static constexpr std::size_t kMax = 10;
  std::array<std::uint64_t, kMax> v{};
  std::size_t n = 0;
  void add(std::uint64_t x) { v.at(n++) = x; }
  void add_double(double x);
};

/// Golden fingerprints pinned per sample index (the index counts every
/// repetition run in one world, warm-up included).  Indices past the end
/// of `rows` are unpinned.
struct GoldenTable {
  std::size_t width = 0;
  std::vector<std::uint64_t> rows;  // row-major, width values per index
  std::size_t size() const { return width == 0 ? 0 : rows.size() / width; }
};

/// True when the sample at `index` matches its pinned row (or is unpinned).
bool matches_golden(const GoldenTable& g, std::size_t index,
                    const Fingerprint& fp);

double failed_frac(std::uint64_t failed, std::uint64_t attempted);

}  // namespace perfbench
