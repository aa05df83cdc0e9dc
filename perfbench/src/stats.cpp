#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const std::size_t k = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return xs[std::min(k, xs.size() - 1)];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

Tail tail(std::vector<double> xs, std::size_t beyond) {
  Tail t;
  t.samples = xs.size();
  if (xs.size() <= beyond) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t k = xs.size() - 1 - beyond;
  t.value = xs[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) /
                 static_cast<double>(xs.size());
  t.valid = true;
  return t;
}

double per_packet(double total, std::uint64_t packets) {
  return packets == 0 ? 0 : total / static_cast<double>(packets);
}

SpanClass classify(const Span& s) {
  return s.resumes_after != s.resumes_before ? SpanClass::kWaiting
                                             : SpanClass::kSelf;
}

SpanSummary summarize(const std::vector<Span>& spans) {
  SpanSummary r;
  std::vector<double> self;
  std::uint64_t switches = 0;
  for (const Span& s : spans) {
    ++r.calls;
    r.total_ns += s.ns;
    switches += s.resumes_after - s.resumes_before;
    if (classify(s) == SpanClass::kSelf) self.push_back(s.ns - s.child_ns);
  }
  r.self_calls = self.size();
  r.self_ns_p50 = median(std::move(self));
  r.switches_per_call =
      r.calls == 0 ? 0 : static_cast<double>(switches) / static_cast<double>(r.calls);
  return r;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Fingerprint::add_double(double x) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof x);
  std::memcpy(&bits, &x, sizeof bits);
  add(bits);
}

bool matches_golden(const GoldenTable& g, std::size_t index,
                    const Fingerprint& fp) {
  if (index >= g.size()) return true;
  if (fp.n != g.width) return false;
  return std::equal(fp.v.begin(), fp.v.begin() + fp.n,
                    g.rows.begin() + index * g.width);
}

double failed_frac(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0
                        : static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
