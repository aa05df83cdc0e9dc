// Reproduces paper Table 3 (performance summary of SP AM vs IBM MPL) and
// the section 2.3 latency numbers: one-word round-trips (AM 51.0 us, raw
// 46.5 us, MPL 88 us), asymptotic bandwidths, and half-power points.
#include "harness.hpp"
#include "micro.hpp"

namespace {

using spam::report::BwPoint;

/// One Figure 3 curve as (size, MB/s) points, from fig3_sweep's values.
std::vector<BwPoint> curve(const std::vector<std::size_t>& sizes,
                           const std::vector<double>& mbps,
                           spam::bench::Fig3Curve c) {
  std::vector<BwPoint> out;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    out.push_back({sizes[i], mbps[i * spam::bench::kFig3Curves + c]});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  // Round-trips: AM with 1..4 words, raw, MPL.  Then the six Figure 3
  // curves the r-inf and n-1/2 analysis reads.
  std::vector<std::function<double()>> points;
  for (int n = 1; n <= 4; ++n) {
    points.push_back([n] { return spam::bench::am_rtt_us(n); });
  }
  points.push_back([] { return spam::bench::raw_rtt_us(); });
  points.push_back([] { return spam::bench::mpl_rtt_us(); });
  const std::vector<double> rtt = spam::bench::sweep(points);
  const auto sizes = spam::bench::figure3_sizes();
  const std::vector<double> mbps =
      spam::bench::fig3_sweep(sizes, spam::bench::options().jobs);

  using spam::report::fmt_bytes;
  using spam::report::fmt_mbps;
  using spam::report::fmt_us;

  const double am1 = rtt[0];
  const double am4 = rtt[3];
  const double raw = rtt[4];
  const double mpl = rtt[5];

  const auto async_store = curve(sizes, mbps, spam::bench::kFig3AsyncStore);
  const auto async_get = curve(sizes, mbps, spam::bench::kFig3AsyncGet);
  const auto sync_store = curve(sizes, mbps, spam::bench::kFig3SyncStore);
  const auto sync_get = curve(sizes, mbps, spam::bench::kFig3SyncGet);
  const auto mpl_pipe = curve(sizes, mbps, spam::bench::kFig3MplPipelined);
  const auto mpl_block = curve(sizes, mbps, spam::bench::kFig3MplBlocking);

  spam::report::PaperComparison cmp(
      "Table 3 — performance summary of SP AM and IBM MPL (thin nodes)");
  cmp.add("AM one-word round-trip", fmt_us(51.0), fmt_us(am1));
  cmp.add("AM per-extra-word growth", "~0.2 us/word",
          spam::report::fmt((am4 - am1) / 3.0, 2) + " us/word");
  cmp.add("raw round-trip (no flow control)", fmt_us(46.5), fmt_us(raw));
  cmp.add("AM overhead over raw", fmt_us(4.5), fmt_us(am1 - raw),
          "cache flushes + flow-control bookkeeping");
  cmp.add("MPL one-word round-trip", fmt_us(88.0), fmt_us(mpl));
  cmp.add("AM r-inf (pipelined store)", fmt_mbps(34.3),
          fmt_mbps(spam::report::r_infinity(async_store)));
  cmp.add("MPL r-inf (pipelined send)", fmt_mbps(34.6),
          fmt_mbps(spam::report::r_infinity(mpl_pipe)));
  cmp.add("AM n1/2 async store", "~260 B (scan-garbled)",
          fmt_bytes(spam::report::n_half(async_store)));
  cmp.add("AM n1/2 async get", "slightly higher",
          fmt_bytes(spam::report::n_half(async_get)));
  cmp.add("AM n1/2 sync store", "~800 B",
          fmt_bytes(spam::report::n_half(sync_store)));
  cmp.add("AM n1/2 sync get", "~3000 B",
          fmt_bytes(spam::report::n_half(sync_get)));
  cmp.add("MPL n1/2 pipelined", ">= 4x AM's (scan-garbled)",
          fmt_bytes(spam::report::n_half(mpl_pipe)));
  cmp.add("MPL n1/2 blocking", "> 3000 B",
          fmt_bytes(spam::report::n_half(mpl_block)));
  spam::bench::emit(cmp);
  using spam::report::fmt;
  std::printf("\nAM round-trip for 1/2/3/4 words: %s / %s / %s / %s us\n",
              fmt(rtt[0], 2).c_str(), fmt(rtt[1], 2).c_str(),
              fmt(rtt[2], 2).c_str(), fmt(rtt[3], 2).c_str());
  return spam::bench::harness_finish();
}
