// Shared argv / parallel-sweep / JSON plumbing for the bench binaries.
//
// Every paper bench main has the same shape:
//
//   int main(int argc, char** argv) {
//     spam::bench::harness_init(argc, argv);    // --jobs/--quick/--out
//     ... build the list of measurement points ...
//     const auto v = spam::bench::sweep(points); // once, across --jobs
//     ... render report tables from v, emit(t) each ...
//     return spam::bench::harness_finish();
//   }
//
// sweep() runs the points across --jobs host threads via
// driver::SweepRunner.  Each point constructs and runs its own
// shared-nothing sim::World, and its value lands in the slot of its index,
// so the rendered tables — and all of stdout — are byte-identical for any
// --jobs setting: parallelism only moves the compute, never the
// aggregation order.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "report/report.hpp"

namespace spam::bench {

struct HarnessOptions {
  /// Host threads for sweep().  0 selects hardware_concurrency.
  int jobs = 0;
  /// Benches may trim their sweeps when set (smoke runs).
  bool quick = false;
  /// When non-empty, harness_finish() writes emitted tables here as JSON.
  std::string out;
};

HarnessOptions& options();

/// Parses --jobs N|--jobs=N (an integer >= 0), --quick and --out P|--out=P.
/// Any other argument, or a malformed value, prints usage to stderr and
/// exits with status 2.
void harness_init(int argc, char** argv);

/// Runs every point once across options().jobs threads; slot [i] holds
/// points[i]()'s value.  Points must be independent (one World per
/// thread — see docs/simulator.md).
template <typename R>
std::vector<R> sweep(const std::vector<std::function<R()>>& points) {
  return driver::SweepRunner(options().jobs).run(points);
}

/// Prints the table to stdout and records it for harness_finish()'s JSON.
void emit(const report::Table& t);
void emit(const report::PaperComparison& c);

/// Writes collected tables to options().out (no-op when --out was absent).
/// Returns 0, so mains can `return harness_finish();`.
int harness_finish();

// --- Figure 3 shared sweep --------------------------------------------------
// Used by bench_fig3_bandwidth, bench_table3_summary, tools/spamsim,
// bench_sweep_perf, and the serial-vs-parallel determinism test, so all of
// them agree on the bytes.

/// The six Figure 3 curves, in table-column order.
enum Fig3Curve {
  kFig3SyncStore,
  kFig3SyncGet,
  kFig3MplBlocking,
  kFig3AsyncStore,
  kFig3AsyncGet,
  kFig3MplPipelined,
  kFig3Curves
};

/// Measures every (size, curve) point once across `jobs` threads.  The
/// value for sizes[i] on curve c is at [i * kFig3Curves + c].
std::vector<double> fig3_sweep(const std::vector<std::size_t>& sizes,
                               int jobs);

/// The rendered Figure 3 table for fig3_sweep(sizes, ...)'s values.
report::Table fig3_table(const std::vector<std::size_t>& sizes,
                         const std::vector<double>& mbps);

}  // namespace spam::bench
