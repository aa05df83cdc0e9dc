// Parallel-sweep regression guard: times the Figure-3 bandwidth sweep run
// serially (--jobs 1) and across all host cores, checks the two rendered
// tables are byte-identical, and records wall-clock and speedup.  Unlike
// the table/figure benches this reports *host* time; it is the regression
// guard for the driver::SweepRunner path.
//
// Usage: bench_sweep_perf [--quick] [--jobs N] [--out <path>]
// Writes a JSON report (default: BENCH_sweep_perf.json in the cwd) and
// prints it to stdout.  Exit code is non-zero only if the serial and
// parallel sweeps disagree — speedup is recorded, not judged (a 1-core
// host cannot speed up, and honestly says so in "host_cores").
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "micro.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One sweep at `jobs` threads: compute every point, render the table.
/// Returns (render, wall seconds of the compute).
std::pair<std::string, double> timed_sweep(
    int jobs, const std::vector<std::size_t>& sizes) {
  const auto t0 = Clock::now();
  const std::vector<double> mbps = spam::bench::fig3_sweep(sizes, jobs);
  const double wall = secs_since(t0);
  return {spam::bench::fig3_table(sizes, mbps).render(), wall};
}

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);
  const bool quick = spam::bench::options().quick;
  const std::string out = spam::bench::options().out.empty()
                              ? "BENCH_sweep_perf.json"
                              : spam::bench::options().out;

  std::vector<std::size_t> sizes = spam::bench::figure3_sizes();
  if (quick) sizes = {16, 512, 8192, 65536, 1u << 20};

  const unsigned hc = std::thread::hardware_concurrency();
  const unsigned host_cores = hc == 0 ? 1 : hc;
  // At least two threads even on a 1-core host, so the identity check
  // always exercises the pooled path (speedup then honestly reads ~1x).
  const int jobs = spam::bench::options().jobs > 0
                       ? spam::bench::options().jobs
                       : static_cast<int>(host_cores < 2 ? 2 : host_cores);

  const auto [serial_render, serial_s] = timed_sweep(1, sizes);
  const auto [parallel_render, parallel_s] = timed_sweep(jobs, sizes);
  const bool identical = serial_render == parallel_render;
  const double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;
  // On a 1-core host the two-thread run can only time-slice, so "speedup"
  // is informational (thread start-up overhead), not a parallelism regression.
  const bool gated_by_cores = host_cores == 1;

  std::fwrite(parallel_render.data(), 1, parallel_render.size(), stdout);

  std::string json = "{\n";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"host_cores\": %u,\n  \"jobs\": %d,\n"
                "  \"points\": %zu,\n  \"serial_s\": %.6f,\n"
                "  \"parallel_s\": %.6f,\n  \"speedup\": %.3f,\n"
                "  \"gated_by_cores\": %s,\n"
                "  \"identical_output\": %s,\n  \"quick\": %s\n}\n",
                host_cores, jobs, sizes.size() * 6, serial_s, parallel_s,
                speedup, gated_by_cores ? "true" : "false",
                identical ? "true" : "false", quick ? "true" : "false");
  json += buf;

  std::fputs(json.c_str(), stdout);
  if (std::FILE* fp = std::fopen(out.c_str(), "w")) {
    std::fputs(json.c_str(), fp);
    std::fclose(fp);
  } else {
    std::fprintf(stderr, "bench_sweep_perf: cannot write %s\n", out.c_str());
    return 1;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "bench_sweep_perf: serial and parallel sweeps disagree\n");
    return 1;
  }
  return 0;
}
