// Host-side performance of the application hot path: how fast the
// simulator runs the paper's Table 5 Split-C apps and Table 6 NAS kernels,
// and what the node-local virtual clocks buy on that path.  Unlike the
// table/figure benches (which report *virtual* time, reproducing the
// paper), this bench reports *host* time: it is the regression guard for
// the local-clock fast path.
//
// Each workload runs three times per mode (two warmup repetitions plus a
// measured one, all in the same world, so pools are warm and the measured
// rep is allocation-free) in two modes:
//   reference — localclock off: every charge() is a full elapse();
//   deferred  — localclock on: charges accumulate into the per-node debt
//               ledger and settle at interaction points.
// Virtual results (paper times, checksums) must be bit-identical across
// the two modes — the optimization may only move host time, never virtual
// time — and the JSON reports the comparison alongside the speedup.
// `events` counts what the engine executed and `events_simulated` adds the
// elided events (the per-charge-equivalent work, the same in both modes);
// `switches_per_message` exposes how many fiber round-trips each AM-level
// packet costs after debt folding.
//
// Usage: bench_app_perf [--quick] [--no-localclock] [--out <path>]
// --no-localclock measures only the reference mode (for profiling the
// per-call path); no speedup is reported.  Writes a JSON report (default:
// BENCH_app_perf.json in the cwd) and prints it to stdout.  Exit code is 0
// even when slower than baseline: judging the numbers is the driver's job,
// producing them is ours.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "apps/nas.hpp"
#include "apps/splitc_apps.hpp"
#include "harness.hpp"
#include "mpif/mpi_world.hpp"
#include "sim/fiber.hpp"
#include "sphw/payload.hpp"
#include "splitc/splitc_world.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Snapshot of every allocation counter the hot path can touch.
struct AllocCounters {
  std::uint64_t event_nodes;
  std::uint64_t heap_actions;
  std::uint64_t payload_buffers;
  static AllocCounters sample(spam::sim::Engine& engine) {
    const auto pool = engine.pool_stats();
    const auto payload = spam::sphw::PayloadPool::instance().stats();
    return {pool.nodes_allocated, pool.action_heap_fallbacks,
            payload.buffers_allocated};
  }
};

/// One workload in one mode: the measured (second) repetition.
struct ModeResult {
  double wall_s = 0.0;
  double virt_s = 0.0;          // the paper-facing virtual result
  std::uint64_t checksum = 0;   // app-level verification value
  bool valid = false;
  std::uint64_t events = 0;     // engine events executed
  std::uint64_t simulated = 0;  // per-charge-equivalent events
  std::uint64_t switches = 0;   // fiber resumes
  std::uint64_t messages = 0;   // AM-level packets (adapter tx)
  std::uint64_t new_allocs = 0; // pool growth across the measured rep
  double switches_per_message() const {
    return messages > 0 ? static_cast<double>(switches) / messages : 0;
  }
};

struct WorkloadResult {
  std::string name;
  ModeResult ref;       // localclock off
  ModeResult fast;      // localclock on (empty when --no-localclock)
  bool virt_identical = false;
};

bool g_localclock = true;  // --no-localclock measures only the reference

// A mode runner: executes the workload once in a prepared world and
// returns (virtual seconds, checksum, valid).
struct VirtResult {
  double virt_s;
  std::uint64_t checksum;
  bool valid;
};

/// Runs `rep` twice in the world behind (engine, tx_packets), measuring
/// the second repetition: warm pools, steady-state fibers.
template <typename Rep, typename TxPackets>
ModeResult measure(spam::sim::Engine& engine, TxPackets&& tx_packets,
                   Rep&& rep) {
  // Two warmup repetitions: the second rep's event pattern differs
  // slightly from the first (virtual time no longer starts at zero), so
  // one warmup can leave the event pool a node short of its steady state.
  rep();
  rep();
  ModeResult r;
  const auto wall0 = Clock::now();
  const std::uint64_t ev0 = engine.events_executed();
  const std::uint64_t sim0 = engine.events_simulated();
  const std::uint64_t sw0 = spam::sim::Fiber::resume_count();
  const std::uint64_t tx0 = tx_packets();
  const AllocCounters a0 = AllocCounters::sample(engine);
  const VirtResult v = rep();
  r.wall_s = secs_since(wall0);
  r.virt_s = v.virt_s;
  r.checksum = v.checksum;
  r.valid = v.valid;
  r.events = engine.events_executed() - ev0;
  r.simulated = engine.events_simulated() - sim0;
  r.switches = spam::sim::Fiber::resume_count() - sw0;
  r.messages = tx_packets() - tx0;
  const AllocCounters a1 = AllocCounters::sample(engine);
  r.new_allocs = (a1.event_nodes - a0.event_nodes) +
                 (a1.heap_actions - a0.heap_actions) +
                 (a1.payload_buffers - a0.payload_buffers);
  return r;
}

// --- Table 5: Split-C apps on the SP AM machine, 8 processors ---------------

ModeResult run_splitc_mode(
    bool local_clock,
    const std::function<VirtResult(spam::splitc::SplitCWorld&)>& app) {
  spam::splitc::SplitCConfig cfg;
  cfg.nodes = 8;
  cfg.backend = spam::splitc::Backend::kSpAm;
  cfg.hw.local_clock = local_clock;
  spam::splitc::SplitCWorld w(cfg);
  auto tx = [&w] {
    std::uint64_t n = 0;
    for (int i = 0; i < w.size(); ++i) {
      n += w.sp_machine()->adapter(i).stats().tx_packets;
    }
    return n;
  };
  return measure(w.world().engine(), tx, [&] { return app(w); });
}

// --- Table 6: NAS kernels on MPI-AM (optimized), 4 nodes --------------------

ModeResult run_nas_mode(
    bool local_clock,
    const std::function<VirtResult(spam::mpi::MpiWorld&)>& app) {
  spam::mpi::MpiWorldConfig cfg;
  cfg.nodes = 4;
  cfg.impl = spam::mpi::MpiImpl::kAmOptimized;
  cfg.hw.local_clock = local_clock;
  spam::mpi::MpiWorld w(cfg);
  auto tx = [&w] {
    std::uint64_t n = 0;
    for (int i = 0; i < w.size(); ++i) {
      n += w.machine().adapter(i).stats().tx_packets;
    }
    return n;
  };
  return measure(w.world().engine(), tx, [&] { return app(w); });
}

template <typename RunMode>
WorkloadResult run_workload(const std::string& name, RunMode&& run_mode) {
  WorkloadResult r;
  r.name = name;
  r.ref = run_mode(false);
  if (g_localclock) {
    r.fast = run_mode(true);
    r.virt_identical = r.ref.virt_s == r.fast.virt_s &&
                       r.ref.checksum == r.fast.checksum &&
                       r.ref.valid && r.fast.valid;
  }
  return r;
}

VirtResult from_phases(const spam::apps::PhaseTimes& pt) {
  return {pt.total_s, pt.checksum, pt.valid};
}

VirtResult from_nas(const spam::apps::NasResult& nr) {
  // Fold the floating checksum's bits in so "identical" means bit-identical.
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof nr.checksum);
  std::memcpy(&bits, &nr.checksum, sizeof bits);
  return {nr.time_s, bits, nr.finished};
}

// Reference-mode suite wall seconds measured at the introduction of the
// local clock (quick mode, one core, RelWithDebInfo): the per-call charge
// path this PR's deferral replaces.  Update when re-baselining.
constexpr double kBaselineQuickSuiteWallS = 0.130;

}  // namespace

int main(int argc, char** argv) {
  // The workloads stay serial on purpose — they measure host wall-clock,
  // and concurrent runs would contend for cores and corrupt the numbers.
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--no-localclock") == 0) {
      g_localclock = false;
      for (int j = i; j < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else {
      ++i;
    }
  }
  spam::bench::harness_init(argc, argv, "[--no-localclock]");
  const bool quick = spam::bench::options().quick;
  const std::string out = spam::bench::options().out.empty()
                              ? "BENCH_app_perf.json"
                              : spam::bench::options().out;

  using spam::apps::SortVariant;
  const std::size_t keys = quick ? 8 * 1024 : 64 * 1024;
  const int mm_bd = quick ? 32 : 64;
  const int nas_n = quick ? 16 : 32;
  const int lu_n = quick ? 64 : 128;

  std::vector<WorkloadResult> results;
  results.push_back(run_workload("mm", [&](bool lc) {
    return run_splitc_mode(lc, [&](spam::splitc::SplitCWorld& w) {
      return from_phases(spam::apps::run_matmul(w, 4, mm_bd));
    });
  }));
  results.push_back(run_workload("smpsort_small", [&](bool lc) {
    return run_splitc_mode(lc, [&](spam::splitc::SplitCWorld& w) {
      return from_phases(
          spam::apps::run_sample_sort(w, keys, SortVariant::kSmallMessage));
    });
  }));
  results.push_back(run_workload("smpsort_bulk", [&](bool lc) {
    return run_splitc_mode(lc, [&](spam::splitc::SplitCWorld& w) {
      return from_phases(
          spam::apps::run_sample_sort(w, keys, SortVariant::kBulk));
    });
  }));
  results.push_back(run_workload("rdxsort_small", [&](bool lc) {
    return run_splitc_mode(lc, [&](spam::splitc::SplitCWorld& w) {
      return from_phases(
          spam::apps::run_radix_sort(w, keys, SortVariant::kSmallMessage));
    });
  }));
  results.push_back(run_workload("rdxsort_bulk", [&](bool lc) {
    return run_splitc_mode(lc, [&](spam::splitc::SplitCWorld& w) {
      return from_phases(
          spam::apps::run_radix_sort(w, keys, SortVariant::kBulk));
    });
  }));
  results.push_back(run_workload("nas_ft", [&](bool lc) {
    return run_nas_mode(lc, [&](spam::mpi::MpiWorld& w) {
      return from_nas(spam::apps::run_ft(w, nas_n, 1));
    });
  }));
  results.push_back(run_workload("nas_mg", [&](bool lc) {
    return run_nas_mode(lc, [&](spam::mpi::MpiWorld& w) {
      return from_nas(spam::apps::run_mg(w, nas_n, 1));
    });
  }));
  results.push_back(run_workload("nas_lu", [&](bool lc) {
    return run_nas_mode(lc, [&](spam::mpi::MpiWorld& w) {
      return from_nas(spam::apps::run_lu(w, lu_n, 1));
    });
  }));
  results.push_back(run_workload("nas_bt", [&](bool lc) {
    return run_nas_mode(lc, [&](spam::mpi::MpiWorld& w) {
      return from_nas(spam::apps::run_bt(w, nas_n, 1));
    });
  }));
  results.push_back(run_workload("nas_sp", [&](bool lc) {
    return run_nas_mode(lc, [&](spam::mpi::MpiWorld& w) {
      return from_nas(spam::apps::run_sp(w, nas_n, 1));
    });
  }));

  double ref_wall = 0, fast_wall = 0;
  std::uint64_t total_allocs = 0;
  bool all_identical = true, all_valid = true;
  for (const WorkloadResult& r : results) {
    ref_wall += r.ref.wall_s;
    fast_wall += r.fast.wall_s;
    total_allocs += r.ref.new_allocs + r.fast.new_allocs;
    all_valid = all_valid && r.ref.valid;
    if (g_localclock) all_identical = all_identical && r.virt_identical;
  }

  std::string json = "{\n";
  char buf[640];
  std::snprintf(buf, sizeof buf, "  \"localclock\": %s,\n",
                g_localclock ? "true" : "false");
  json += buf;
  json += "  \"workloads\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    auto mode_json = [&buf](const char* key, const ModeResult& m) {
      std::snprintf(
          buf, sizeof buf,
          "\"%s\": {\"wall_s\": %.6f, \"virt_s\": %.9f, \"valid\": %s, "
          "\"events\": %llu, \"events_simulated\": %llu, "
          "\"switches\": %llu, \"messages\": %llu, "
          "\"switches_per_message\": %.3f, \"new_allocs\": %llu}",
          key, m.wall_s, m.virt_s, m.valid ? "true" : "false",
          static_cast<unsigned long long>(m.events),
          static_cast<unsigned long long>(m.simulated),
          static_cast<unsigned long long>(m.switches),
          static_cast<unsigned long long>(m.messages),
          m.switches_per_message(),
          static_cast<unsigned long long>(m.new_allocs));
      return std::string(buf);
    };
    json += "    \"" + r.name + "\": {";
    json += mode_json("reference", r.ref);
    if (g_localclock) {
      json += ", ";
      json += mode_json("deferred", r.fast);
      std::snprintf(buf, sizeof buf,
                    ", \"speedup\": %.3f, \"virt_identical\": %s",
                    r.fast.wall_s > 0 ? r.ref.wall_s / r.fast.wall_s : 0.0,
                    r.virt_identical ? "true" : "false");
      json += buf;
    }
    json += i + 1 < results.size() ? "},\n" : "}\n";
  }
  json += "  },\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"suite\": {\"reference_wall_s\": %.6f, \"deferred_wall_s\": %.6f, "
      "\"speedup\": %.3f, \"virt_identical\": %s, \"all_valid\": %s},\n",
      ref_wall, fast_wall,
      g_localclock && fast_wall > 0 ? ref_wall / fast_wall : 0.0,
      all_identical ? "true" : "false", all_valid ? "true" : "false");
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"steady_state_allocs\": {\"total\": %llu, \"zero\": %s},\n",
                static_cast<unsigned long long>(total_allocs),
                total_allocs == 0 ? "true" : "false");
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"baseline\": {\"quick_suite_wall_s\": %.3f},\n",
                kBaselineQuickSuiteWallS);
  json += buf;
  std::snprintf(buf, sizeof buf, "  \"quick\": %s\n}\n",
                quick ? "true" : "false");
  json += buf;

  std::fputs(json.c_str(), stdout);
  if (std::FILE* fp = std::fopen(out.c_str(), "w")) {
    std::fputs(json.c_str(), fp);
    std::fclose(fp);
  } else {
    std::fprintf(stderr, "bench_app_perf: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
