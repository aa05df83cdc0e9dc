// Dual-mode equivalence suite for the node-local virtual clocks.
//
// Every table/figure workload of the paper reproduction is run twice —
// `local_clock = false` (each charge is its own engine elapse) and `true`
// (charges accumulate into a per-node debt ledger that materializes as one
// engine event at the next interaction point) — and every virtual-time
// result must be IDENTICAL: deferred charging is a fiber-switch
// optimization with a bit-exactness contract, never an approximation.
// Doubles are compared with EXPECT_EQ (exact bits, not a tolerance) and
// the Figure 3 sweep is additionally rendered to a report::Table whose
// output must be byte-identical across modes.
//
// The suite ends with a seeded fuzz over the raw World layer that mixes
// fine-grain charges with suspends, racing resumers (fired between a
// node's make_resumer() and its suspend()), mid-debt wakes, cross-node
// clock observations and trace emission, and checks the observation log,
// the trace stream, and the events_simulated() ledger all match the
// per-charge reference byte for byte.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "apps/nas.hpp"
#include "apps/splitc_apps.hpp"
#include "micro.hpp"
#include "report/report.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "sphw/machine.hpp"

namespace spam {
namespace {

sphw::SpParams thin(bool local_clock) {
  sphw::SpParams p = sphw::SpParams::thin_node();
  p.local_clock = local_clock;
  return p;
}

sphw::SpParams wide(bool local_clock) {
  sphw::SpParams p = sphw::SpParams::wide_node();
  p.local_clock = local_clock;
  return p;
}

mpi::MpiWorldConfig mpi_cfg(mpi::MpiImpl impl, bool local_clock,
                            bool wide_nodes = false) {
  mpi::MpiWorldConfig cfg;
  cfg.impl = impl;
  cfg.nodes = 4;
  cfg.hw = wide_nodes ? wide(local_clock) : thin(local_clock);
  if (impl == mpi::MpiImpl::kMpiF) {
    cfg.f_cfg =
        wide_nodes ? mpif::MpiFConfig::wide() : mpif::MpiFConfig::thin();
  }
  return cfg;
}

splitc::SplitCConfig splitc_cfg(bool local_clock, int nodes = 8,
                                splitc::Backend backend =
                                    splitc::Backend::kSpAm) {
  splitc::SplitCConfig cfg;
  cfg.nodes = nodes;
  cfg.backend = backend;
  cfg.hw = thin(local_clock);
  return cfg;
}

// --- Table 2: AM primitive overheads ----------------------------------------

TEST(LocalClockEquivalence, Table2AmOverheads) {
  for (int words = 1; words <= 4; ++words) {
    EXPECT_EQ(bench::am_request_cost_us(words, thin(false)),
              bench::am_request_cost_us(words, thin(true)))
        << "request_" << words;
    EXPECT_EQ(bench::am_reply_cost_us(words, thin(false)),
              bench::am_reply_cost_us(words, thin(true)))
        << "reply_" << words;
  }
  EXPECT_EQ(bench::am_poll_empty_us(thin(false)),
            bench::am_poll_empty_us(thin(true)));
  EXPECT_EQ(bench::am_poll_one_msg_us(thin(false)),
            bench::am_poll_one_msg_us(thin(true)));
}

// --- Table 3 / Table 4: round-trip latencies, thin and wide nodes -----------

TEST(LocalClockEquivalence, Table3And4RoundTrips) {
  for (int words = 1; words <= 4; ++words) {
    EXPECT_EQ(bench::am_rtt_us(words, thin(false)),
              bench::am_rtt_us(words, thin(true)))
        << "am_rtt words=" << words;
  }
  EXPECT_EQ(bench::raw_rtt_us(thin(false)), bench::raw_rtt_us(thin(true)));
  EXPECT_EQ(bench::mpl_rtt_us(thin(false)), bench::mpl_rtt_us(thin(true)));
  EXPECT_EQ(bench::am_rtt_us(1, wide(false)), bench::am_rtt_us(1, wide(true)));
  EXPECT_EQ(bench::mpl_rtt_us(wide(false)), bench::mpl_rtt_us(wide(true)));
}

// --- Figure 3: the bandwidth sweep, rendered byte-identically ----------------

TEST(LocalClockEquivalence, Fig3BandwidthTableByteIdentical) {
  const std::vector<std::size_t> sizes = {16, 512, 8192, 65536, 1u << 20};
  auto render = [&](bool local_clock) {
    report::Table t("Figure 3: AM/MPL bandwidth vs transfer size");
    t.set_header({"bytes", "store", "get", "async store", "async get",
                  "mpl block", "mpl pipe"});
    const sphw::SpParams hw = thin(local_clock);
    for (std::size_t s : sizes) {
      char cell[32];
      std::vector<std::string> row;
      auto add = [&](double v) {
        std::snprintf(cell, sizeof cell, "%.6f", v);
        row.emplace_back(cell);
      };
      std::snprintf(cell, sizeof cell, "%zu", s);
      row.emplace_back(cell);
      add(bench::am_bandwidth_mbps(bench::AmBwMode::kSyncStore, s, hw));
      add(bench::am_bandwidth_mbps(bench::AmBwMode::kSyncGet, s, hw));
      add(bench::am_bandwidth_mbps(bench::AmBwMode::kPipelinedAsyncStore, s,
                                   hw));
      add(bench::am_bandwidth_mbps(bench::AmBwMode::kPipelinedAsyncGet, s, hw));
      add(bench::mpl_bandwidth_mbps(bench::MplBwMode::kBlocking, s, hw));
      add(bench::mpl_bandwidth_mbps(bench::MplBwMode::kPipelined, s, hw));
      t.add_row(std::move(row));
    }
    return t.render();
  };
  const std::string slow = render(false);
  const std::string fast = render(true);
  EXPECT_EQ(slow, fast) << "Figure 3 rendering must be byte-identical";
}

// --- Figure 7: MPI protocol regimes -----------------------------------------

TEST(LocalClockEquivalence, Fig7ProtocolCurves) {
  auto protocol_cfg = [](int which, bool local_clock) {
    mpi::MpiWorldConfig cfg = mpi_cfg(mpi::MpiImpl::kAmOptimized, local_clock);
    cfg.am_cfg = mpi::MpiAmConfig::opt();
    if (which == 0) {  // buffered: everything eager
      cfg.am_cfg.peer_buffer_bytes = 256 * 1024;
      cfg.am_cfg.eager_max = 200 * 1024;
      cfg.am_cfg.hybrid = false;
    } else if (which == 1) {  // rendezvous: nothing eager
      cfg.am_cfg.eager_max = 0;
      cfg.am_cfg.hybrid = false;
    } else {  // hybrid path for every message
      cfg.am_cfg.eager_max = 0;
      cfg.am_cfg.hybrid = true;
    }
    return cfg;
  };
  for (int which = 0; which < 3; ++which) {
    for (std::size_t s : {std::size_t{512}, std::size_t{8192}}) {
      EXPECT_EQ(bench::mpi_bandwidth_mbps(protocol_cfg(which, false), s),
                bench::mpi_bandwidth_mbps(protocol_cfg(which, true), s))
          << "protocol " << which << " size " << s;
    }
  }
}

// --- Figures 8-11: MPI latency/bandwidth, thin and wide nodes ---------------

TEST(LocalClockEquivalence, Fig8To11MpiCurves) {
  using mpi::MpiImpl;
  for (bool wide_nodes : {false, true}) {
    for (auto impl :
         {MpiImpl::kAmOptimized, MpiImpl::kAmUnoptimized, MpiImpl::kMpiF}) {
      for (std::size_t s : {std::size_t{16}, std::size_t{4096}}) {
        EXPECT_EQ(
            bench::mpi_hop_latency_us(mpi_cfg(impl, false, wide_nodes), s),
            bench::mpi_hop_latency_us(mpi_cfg(impl, true, wide_nodes), s))
            << "hop latency impl=" << static_cast<int>(impl) << " size=" << s
            << " wide=" << wide_nodes;
      }
      const std::size_t bw_size = 65536;
      EXPECT_EQ(
          bench::mpi_bandwidth_mbps(mpi_cfg(impl, false, wide_nodes), bw_size),
          bench::mpi_bandwidth_mbps(mpi_cfg(impl, true, wide_nodes), bw_size))
          << "bandwidth impl=" << static_cast<int>(impl)
          << " wide=" << wide_nodes;
    }
    const sphw::SpParams slow_hw = wide_nodes ? wide(false) : thin(false);
    const sphw::SpParams fast_hw = wide_nodes ? wide(true) : thin(true);
    EXPECT_EQ(bench::am_store_hop_latency_us(1024, slow_hw),
              bench::am_store_hop_latency_us(1024, fast_hw));
    EXPECT_EQ(bench::am_store_bandwidth_mbps(65536, slow_hw),
              bench::am_store_bandwidth_mbps(65536, fast_hw));
  }
}

// --- Table 5: Split-C applications (both backends) --------------------------

void expect_phase_equal(const apps::PhaseTimes& slow,
                        const apps::PhaseTimes& fast, const char* what) {
  EXPECT_TRUE(slow.valid) << what;
  EXPECT_TRUE(fast.valid) << what;
  EXPECT_EQ(slow.checksum, fast.checksum) << what;
  EXPECT_EQ(slow.total_s, fast.total_s) << what;
  EXPECT_EQ(slow.comm_s, fast.comm_s) << what;
  EXPECT_EQ(slow.cpu_s, fast.cpu_s) << what;
}

TEST(LocalClockEquivalence, Table5SplitCApps) {
  auto run = [](bool local_clock) {
    splitc::SplitCWorld w(splitc_cfg(local_clock));
    return apps::run_matmul(w, /*nb=*/4, /*bd=*/16);
  };
  expect_phase_equal(run(false), run(true), "matmul");
  for (auto variant :
       {apps::SortVariant::kSmallMessage, apps::SortVariant::kBulk}) {
    auto sample = [&](bool local_clock) {
      splitc::SplitCWorld w(splitc_cfg(local_clock));
      return apps::run_sample_sort(w, 4096, variant);
    };
    expect_phase_equal(sample(false), sample(true), "sample_sort");
    auto radix = [&](bool local_clock) {
      splitc::SplitCWorld w(splitc_cfg(local_clock));
      return apps::run_radix_sort(w, 2048, variant);
    };
    expect_phase_equal(radix(false), radix(true), "radix_sort");
  }
}

// The LogGP backend is the one transport whose endpoint state advances via
// engine events (arrival deliveries) rather than the node's own handlers,
// so it exercises the poll-side settle points hardest.
TEST(LocalClockEquivalence, Table5LogGpBackend) {
  auto run = [](bool local_clock) {
    splitc::SplitCWorld w(
        splitc_cfg(local_clock, /*nodes=*/8, splitc::Backend::kLogGp));
    return apps::run_matmul(w, /*nb=*/4, /*bd=*/16);
  };
  expect_phase_equal(run(false), run(true), "matmul_loggp");
  auto sample = [](bool local_clock) {
    splitc::SplitCWorld w(
        splitc_cfg(local_clock, /*nodes=*/8, splitc::Backend::kLogGp));
    return apps::run_sample_sort(w, 4096, apps::SortVariant::kSmallMessage);
  };
  expect_phase_equal(sample(false), sample(true), "sample_sort_loggp");
}

// --- Table 6: NAS kernels ----------------------------------------------------

TEST(LocalClockEquivalence, Table6NasKernels) {
  using Runner = apps::NasResult (*)(mpi::MpiWorld&, int, int);
  struct Kernel {
    const char* name;
    Runner run;
    int n;
    int iters;
  };
  const Kernel kernels[] = {
      {"FT", apps::run_ft, 16, 1}, {"MG", apps::run_mg, 16, 1},
      {"LU", apps::run_lu, 64, 1}, {"BT", apps::run_bt, 16, 1},
      {"SP", apps::run_sp, 16, 1},
  };
  for (const Kernel& k : kernels) {
    auto run = [&](bool local_clock) {
      mpi::MpiWorld w(mpi_cfg(mpi::MpiImpl::kAmOptimized, local_clock));
      return k.run(w, k.n, k.iters);
    };
    const apps::NasResult slow = run(false);
    const apps::NasResult fast = run(true);
    EXPECT_TRUE(slow.finished) << k.name;
    EXPECT_TRUE(fast.finished) << k.name;
    EXPECT_EQ(slow.checksum, fast.checksum) << k.name;
    EXPECT_EQ(slow.time_s, fast.time_s) << k.name;
  }
}

// --- Seeded clock fuzz: suspends, racing resumers, mid-debt wakes ------------
//
// Four nodes run a seeded mix of fine-grain charges, real elapses,
// cross-node clock observations, trace emission, and suspend/resume through
// a shared mailbox of resumers.  The racing-resumer case arises naturally:
// a node arms its resumer, charges more debt, then suspend() settles —
// which yields — so a peer can fire the resumer before the suspend
// consumes it (a latched, mid-debt wake).  Node 0 never suspends and
// drains the mailbox after the deadline so no wake is ever lost.
//
// The fuzz keeps every node's shared-state touches at a *distinct* virtual
// instant: all durations are multiples of kFuzzNodes, node r's clock stays
// in residue class r (mod kFuzzNodes), and a node woken at a peer's
// instant realigns before acting.  This is deliberate — the equivalence
// contract (DESIGN.md §8) guarantees bit-identical per-node virtual times
// and engine-ordered effects, not the seq tie-break among *different*
// nodes' events at the same tick: deferral collapses a run of charge wakes
// into one settle wake whose seq is assigned earlier, so exact-tie order
// against an unrelated third event can permute.  The protocol stack never
// races shared host state at tied instants (the paper-workload suites
// above are the byte-identical proof); a fuzz that did would test an
// ordering no layer relies on.

constexpr int kFuzzNodes = 4;

struct ClockFuzzOutcome {
  // Per-observer streams of (observed node, observed now).  Observations
  // are logged per node, not in one global vector: host-side append order
  // across nodes is legitimately mode-dependent (a deferred-mode node runs
  // several pure-compute iterations in one resumption), while the *global*
  // interleaving of engine-ordered effects is checked via the trace
  // stream, whose emission settles first.
  std::array<std::vector<std::pair<int, sim::Time>>, kFuzzNodes> samples;
  std::string trace;
  std::uint64_t events_simulated = 0;
};

ClockFuzzOutcome run_clock_fuzz(bool local_clock, std::uint64_t seed) {
  constexpr int kNodes = kFuzzNodes;
  const sim::Time kDeadline = sim::usec(4000);

  ClockFuzzOutcome out;
  sim::World w(kNodes, seed);
  w.engine().set_localclock(local_clock);
  sim::Trace::capture_to(&out.trace);
  sim::Trace::enable(sim::TraceCat::kApp);

  std::vector<std::function<void()>> mailbox;
  std::array<bool, kNodes> done{};

  for (int node = 0; node < kNodes; ++node) {
    w.spawn(node, [&, node](sim::NodeCtx& ctx) {
      auto& log = out.samples[static_cast<std::size_t>(node)];
      std::uint64_t marks = 0;
      // Durations are quantized to multiples of kNodes and each node is
      // offset into its own residue class, so no two nodes ever touch the
      // shared mailbox/done state at the same tick (see comment above).
      auto q = [](std::uint64_t n) {
        return static_cast<sim::Time>(kNodes) * n;
      };
      auto realign = [&] {
        const sim::Time mis = (static_cast<sim::Time>(node) + kNodes -
                               ctx.now() % kNodes) % kNodes;
        if (mis != 0) ctx.elapse(mis);
      };
      if (node != 0) ctx.elapse(static_cast<sim::Time>(node));
      while (ctx.now() < kDeadline) {
        const std::uint64_t roll = ctx.rng().next_below(100);
        if (roll < 50) {
          // Fine-grain compute: accumulates debt with the clock on.
          ctx.charge(q(1 + ctx.rng().next_below(75)));
        } else if (roll < 65) {
          ctx.elapse(q(1 + ctx.rng().next_below(125)));
        } else if (roll < 75) {
          // Cross-node clock observation: an interaction point that must
          // settle this node's debt before reading engine time.
          const int peer = static_cast<int>(ctx.rng().next_below(kNodes));
          log.emplace_back(peer, w.node(peer).now());
        } else if (roll < 83) {
          sim::Trace::log(sim::TraceCat::kApp, ctx.now(), "n%d mark %llu",
                          node, static_cast<unsigned long long>(marks++));
        } else if (roll < 93) {
          // Fire someone's pending resumer, possibly racing their suspend.
          // The mailbox is cross-fiber state: settle before reading it, the
          // same discipline the protocol layers follow for shared flags.
          ctx.settle();
          if (!mailbox.empty()) {
            auto wake = std::move(mailbox.back());
            mailbox.pop_back();
            ctx.charge(q(1 + ctx.rng().next_below(12)));  // wake mid-debt
            wake();
          } else {
            ctx.charge(q(2));
          }
        } else if (node != 0) {
          // Arm a resumer, pile on debt, then suspend: settle-then-sleep,
          // with the wake possibly already latched by the time we get
          // there.  Settle before publishing the resumer so peers see it
          // at this node's virtual instant in both modes.  The wake lands
          // at the waker's instant, so realign before acting again.
          ctx.settle();
          mailbox.push_back(ctx.make_resumer());
          ctx.charge(q(1 + ctx.rng().next_below(50)));
          ctx.suspend();
          realign();
        }
        log.emplace_back(node, ctx.now());
      }
      ctx.settle();  // publish `done` at this node's virtual instant
      done[static_cast<std::size_t>(node)] = true;
      if (node == 0) {
        // Drain: keep firing stranded resumers until every node exits.
        auto all_done = [&] {
          for (bool d : done) {
            if (!d) return false;
          }
          return true;
        };
        while (!all_done()) {
          while (!mailbox.empty()) {
            auto wake = std::move(mailbox.back());
            mailbox.pop_back();
            wake();
          }
          ctx.elapse(q(250));  // 1 µs per drain round, residue-preserving
        }
      }
    });
  }

  w.run();
  sim::Trace::capture_to(nullptr);
  sim::Trace::disable_all();
  out.events_simulated = w.engine().events_simulated();
  return out;
}

TEST(LocalClockEquivalence, ClockFuzzMatchesPerChargeReference) {
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const ClockFuzzOutcome slow = run_clock_fuzz(false, seed);
    const ClockFuzzOutcome fast = run_clock_fuzz(true, seed);
    std::size_t total = 0;
    for (int n = 0; n < kFuzzNodes; ++n) {
      EXPECT_EQ(slow.samples[static_cast<std::size_t>(n)],
                fast.samples[static_cast<std::size_t>(n)])
          << "seed " << seed << " node " << n;
      total += slow.samples[static_cast<std::size_t>(n)].size();
    }
    EXPECT_EQ(slow.trace, fast.trace) << "seed " << seed;
    // The elide ledger must balance exactly: deferred mode simulates the
    // same per-charge-equivalent event count the reference executes.
    EXPECT_EQ(slow.events_simulated, fast.events_simulated) << "seed " << seed;
    EXPECT_GT(total, 400u) << "seed " << seed;
    EXPECT_FALSE(slow.trace.empty()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spam
