// Equivalence suite for the simulator's two reference modes.
//
// The default configuration skips engine events two ways: the network
// fast path (fused deliveries, lazily settled FIFO frees, skipped elapse
// wakes) and node-local virtual clocks (charges accumulate into a per-node
// debt ledger that materializes as one engine event at the next
// interaction point).  Each can be turned off alone, giving a reference
// mode:
//
//   `network_fastpath = false` — every packet runs its per-hop event chain;
//   `local_clock = false`      — every charge is its own engine elapse.
//
// Every table/figure workload of the paper reproduction runs in the default
// mode and in a reference mode, and every virtual-time result must be
// IDENTICAL: both mechanisms are event-count optimizations with a
// bit-exactness contract, never approximations.  Doubles are compared with
// EXPECT_EQ (exact bits, not a tolerance) and the Figure 3 sweep is
// additionally rendered to a report::Table whose output must be
// byte-identical across modes.  Each paper case is one body registered
// twice: as FastpathEquivalence.<case> against the per-hop mode and as
// LocalClockEquivalence.<case> against the per-charge mode.
//
// Reused worlds (ModeEquivalence.*) run several workloads back to back in
// one world, where virtual time no longer starts at zero, and compare all
// three modes at once.
//
// Two seeded fuzzers close the suite: a congestion fuzz that forces the
// fast path's mid-flight disengagement, and a clock fuzz over the raw World
// layer that mixes charges with suspends, racing resumers and cross-node
// observation.  Both also check that the events_simulated() ledger matches
// the reference mode's executed count.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "apps/nas.hpp"
#include "am/endpoint.hpp"
#include "apps/splitc_apps.hpp"
#include "micro.hpp"
#include "report/report.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "sphw/machine.hpp"

namespace spam {
namespace {

/// Which event-skipping mechanisms a run has on.
struct Mode {
  bool network_fastpath = true;
  bool local_clock = true;
};

constexpr Mode kDefault{};
constexpr Mode kPerHop{/*network_fastpath=*/false, /*local_clock=*/true};
constexpr Mode kPerCharge{/*network_fastpath=*/true, /*local_clock=*/false};

std::string name(Mode m) {
  return std::string("network_fastpath=") + (m.network_fastpath ? "1" : "0") +
         " local_clock=" + (m.local_clock ? "1" : "0");
}

sphw::SpParams with_mode(sphw::SpParams p, Mode m) {
  p.network_fastpath = m.network_fastpath;
  p.local_clock = m.local_clock;
  return p;
}

sphw::SpParams thin(Mode m) {
  return with_mode(sphw::SpParams::thin_node(), m);
}

sphw::SpParams wide(Mode m) {
  return with_mode(sphw::SpParams::wide_node(), m);
}

mpi::MpiWorldConfig mpi_cfg(mpi::MpiImpl impl, Mode m,
                            bool wide_nodes = false) {
  mpi::MpiWorldConfig cfg;
  cfg.impl = impl;
  cfg.nodes = 4;
  cfg.hw = wide_nodes ? wide(m) : thin(m);
  if (impl == mpi::MpiImpl::kMpiF) {
    cfg.f_cfg =
        wide_nodes ? mpif::MpiFConfig::wide() : mpif::MpiFConfig::thin();
  }
  return cfg;
}

splitc::SplitCConfig splitc_cfg(Mode m, int nodes = 8,
                                splitc::Backend backend =
                                    splitc::Backend::kSpAm) {
  splitc::SplitCConfig cfg;
  cfg.nodes = nodes;
  cfg.backend = backend;
  cfg.hw = thin(m);
  return cfg;
}

// Declares the case body `void Name(Mode ref)`, which compares `ref`
// against kDefault, and registers it once per reference mode.
#define EQUIVALENCE_CASE(Name)                                  \
  void Name(Mode ref);                                          \
  TEST(FastpathEquivalence, Name) { Name(kPerHop); }            \
  TEST(LocalClockEquivalence, Name) { Name(kPerCharge); }       \
  void Name(Mode ref)

// --- Table 2: AM primitive overheads ----------------------------------------

EQUIVALENCE_CASE(Table2AmOverheads) {
  for (int words = 1; words <= 4; ++words) {
    EXPECT_EQ(bench::am_request_cost_us(words, thin(ref)),
              bench::am_request_cost_us(words, thin(kDefault)))
        << "request_" << words;
    EXPECT_EQ(bench::am_reply_cost_us(words, thin(ref)),
              bench::am_reply_cost_us(words, thin(kDefault)))
        << "reply_" << words;
  }
  EXPECT_EQ(bench::am_poll_empty_us(thin(ref)),
            bench::am_poll_empty_us(thin(kDefault)));
  EXPECT_EQ(bench::am_poll_one_msg_us(thin(ref)),
            bench::am_poll_one_msg_us(thin(kDefault)));
}

// --- Table 3 / Table 4: round-trip latencies, thin and wide nodes -----------

EQUIVALENCE_CASE(Table3And4RoundTrips) {
  for (int words = 1; words <= 4; ++words) {
    EXPECT_EQ(bench::am_rtt_us(words, thin(ref)),
              bench::am_rtt_us(words, thin(kDefault)))
        << "am_rtt words=" << words;
  }
  EXPECT_EQ(bench::raw_rtt_us(thin(ref)), bench::raw_rtt_us(thin(kDefault)));
  EXPECT_EQ(bench::mpl_rtt_us(thin(ref)), bench::mpl_rtt_us(thin(kDefault)));
  // Table 4's wide-node (model-590) column.
  EXPECT_EQ(bench::am_rtt_us(1, wide(ref)),
            bench::am_rtt_us(1, wide(kDefault)));
  EXPECT_EQ(bench::mpl_rtt_us(wide(ref)), bench::mpl_rtt_us(wide(kDefault)));
}

// --- Figure 3: the bandwidth sweep, rendered byte-identically ----------------

EQUIVALENCE_CASE(Fig3BandwidthTableByteIdentical) {
  const std::vector<std::size_t> sizes = {16, 512, 8192, 65536, 1u << 20};
  auto render = [&](Mode m) {
    report::Table t("Figure 3: AM/MPL bandwidth vs transfer size");
    t.set_header({"bytes", "store", "get", "async store", "async get",
                  "mpl block", "mpl pipe"});
    const sphw::SpParams hw = thin(m);
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
  EXPECT_EQ(render(ref), render(kDefault))
      << "Figure 3 rendering must be byte-identical";
}

// --- Figure 7: MPI protocol regimes -----------------------------------------

EQUIVALENCE_CASE(Fig7ProtocolCurves) {
  auto protocol_cfg = [](int which, Mode m) {
    mpi::MpiWorldConfig cfg = mpi_cfg(mpi::MpiImpl::kAmOptimized, m);
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
      EXPECT_EQ(bench::mpi_bandwidth_mbps(protocol_cfg(which, ref), s),
                bench::mpi_bandwidth_mbps(protocol_cfg(which, kDefault), s))
          << "protocol " << which << " size " << s;
    }
  }
}

// --- Figures 8-11: MPI latency/bandwidth, thin and wide nodes ---------------

EQUIVALENCE_CASE(Fig8To11MpiCurves) {
  using mpi::MpiImpl;
  for (bool wide_nodes : {false, true}) {
    for (auto impl :
         {MpiImpl::kAmOptimized, MpiImpl::kAmUnoptimized, MpiImpl::kMpiF}) {
      for (std::size_t s : {std::size_t{16}, std::size_t{4096}}) {
        EXPECT_EQ(
            bench::mpi_hop_latency_us(mpi_cfg(impl, ref, wide_nodes), s),
            bench::mpi_hop_latency_us(mpi_cfg(impl, kDefault, wide_nodes), s))
            << "hop latency impl=" << static_cast<int>(impl) << " size=" << s
            << " wide=" << wide_nodes;
      }
      const std::size_t bw_size = 65536;
      EXPECT_EQ(
          bench::mpi_bandwidth_mbps(mpi_cfg(impl, ref, wide_nodes), bw_size),
          bench::mpi_bandwidth_mbps(mpi_cfg(impl, kDefault, wide_nodes),
                                    bw_size))
          << "bandwidth impl=" << static_cast<int>(impl)
          << " wide=" << wide_nodes;
    }
    // The raw am_store reference curves drawn alongside the MPI data, at
    // every size the figures print.
    const sphw::SpParams ref_hw = wide_nodes ? wide(ref) : thin(ref);
    const sphw::SpParams def_hw = wide_nodes ? wide(kDefault) : thin(kDefault);
    for (std::size_t s : bench::mpi_figure_latency_sizes()) {
      EXPECT_EQ(bench::am_store_hop_latency_us(s, ref_hw),
                bench::am_store_hop_latency_us(s, def_hw))
          << "am_store latency size=" << s << " wide=" << wide_nodes;
    }
    for (std::size_t s : bench::mpi_figure_bandwidth_sizes()) {
      EXPECT_EQ(bench::am_store_bandwidth_mbps(s, ref_hw),
                bench::am_store_bandwidth_mbps(s, def_hw))
          << "am_store bandwidth size=" << s << " wide=" << wide_nodes;
    }
  }
}

// --- Table 5: Split-C applications ------------------------------------------

void expect_phase_equal(const apps::PhaseTimes& ref,
                        const apps::PhaseTimes& def, const std::string& what) {
  EXPECT_TRUE(ref.valid) << what;
  EXPECT_TRUE(def.valid) << what;
  EXPECT_EQ(ref.checksum, def.checksum) << what;
  EXPECT_EQ(ref.total_s, def.total_s) << what;
  EXPECT_EQ(ref.comm_s, def.comm_s) << what;
  EXPECT_EQ(ref.cpu_s, def.cpu_s) << what;
}

EQUIVALENCE_CASE(Table5SplitCApps) {
  // nb 2, bd 96 fills the send FIFO, so it also covers the AM layer's
  // FIFO-space wait (Endpoint::wait_for_fifo_space) against the lazily
  // freed FIFO entries of the fast path.
  struct Matmul {
    int nb, bd;
  };
  for (const Matmul mm : {Matmul{4, 16}, Matmul{2, 96}}) {
    auto run = [&](Mode m) {
      splitc::SplitCWorld w(splitc_cfg(m));
      return apps::run_matmul(w, mm.nb, mm.bd);
    };
    expect_phase_equal(run(ref), run(kDefault),
                       "matmul nb " + std::to_string(mm.nb) + " bd " +
                           std::to_string(mm.bd));
  }
  for (auto variant :
       {apps::SortVariant::kSmallMessage, apps::SortVariant::kBulk}) {
    auto sample = [&](Mode m) {
      splitc::SplitCWorld w(splitc_cfg(m));
      return apps::run_sample_sort(w, 4096, variant);
    };
    expect_phase_equal(sample(ref), sample(kDefault), "sample_sort");
    auto radix = [&](Mode m) {
      splitc::SplitCWorld w(splitc_cfg(m));
      return apps::run_radix_sort(w, 2048, variant);
    };
    expect_phase_equal(radix(ref), radix(kDefault), "radix_sort");
  }
}

// The LogGP backend has no SP adapter, so only the local clock applies.
// It is the one transport whose endpoint state advances via engine events
// (arrival deliveries) rather than the node's own handlers, so it
// exercises the poll-side settle points hardest.
TEST(LocalClockEquivalence, Table5LogGpBackend) {
  auto run = [](Mode m) {
    splitc::SplitCWorld w(splitc_cfg(m, /*nodes=*/8, splitc::Backend::kLogGp));
    return apps::run_matmul(w, /*nb=*/4, /*bd=*/16);
  };
  expect_phase_equal(run(kPerCharge), run(kDefault), "matmul_loggp");
  auto sample = [](Mode m) {
    splitc::SplitCWorld w(splitc_cfg(m, /*nodes=*/8, splitc::Backend::kLogGp));
    return apps::run_sample_sort(w, 4096, apps::SortVariant::kSmallMessage);
  };
  expect_phase_equal(sample(kPerCharge), sample(kDefault),
                     "sample_sort_loggp");
}

// --- Table 6: NAS kernels ----------------------------------------------------

using NasRunner = apps::NasResult (*)(mpi::MpiWorld&, int, int);
struct NasKernel {
  const char* name;
  NasRunner run;
  int n;
};

void expect_nas_equal(const apps::NasResult& ref, const apps::NasResult& def,
                      const std::string& what) {
  EXPECT_TRUE(ref.finished) << what;
  EXPECT_TRUE(def.finished) << what;
  EXPECT_EQ(ref.checksum, def.checksum) << what;
  EXPECT_EQ(ref.time_s, def.time_s) << what;
}

EQUIVALENCE_CASE(Table6NasKernels) {
  const NasKernel kernels[] = {
      {"FT", apps::run_ft, 16}, {"MG", apps::run_mg, 16},
      {"LU", apps::run_lu, 64}, {"BT", apps::run_bt, 16},
      {"SP", apps::run_sp, 16},
  };
  for (const NasKernel& k : kernels) {
    auto run = [&](Mode m) {
      mpi::MpiWorld w(mpi_cfg(mpi::MpiImpl::kAmOptimized, m));
      return k.run(w, k.n, /*iters=*/1);
    };
    expect_nas_equal(run(ref), run(kDefault), k.name);
  }
}

// --- Reused worlds: later runs start at a nonzero virtual time ---------------
//
// A second run in the same world meets adapter clocks, FIFO occupancy and
// sequence numbers left by the first, so its events land at instants a
// fresh world never produces — including exact ties between one node's
// wake and another node's packet.  Every run of the series must still be
// identical in all three modes.

// Each Table 5 app runs three times in one world per mode: the sorts at
// 1 K and 8 K keys, matmul at two block sizes.
TEST(ModeEquivalence, ReusedSplitCWorldApps) {
  using apps::SortVariant;
  using App = std::function<apps::PhaseTimes(splitc::SplitCWorld&)>;
  struct Input {
    std::string name;
    App run;
  };
  std::vector<Input> inputs;
  for (std::size_t keys : {std::size_t{1024}, std::size_t{8192}}) {
    for (SortVariant v : {SortVariant::kSmallMessage, SortVariant::kBulk}) {
      const std::string suffix =
          (v == SortVariant::kBulk ? "_bulk " : "_small ") +
          std::to_string(keys);
      inputs.push_back({"rdxsort" + suffix, [=](splitc::SplitCWorld& w) {
                          return apps::run_radix_sort(w, keys, v, 42);
                        }});
      inputs.push_back({"smpsort" + suffix, [=](splitc::SplitCWorld& w) {
                          return apps::run_sample_sort(w, keys, v, 42);
                        }});
    }
  }
  for (int bd : {16, 32}) {
    inputs.push_back({"mm bd " + std::to_string(bd),
                      [=](splitc::SplitCWorld& w) {
                        return apps::run_matmul(w, /*nb=*/4, bd);
                      }});
  }
  for (const Input& in : inputs) {
    auto series = [&](Mode m) {
      splitc::SplitCConfig cfg = splitc_cfg(m);
      cfg.seed = 42;
      splitc::SplitCWorld w(cfg);
      std::vector<apps::PhaseTimes> out;
      for (int run = 0; run < 3; ++run) out.push_back(in.run(w));
      return out;
    };
    const std::vector<apps::PhaseTimes> def = series(kDefault);
    for (Mode ref : {kPerHop, kPerCharge}) {
      const std::vector<apps::PhaseTimes> got = series(ref);
      ASSERT_EQ(got.size(), def.size());
      for (std::size_t i = 0; i < def.size(); ++i) {
        expect_phase_equal(got[i], def[i],
                           in.name + " run " + std::to_string(i) + " " +
                               name(ref));
      }
    }
  }
}

TEST(ModeEquivalence, ReusedMpiWorldNasPasses) {
  const NasKernel kernels[] = {
      {"FT", apps::run_ft, 32}, {"MG", apps::run_mg, 32},
      {"LU", apps::run_lu, 128}, {"BT", apps::run_bt, 32},
      {"SP", apps::run_sp, 32},
  };
  auto series = [&](Mode m) {
    mpi::MpiWorld w(mpi_cfg(mpi::MpiImpl::kAmOptimized, m));
    std::vector<apps::NasResult> out;
    for (int pass = 0; pass < 4; ++pass) {
      for (const NasKernel& k : kernels) out.push_back(k.run(w, k.n, 1));
    }
    return out;
  };
  const std::vector<apps::NasResult> def = series(kDefault);
  for (Mode ref : {kPerHop, kPerCharge}) {
    const std::vector<apps::NasResult> got = series(ref);
    ASSERT_EQ(got.size(), def.size());
    for (std::size_t i = 0; i < def.size(); ++i) {
      const NasKernel& k = kernels[i % std::size(kernels)];
      expect_nas_equal(got[i], def[i],
                       std::string(k.name) + " pass " +
                           std::to_string(i / std::size(kernels)) + " " +
                           name(ref));
    }
  }
}

// --- Wait loops: Split-C and MPI polls that run off the fiber ----------------
//
// Under the fast path the Split-C runtime's waits (sync, barrier, bcast,
// reduce) and MPI_Wait over MPI-AM run each provably empty poll in its wake
// event (am::Endpoint::wait_poll).  With three or more nodes another
// node's wake can share any poll's instant, so the sweep covers node
// counts, sizes and seeds; merging those polls instead (the fold of
// Endpoint::poll_until) reorders such ties and fails here.

TEST(ModeEquivalence, WaitLoopSweepMatchesPerHop) {
  using apps::SortVariant;
  using App = std::function<apps::PhaseTimes(splitc::SplitCWorld&)>;
  struct Input {
    std::string name;
    int nodes;
    App run;
    // Send-FIFO entries, 0 for the thin node's.  A FIFO little wider than
    // a chunk blocks bulk chunks on FIFO space while their window is open,
    // which time alone can end: such a poll is never idle.
    int send_fifo = 0;
  };
  std::vector<Input> inputs;
  for (int nodes : {3, 4, 8}) {
    for (std::size_t keys : {std::size_t{480}, std::size_t{1920}}) {
      for (std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{11}}) {
        for (SortVariant v : {SortVariant::kSmallMessage, SortVariant::kBulk}) {
          const std::string what =
              std::string(v == SortVariant::kBulk ? "_bulk" : "_small") +
              " nodes " + std::to_string(nodes) + " keys " +
              std::to_string(keys) + " seed " + std::to_string(seed);
          inputs.push_back({"smpsort" + what, nodes,
                            [=](splitc::SplitCWorld& w) {
                              return apps::run_sample_sort(w, keys, v, seed);
                            }});
          inputs.push_back({"rdxsort" + what, nodes,
                            [=](splitc::SplitCWorld& w) {
                              return apps::run_radix_sort(w, keys, v, seed);
                            }});
        }
      }
    }
  }
  inputs.push_back({"rdxsort_bulk nodes 3 keys 24000 send fifo 40", 3,
                    [](splitc::SplitCWorld& w) {
                      return apps::run_radix_sort(w, 24000, SortVariant::kBulk,
                                                  5);
                    },
                    /*send_fifo=*/40});
  struct Matmul {
    int nodes, nb, bd, send_fifo;
  };
  for (const Matmul mm : {Matmul{3, 3, 16, 0}, Matmul{4, 2, 24, 0},
                          Matmul{8, 4, 8, 0}, Matmul{8, 3, 32, 0},
                          Matmul{8, 2, 96, 40}}) {
    inputs.push_back({"mm nb " + std::to_string(mm.nb) + " bd " +
                          std::to_string(mm.bd) + " nodes " +
                          std::to_string(mm.nodes) + " send fifo " +
                          std::to_string(mm.send_fifo),
                      mm.nodes,
                      [=](splitc::SplitCWorld& w) {
                        return apps::run_matmul(w, mm.nb, mm.bd);
                      },
                      mm.send_fifo});
  }
  for (const Input& in : inputs) {
    auto run = [&](Mode m) {
      splitc::SplitCConfig cfg = splitc_cfg(m, in.nodes);
      if (in.send_fifo != 0) cfg.hw.send_fifo_entries = in.send_fifo;
      splitc::SplitCWorld w(cfg);
      return in.run(w);
    };
    expect_phase_equal(run(kPerHop), run(kDefault), in.name);
  }

  const NasKernel kernels[] = {
      {"FT", apps::run_ft, 32}, {"MG", apps::run_mg, 32},
      {"LU", apps::run_lu, 128}, {"BT", apps::run_bt, 32},
      {"SP", apps::run_sp, 32},
  };
  for (mpi::MpiImpl impl :
       {mpi::MpiImpl::kAmOptimized, mpi::MpiImpl::kAmUnoptimized}) {
    auto series = [&](Mode m) {
      mpi::MpiWorld w(mpi_cfg(impl, m));
      std::vector<apps::NasResult> out;
      for (int pass = 0; pass < 6; ++pass) {
        for (const NasKernel& k : kernels) out.push_back(k.run(w, k.n, 1));
      }
      return out;
    };
    const std::vector<apps::NasResult> def = series(kDefault);
    const std::vector<apps::NasResult> ref = series(kPerHop);
    ASSERT_EQ(ref.size(), def.size());
    for (std::size_t i = 0; i < def.size(); ++i) {
      expect_nas_equal(ref[i], def[i],
                       std::string(kernels[i % std::size(kernels)].name) +
                           (impl == mpi::MpiImpl::kAmOptimized ? " opt"
                                                               : " unopt") +
                           " pass " + std::to_string(i / std::size(kernels)));
    }
  }
}

// --- The AM rx horizon: merged polls against packets not yet sent ----------
//
// Under the fast path a node waiting in Endpoint::poll_until merges its
// empty polls up to the earliest instant a packet could become visible to
// it: the next known arrival, or the earliest next action of any other
// node's program plus the network floor.  Each case below puts a sender
// right at the instant that bound assumes, from a different direction,
// and requires every node's log of (tag, virtual instant) to be identical
// in all three modes.

// Per node: what its handlers and its program saw, in the order it saw it.
using NodeLogs = std::vector<std::vector<std::pair<std::uint64_t, sim::Time>>>;

void expect_logs_equal(const NodeLogs& got, const NodeLogs& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t n = 0; n < want.size(); ++n) {
    EXPECT_EQ(got[n].size(), want[n].size()) << what << " node " << n;
    const std::size_t len = std::min(got[n].size(), want[n].size());
    for (std::size_t i = 0; i < len; ++i) {
      if (got[n][i] != want[n][i]) {
        ADD_FAILURE() << what << " node " << n << " entry " << i << ": tag "
                      << got[n][i].first << " at " << got[n][i].second
                      << " ns, want tag " << want[n][i].first << " at "
                      << want[n][i].second << " ns";
        break;
      }
    }
  }
}

void expect_three_modes_equal(const std::function<NodeLogs(Mode)>& run) {
  const NodeLogs def = run(kDefault);
  for (Mode ref : {kPerHop, kPerCharge}) {
    expect_logs_equal(run(ref), def, name(ref));
  }
}

// Three endpoints on one thin-node machine; node `irq_node`, if any,
// takes packets by interrupt while it computes.
struct HorizonNet {
  sim::World world{3};
  sphw::SpMachine machine;
  std::vector<std::unique_ptr<am::Endpoint>> eps;
  NodeLogs log = NodeLogs(3);

  explicit HorizonNet(Mode m, int irq_node = -1) : machine(world, thin(m)) {
    for (int n = 0; n < 3; ++n) {
      am::AmParams amp;
      amp.interrupt_driven = n == irq_node;
      eps.push_back(std::make_unique<am::Endpoint>(world.node(n),
                                                   machine.adapter(n), amp));
    }
  }
  am::Endpoint& ep(int n) { return *eps[static_cast<std::size_t>(n)]; }
  // Logs (tag, now) on node n.
  void note(int n, std::uint64_t tag) {
    log[static_cast<std::size_t>(n)].emplace_back(tag, ep(n).ctx().now());
  }
};

// Registers on every node, at the same index, a request handler that logs
// the word and replies with `ack` (registered first, so index 1 everywhere)
// bumping the origin's counter in `acks`.
int register_echo(HorizonNet& net, std::array<int, 3>& acks) {
  int h_req = 0;
  for (int n = 0; n < 3; ++n) {
    const int h_ack = net.ep(n).register_handler(
        [&acks, n](am::Endpoint&, am::Token, const am::Word*, int) {
          ++acks[static_cast<std::size_t>(n)];
        });
    h_req = net.ep(n).register_handler(
        [&net, n, h_ack](am::Endpoint& ep, am::Token t, const am::Word* a,
                         int) {
          net.note(n, a[0]);
          ep.reply_1(t, h_ack, a[0]);
        });
  }
  return h_req;
}

// Virtual instant at which round r of a case below starts.
sim::Time round_start(int r) { return sim::usec(1000.0 * (r + 1)); }

// Node 2 wakes from a long compute() and sends a header-only request at
// once, so its doorbell rings the instant its last elapse ends and the
// packet lands exactly one floor later.  Node 0 starts merging polls while
// node 2 is inside that elapse, one nanosecond later each round, so over a
// poll quantum of rounds one merge would end exactly on the arrival (the
// same-instant order of the arrival and node 0's wake then decides whether
// the poll sees it).  Node 1 ping-pongs with node 0 at each round's start.
TEST(ModeEquivalence, SenderWakingFromComputeMeetsAMergingPoller) {
  constexpr int kRounds = 1300;  // poll_empty_us = 1.3 us, in 1 ns steps
  expect_three_modes_equal([](Mode m) {
    HorizonNet net(m);
    std::array<int, 3> acks{};
    const int h_req = register_echo(net, acks);
    net.world.spawn(0, [&](sim::NodeCtx& ctx) {
      for (int r = 0; r < kRounds; ++r) {
        net.ep(0).poll_until([&] { return net.log[0].size() >= 2u * r + 1; });
        // Node 2's doorbell elapse spans [+213.9, +216.37) us.
        ctx.elapse(round_start(r) + sim::usec(214) + static_cast<sim::Time>(r) -
                   ctx.now());
        net.ep(0).poll_until([&] { return net.log[0].size() >= 2u * r + 2; });
      }
    });
    net.world.spawn(1, [&](sim::NodeCtx& ctx) {
      for (int r = 0; r < kRounds; ++r) {
        ctx.elapse(round_start(r) - ctx.now());
        net.ep(1).request_1(0, h_req, static_cast<am::Word>(r));
        net.ep(1).poll_until([&] { return acks[1] > r; });
        net.note(1, static_cast<std::uint64_t>(r));
      }
    });
    net.world.spawn(2, [&](sim::NodeCtx& ctx) {
      for (int r = 0; r < kRounds; ++r) {
        ctx.elapse(round_start(r) + sim::usec(150) - ctx.now());
        net.ep(2).compute(60.0);
        net.ep(2).request(0, h_req, nullptr, 0);
        net.ep(2).poll_until([&] { return acks[2] > r; });
        net.note(2, static_cast<std::uint64_t>(r));
      }
    });
    net.world.run();
    return net.log;
  });
}

// Node 2 takes packets by interrupt while it computes, so it sits in
// suspend() with no wake instant of its own whenever node 0 merges polls
// waiting for its replies; node 1 computes in long polling-mode slices, so
// only node 2's readiness can bound node 0's merges.
TEST(ModeEquivalence, InterruptModeNeighbourOfAMergingPoller) {
  constexpr int kPings = 200;
  expect_three_modes_equal([](Mode m) {
    HorizonNet net(m, /*irq_node=*/2);
    std::array<int, 3> acks{};
    const int h_req = register_echo(net, acks);
    net.world.spawn(0, [&](sim::NodeCtx&) {
      for (int i = 0; i < kPings; ++i) {
        net.ep(0).compute(3.0 + 0.37 * (i % 17));
        net.ep(0).request_1(2, h_req, static_cast<am::Word>(i));
        net.ep(0).poll_until([&] { return acks[0] > i; });
        net.note(0, static_cast<std::uint64_t>(i));
      }
    });
    net.world.spawn(1, [&](sim::NodeCtx&) {
      for (int i = 0; i < 30; ++i) {
        net.ep(1).compute(1000.0);
        net.ep(1).poll();
      }
      net.note(1, 0);
    });
    net.world.spawn(2, [&](sim::NodeCtx&) {
      while (net.log[2].size() < kPings) net.ep(2).compute(250.0);
      net.note(2, 0);
    });
    net.world.run();
    return net.log;
  });
}

// Node 1 sends node 0 a full bulk packet and then a one-word request, back
// to back; node 2 arms a fault hook from its program while both are still
// short of the switch and node 0 is merging polls toward the first one's
// fused arrival.  The hook drops that bulk packet, so the request travels
// per-hop and lands about 2 us before the ledger said anything could.  The
// arming instant steps 0.25 us per round across the packets' flight, and
// each drop is recovered by the protocol (NACK, go-back-N).
TEST(ModeEquivalence, DropHookArmedMidRunUnderAMergingPoller) {
  constexpr int kRounds = 80;
  expect_three_modes_equal([](Mode m) {
    HorizonNet net(m);
    std::array<int, 3> acks{};
    const int h_req = register_echo(net, acks);
    std::vector<std::byte> src(224, std::byte{0x3c}), dst(224 * kRounds);
    const int h_bulk = net.ep(0).register_bulk_handler(
        [&](am::Endpoint&, am::Token, void*, std::size_t, am::Word arg) {
          net.note(0, 900000 + arg);
        });
    std::vector<bool> dropped(kRounds, false);
    int round = 0;
    net.world.spawn(0, [&](sim::NodeCtx&) {
      net.ep(0).poll_until([&] { return net.log[0].size() == 2u * kRounds; });
    });
    net.world.spawn(1, [&](sim::NodeCtx& ctx) {
      int done = 0;
      for (int r = 0; r < kRounds; ++r) {
        ctx.elapse(round_start(r) - ctx.now());
        net.ep(1).store_async(0, dst.data() + 224 * r, src.data(), 224, h_bulk,
                              static_cast<am::Word>(r), [&] { ++done; });
        net.ep(1).request_1(0, h_req, static_cast<am::Word>(r));
        net.ep(1).poll_until([&] { return done > r && acks[1] > r; });
        net.note(1, static_cast<std::uint64_t>(r));
      }
    });
    net.world.spawn(2, [&](sim::NodeCtx& ctx) {
      for (int r = 0; r < kRounds; ++r) {
        ctx.elapse(round_start(r) + sim::usec(4.0 + 0.25 * r) - ctx.now());
        round = r;
        net.machine.fabric().set_drop_fn([&](const sphw::Packet& p) {
          const auto i = static_cast<std::size_t>(round);
          if (p.src != 1 || p.payload_bytes != 224 || dropped[i]) return false;
          dropped[i] = true;
          return true;
        });
        ctx.elapse(sim::usec(400));
        net.machine.fabric().set_drop_fn(nullptr);
      }
      net.note(2, net.machine.fabric().stats().dropped_injected);
    });
    net.world.run();
    return net.log;
  });
}

// --- Seeded congestion fuzz: force mid-flight disengagement ------------------
//
// Three senders blast randomly sized bursts at random gaps, biased toward
// one hot receiver (many-to-one contention makes later-engaging packets
// exit the switch before queued reservations, rolling the ledger back),
// while the hot receiver arms and disarms a fault hook mid-burst
// (disengaging every reservation still ahead of its switch entry).  The
// entire observable outcome — per-receiver delivery traces with arrival
// instants, drop counts, and the events_simulated() ledger — must match
// the per-hop reference run exactly.

struct FuzzOutcome {
  // (receiver, src, seq, arrival time) in take order per receiver.
  std::vector<std::tuple<int, int, std::uint32_t, sim::Time>> trace;
  std::uint64_t injected_drops = 0;
  std::uint64_t fifo_drops = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t fused = 0;
  std::uint64_t events_simulated = 0;
};

FuzzOutcome run_congestion_fuzz(Mode mode, std::uint64_t seed) {
  constexpr int kNodes = 4;
  constexpr int kHot = 3;  // every sender favors this receiver
  constexpr int kPacketsPerSender = 160;
  const sim::Time kDeadline = sim::usec(60000);

  FuzzOutcome out;
  sim::World w(kNodes);
  sphw::SpMachine m(w, thin(mode));

  // One fiber per node (the World contract: one NodeCtx, one program).
  // Nodes 0..2 alternate sending bursts with draining their own receive
  // FIFO, then keep draining until the deadline; the hot node only drains,
  // and toggles the fault hook at seeded instants so bursts are mid-flight
  // when it arms.  Toggling happens between polls on the hot node's fiber,
  // a deterministic virtual instant in both modes.
  for (int node = 0; node < kNodes; ++node) {
    w.spawn(node, [&, node](sim::NodeCtx& ctx) {
      std::mt19937_64 rng(seed * 1000003u + static_cast<unsigned>(node));
      std::uniform_int_distribution<int> pick_dst(0, kNodes - 1);
      std::uniform_int_distribution<int> payload(0, 224);
      std::uniform_int_distribution<int> burst_len(1, 12);
      std::uniform_real_distribution<double> gap_us(0.1, 40.0);
      std::uniform_real_distribution<double> pause_us(0.3, 2.1);
      std::uniform_real_distribution<double> arm_gap_us(150.0, 900.0);
      sphw::Tb2Adapter& ad = m.adapter(node);
      const bool sender = node != kHot;
      int sent = 0;
      std::uint32_t seq = 0;
      sim::Time next_toggle =
          node == kHot ? sim::usec(arm_gap_us(rng)) : sim::Time{0};
      bool armed = false;
      auto drain = [&] {
        while (ad.host_rx_ready()) {
          sphw::Packet p = ad.host_rx_take(ctx);
          out.trace.emplace_back(node, static_cast<int>(p.src), p.seq,
                                 ctx.now());
        }
      };
      while (ctx.now() < kDeadline) {
        if (node == kHot && ctx.now() >= next_toggle) {
          armed = !armed;
          if (armed) {
            m.fabric().set_drop_fn(
                [](const sphw::Packet& p) { return p.seq % 7 == 3; });
          } else {
            m.fabric().set_drop_fn(nullptr);
          }
          next_toggle = ctx.now() + sim::usec(arm_gap_us(rng));
        }
        if (sender && sent < kPacketsPerSender) {
          const int burst = std::min(burst_len(rng), kPacketsPerSender - sent);
          for (int i = 0; i < burst; ++i) {
            ctx.poll_until([&] { return ad.host_send_space(); },
                           sim::usec(0.7));
            sphw::Packet p;
            // Mostly many-to-one onto the hot node; occasionally elsewhere.
            int dst = (rng() % 4 != 0) ? kHot : pick_dst(rng);
            if (dst == node) dst = (node + 1) % kNodes;
            p.dst = static_cast<std::int16_t>(dst);
            p.seq = seq++;
            const std::uint32_t bytes =
                static_cast<std::uint32_t>(payload(rng));
            p.payload_bytes = bytes;
            p.payload.assign(bytes, std::byte{0x5a});
            ad.host_enqueue(ctx, std::move(p));
            ++sent;
          }
          drain();
          ctx.elapse(sim::usec(gap_us(rng)));
        } else {
          drain();
          ctx.elapse(sim::usec(pause_us(rng)));
        }
      }
      // Settle the lazily tracked FIFO-free instants so the elide ledger
      // is complete before the engine counters are read: per-hop mode runs
      // each free as a real event, while the fast path counts it at the
      // next host query — which this is.
      (void)ad.host_send_space();
    });
  }

  w.run();
  for (int node = 0; node < kNodes; ++node) {
    const sphw::Tb2Adapter::Stats& st = m.adapter(node).stats();
    out.fifo_drops += st.rx_dropped_fifo_full;
    out.rollbacks += st.fused_rollbacks;
    out.fused += st.fused_deliveries;
  }
  out.injected_drops = m.fabric().stats().dropped_injected;
  out.events_simulated = w.engine().events_simulated();
  return out;
}

TEST(FastpathEquivalence, CongestionFuzzForcesRollbacks) {
  bool saw_rollback = false;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const FuzzOutcome slow = run_congestion_fuzz(kPerHop, seed);
    const FuzzOutcome fast = run_congestion_fuzz(kDefault, seed);
    EXPECT_EQ(slow.trace, fast.trace) << "seed " << seed;
    EXPECT_EQ(slow.injected_drops, fast.injected_drops) << "seed " << seed;
    EXPECT_EQ(slow.fifo_drops, fast.fifo_drops) << "seed " << seed;
    // The elide ledger must balance exactly: fused mode simulates the same
    // per-hop-equivalent event count that the reference mode executes.
    EXPECT_EQ(slow.events_simulated, fast.events_simulated)
        << "seed " << seed;
    EXPECT_EQ(slow.rollbacks, 0u);
    EXPECT_EQ(slow.fused, 0u);
    EXPECT_GT(fast.fused, 0u) << "seed " << seed;
    saw_rollback = saw_rollback || fast.rollbacks > 0;
    // Some traffic must actually flow for the comparison to mean anything.
    EXPECT_GT(slow.trace.size(), 100u) << "seed " << seed;
  }
  EXPECT_TRUE(saw_rollback)
      << "no seed forced a mid-flight disengagement; strengthen the fuzz";
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
// races shared host state at tied instants (the paper-workload and
// reused-world cases above are the byte-identical proof); a fuzz that did
// would test an ordering no layer relies on.

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
