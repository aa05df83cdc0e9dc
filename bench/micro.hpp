// Shared measurement routines for the table/figure benches: the paper's
// microbenchmark definitions (section 2.3-2.5) expressed against the
// simulated SP, plus MPI ring latency / point-to-point bandwidth used by
// Figures 7-11.
#pragma once

#include <cstddef>
#include <vector>

#include "am/net.hpp"
#include "mpif/mpi_world.hpp"
#include "mpl/mpl.hpp"
#include "report/report.hpp"
#include "splitc/splitc_world.hpp"

namespace spam::bench {

// --- SP AM microbenchmarks -------------------------------------------------

/// One-word (or N-word) am_request/am_reply ping-pong round-trip, thin
/// nodes unless overridden (paper section 2.3: 51.0 us for one word).
double am_rtt_us(int words, sphw::SpParams hw = sphw::SpParams::thin_node(),
                 am::AmParams amp = {});

/// Raw adapter-level ping-pong without flow control (paper: 46.5 us).
double raw_rtt_us(sphw::SpParams hw = sphw::SpParams::thin_node());

/// Cost of a successful am_request_N / am_reply_N call (paper Table 2).
double am_request_cost_us(int words,
                          sphw::SpParams hw = sphw::SpParams::thin_node());
double am_reply_cost_us(int words,
                        sphw::SpParams hw = sphw::SpParams::thin_node());
/// Poll costs (paper: 1.3 us empty, +1.8 us per received message).  The
/// per-message cost is am_poll_one_msg_us() - am_poll_empty_us().
double am_poll_empty_us(sphw::SpParams hw = sphw::SpParams::thin_node());
double am_poll_one_msg_us(sphw::SpParams hw = sphw::SpParams::thin_node());

enum class AmBwMode {
  kSyncStore,            // blocking am_store per transfer
  kSyncGet,              // blocking am_get per transfer
  kPipelinedAsyncStore,  // 1 MB streamed as size-n am_store_async
  kPipelinedAsyncGet,    // 1 MB streamed as size-n am_get
};

/// One-way bandwidth for transfers of `bytes` (paper section 2.4).
double am_bandwidth_mbps(AmBwMode mode, std::size_t bytes,
                         sphw::SpParams hw = sphw::SpParams::thin_node(),
                         am::AmParams amp = {});

// --- MPL microbenchmarks ---------------------------------------------------

/// mpc_bsend/mpc_brecv one-word ping-pong (paper: 88 us).
double mpl_rtt_us(sphw::SpParams hw = sphw::SpParams::thin_node(),
                  mpl::MplParams mp = {});

enum class MplBwMode {
  kBlocking,   // mpc_bsend followed by a 0-byte echo
  kPipelined,  // streamed mpc_send
};
double mpl_bandwidth_mbps(MplBwMode mode, std::size_t bytes,
                          sphw::SpParams hw = sphw::SpParams::thin_node(),
                          mpl::MplParams mp = {});

/// Sweep sizes used by Figure 3 (16 B .. 1 MB, log-spaced).
std::vector<std::size_t> figure3_sizes();

// --- MPI measurements (Figures 7-11) ----------------------------------------

/// Per-hop latency around a 4-node ring (paper's Figure 8/10 methodology).
double mpi_hop_latency_us(const mpi::MpiWorldConfig& cfg, std::size_t bytes);

/// One-way point-to-point bandwidth between two nodes.
double mpi_bandwidth_mbps(const mpi::MpiWorldConfig& cfg, std::size_t bytes);

/// Message sizes Figures 8-11 print: the latency panels (8, 10) and the
/// bandwidth panels (9, 11).
std::vector<std::size_t> mpi_figure_latency_sizes();
std::vector<std::size_t> mpi_figure_bandwidth_sizes();

/// Raw am_store reference curve used in the MPI figures.
double am_store_hop_latency_us(std::size_t bytes, sphw::SpParams hw);
double am_store_bandwidth_mbps(std::size_t bytes, sphw::SpParams hw);

}  // namespace spam::bench
