// Calibration parameters for the simulated SP communication hardware.
//
// Every constant that the paper measures or implies is a named parameter
// here, so benches can sweep them (ablations) and EXPERIMENTS.md can record
// the calibrated values.  Defaults are tuned to reproduce the paper's
// microbenchmark numbers on "thin" model-390 nodes; wide_node() derives the
// model-590 variant.
#pragma once

namespace spam::sphw {

struct SpParams {
  // --- Host CPU / cache / MicroChannel -----------------------------------
  /// Cost of flushing one data-cache line to memory (the RS/6000 memory bus
  /// is not coherent, so every FIFO entry write must be flushed).
  double flush_line_us = 0.35;
  int cache_line_bytes = 64;
  /// Host store bandwidth when building a packet in the memory-resident
  /// send FIFO (per byte).
  double host_write_us_per_byte = 0.010;
  /// Host copy bandwidth when draining the receive FIFO (per byte).
  double host_copy_us_per_byte = 0.012;
  /// One programmed-I/O access across the MicroChannel (length-array store,
  /// receive-FIFO pop).  The paper: "each access costs around 1us".
  double mc_access_us = 1.0;

  // --- TB2 adapter --------------------------------------------------------
  /// MicroChannel DMA streaming rate (peak 80 MB/s per the paper).
  double mc_dma_mbps = 80.0;
  /// Fixed DMA engine setup per packet.
  double dma_setup_us = 2.8;
  /// i860 firmware processing per transmitted packet.
  double i860_tx_us = 5.0;
  /// i860 firmware processing per received packet.
  double i860_rx_us = 5.0;

  // --- Switch -------------------------------------------------------------
  /// Per-port link bandwidth ("close to 40 MB/s").
  double link_mbps = 40.0;
  /// Switch hardware latency per traversal.
  double hop_latency_us = 0.5;

  // --- FIFO geometry ------------------------------------------------------
  int send_fifo_entries = 128;
  /// The receive FIFO holds this many entries *per active node*.
  int recv_fifo_entries_per_node = 64;
  /// Payload capacity of one packet/FIFO entry; 224 data + 32 header = 256.
  int packet_data_bytes = 224;
  int packet_header_bytes = 32;
  /// Receive-FIFO entries are popped lazily, one MicroChannel access per
  /// this many packets, to amortize the ~1us bus access.
  int lazy_pop_batch = 8;

  // --- Simulator fast path ------------------------------------------------
  /// Contention-aware event fusion: provably uncontended sends schedule one
  /// fused delivery event instead of the per-hop chain, and idle elapses
  /// skip the wake timer.  Arrival times are bit-identical by construction
  /// (same sim::Time arithmetic, same order of additions); flip off to run
  /// the reference per-hop simulation (perfbench --ablation and
  /// tests/test_mode_equivalence.cpp do this).
  bool network_fastpath = true;

  /// Node-local virtual clocks: NodeCtx::charge() defers compute charges
  /// into a per-node debt ledger, settled as one engine sleep at the next
  /// interaction point (communication, suspend, trace, cross-node now()).
  /// Virtual times are bit-identical by construction; flip off to force
  /// every charge through the engine (perfbench --ablation and
  /// tests/test_mode_equivalence.cpp do this).
  /// Independent of network_fastpath so the shortcuts compare in
  /// isolation.
  bool local_clock = true;

  /// Default thin-node (model 390) calibration.
  static SpParams thin_node() { return SpParams{}; }

  /// Wide-node (model 590) calibration: 256-byte cache lines and a wider
  /// memory system make host-side copies and flushes cheaper.
  static SpParams wide_node() {
    SpParams p;
    p.cache_line_bytes = 256;
    p.flush_line_us = 0.45;          // fewer, slightly dearer line flushes
    p.host_write_us_per_byte = 0.007;
    p.host_copy_us_per_byte = 0.008;
    return p;
  }
};

}  // namespace spam::sphw
