// Reproduces paper Figures 8 and 9: MPI point-to-point per-hop latency
// (4-node ring) and bandwidth on thin SP nodes, four curves each:
// raw am_store, unoptimized MPI-AM, optimized MPI-AM, and MPI-F.
#include <cstdio>

#include "harness.hpp"
#include "micro.hpp"

namespace {

using spam::mpi::MpiImpl;
using spam::mpi::MpiWorldConfig;

MpiWorldConfig cfg_of(MpiImpl impl, spam::sphw::SpParams hw) {
  MpiWorldConfig cfg;
  cfg.impl = impl;
  cfg.hw = hw;
  cfg.nodes = 4;
  if (impl == MpiImpl::kMpiF) {
    cfg.f_cfg = spam::mpif::MpiFConfig::thin();
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  const auto hw = spam::sphw::SpParams::thin_node();

  // Points: every latency size, then every bandwidth size; per size the
  // four curves in column order (am_store, unopt MPI-AM, opt MPI-AM, MPI-F).
  const MpiImpl impls[] = {MpiImpl::kAmUnoptimized, MpiImpl::kAmOptimized,
                           MpiImpl::kMpiF};
  std::vector<std::function<double()>> points;
  for (std::size_t s : spam::bench::mpi_figure_latency_sizes()) {
    points.push_back(
        [&hw, s] { return spam::bench::am_store_hop_latency_us(s, hw); });
    for (MpiImpl impl : impls) {
      points.push_back([&hw, impl, s] {
        return spam::bench::mpi_hop_latency_us(cfg_of(impl, hw), s);
      });
    }
  }
  for (std::size_t s : spam::bench::mpi_figure_bandwidth_sizes()) {
    points.push_back(
        [&hw, s] { return spam::bench::am_store_bandwidth_mbps(s, hw); });
    for (MpiImpl impl : impls) {
      points.push_back([&hw, impl, s] {
        return spam::bench::mpi_bandwidth_mbps(cfg_of(impl, hw), s);
      });
    }
  }
  const std::vector<double> v = spam::bench::sweep(points);
  // One table row: `bytes`, then the four curves of point row `r`.
  const auto row = [&](std::size_t r, std::size_t bytes) {
    std::vector<std::string> cells{std::to_string(bytes)};
    for (std::size_t c = 0; c < 4; ++c) {
      cells.push_back(spam::report::fmt(v[4 * r + c]));
    }
    return cells;
  };

  spam::report::Table lat(
      "Figure 8 — MPI per-hop latency on thin nodes (us)");
  lat.set_header({"bytes", "am_store", "unopt MPI-AM", "opt MPI-AM",
                  "MPI-F"});
  const auto lsz = spam::bench::mpi_figure_latency_sizes();
  for (std::size_t i = 0; i < lsz.size(); ++i) lat.add_row(row(i, lsz[i]));
  spam::bench::emit(lat);

  spam::report::Table bw(
      "Figure 9 — MPI point-to-point bandwidth on thin nodes (MB/s)");
  bw.set_header({"bytes", "am_store", "unopt MPI-AM", "opt MPI-AM", "MPI-F"});
  const auto bsz = spam::bench::mpi_figure_bandwidth_sizes();
  for (std::size_t i = 0; i < bsz.size(); ++i) {
    bw.add_row(row(lsz.size() + i, bsz[i]));
  }
  spam::bench::emit(bw);

  std::printf(
      "\nShape checks (paper, thin nodes): optimized MPI-AM achieves lower "
      "small-message\nlatency than MPI-F and beats it by 10-30%% at 8-20 KB; "
      "MPI-F dips after its 4 KB\nprotocol switch; all ride below the raw "
      "am_store curve.\n");
  return spam::bench::harness_finish();
}
