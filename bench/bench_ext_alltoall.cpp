// Extension: direct evidence for the paper's FT explanation — MPICH's
// generic MPI_Alltoall walks destinations in the same order on every rank
// (all senders hammer rank 0, then rank 1, ...), while a vendor-style
// staggered schedule spreads the load.  Measures both on 16 nodes across
// block sizes, on the same MPI-AM device.
#include <cstdio>
#include <iterator>
#include <vector>

#include "harness.hpp"
#include "micro.hpp"

namespace {

using spam::mpi::MpiAmConfig;
using spam::mpi::MpiImpl;
using spam::mpi::MpiWorldConfig;

/// A one-off Mpi subclass flag is overkill: the devices already pick the
/// schedule via tuned_collectives(); MPI-AM uses the naive one and MPI-F
/// the staggered one.  To isolate the *schedule* (same transport), we run
/// the staggered schedule by hand over MPI-AM.
double alltoall_us(bool staggered, std::size_t block, int nodes) {
  MpiWorldConfig cfg;
  cfg.impl = MpiImpl::kAmOptimized;
  cfg.nodes = nodes;
  spam::mpi::MpiWorld w(cfg);
  std::vector<std::byte> sbuf(block * static_cast<std::size_t>(nodes),
                              std::byte{1});
  std::vector<std::byte> rbuf(block * static_cast<std::size_t>(nodes),
                              std::byte{0});
  spam::sim::Time elapsed = 0;

  w.run([&](spam::mpi::Mpi& mpi) {
    const int p = mpi.size();
    const int me = mpi.rank();
    mpi.barrier();
    const spam::sim::Time t0 = mpi.ctx().now();
    std::vector<int> reqs;
    for (int i = 0; i < p; ++i) {
      if (i == me) continue;
      reqs.push_back(mpi.irecv(rbuf.data() + static_cast<std::size_t>(i) * block,
                               block, i, 77));
    }
    if (staggered) {
      for (int k = 1; k < p; ++k) {
        const int dst = (me + k) % p;
        mpi.send(sbuf.data() + static_cast<std::size_t>(dst) * block, block,
                 dst, 77);
      }
    } else {
      for (int dst = 0; dst < p; ++dst) {
        if (dst == me) continue;
        mpi.send(sbuf.data() + static_cast<std::size_t>(dst) * block, block,
                 dst, 77);
      }
    }
    mpi.waitall(reqs);
    mpi.barrier();
    if (me == 0) elapsed = mpi.ctx().now() - t0;
  });
  return spam::sim::to_usec(elapsed);
}

const std::size_t kBlocks[] = {256, 1024, 4096, 16384};

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  // Points: (block, schedule) with the naive schedule first.
  std::vector<std::function<double()>> points;
  for (std::size_t block : kBlocks) {
    for (const bool staggered : {false, true}) {
      points.push_back(
          [block, staggered] { return alltoall_us(staggered, block, 16); });
    }
  }
  const std::vector<double> us = spam::bench::sweep(points);

  spam::report::Table tab(
      "Extension — alltoall schedule, 16 nodes, same MPI-AM transport");
  tab.set_header({"block bytes", "MPICH naive (us)", "staggered (us)",
                  "naive / staggered"});
  for (std::size_t b = 0; b < std::size(kBlocks); ++b) {
    const double naive = us[2 * b];
    const double stag = us[2 * b + 1];
    tab.add_row({std::to_string(kBlocks[b]), spam::report::fmt(naive),
                 spam::report::fmt(stag), spam::report::fmt(naive / stag, 2)});
  }
  spam::bench::emit(tab);
  std::printf(
      "\nReading: the synchronized destination order creates the receiver "
      "hot spot the\npaper blames for FT's MPICH gap ('all processors try "
      "to send to the same\nprocessor at the same time, rather than "
      "spreading out the communication').\n");
  return spam::bench::harness_finish();
}
