// Reproduces paper Figure 7: bandwidth of the buffered, rendez-vous, and
// hybrid buffered/rendez-vous MPI protocols, each forced across the whole
// size range.  The hybrid curve must dominate both pure protocols around
// the switch region (no discontinuity).
//
// The pure-buffered curve needs room beyond the production 16 KB region,
// so that configuration runs with an enlarged 256 KB per-peer buffer (the
// paper's protocol study similarly isolates the protocols).
#include <algorithm>
#include <cstdio>

#include "harness.hpp"
#include "micro.hpp"

namespace {

using spam::mpi::MpiAmConfig;
using spam::mpi::MpiImpl;
using spam::mpi::MpiWorldConfig;

MpiWorldConfig force_buffered() {
  MpiWorldConfig cfg;
  cfg.impl = MpiImpl::kAmOptimized;
  cfg.am_cfg = MpiAmConfig::opt();
  cfg.am_cfg.peer_buffer_bytes = 256 * 1024;
  cfg.am_cfg.eager_max = 200 * 1024;
  cfg.am_cfg.hybrid = false;
  return cfg;
}

MpiWorldConfig force_rendezvous() {
  MpiWorldConfig cfg;
  cfg.impl = MpiImpl::kAmOptimized;
  cfg.am_cfg = MpiAmConfig::opt();
  cfg.am_cfg.eager_max = 0;
  cfg.am_cfg.hybrid = false;
  return cfg;
}

MpiWorldConfig force_hybrid() {
  MpiWorldConfig cfg;
  cfg.impl = MpiImpl::kAmOptimized;
  cfg.am_cfg = MpiAmConfig::opt();
  cfg.am_cfg.eager_max = 0;  // every message takes the hybrid path
  cfg.am_cfg.hybrid = true;
  return cfg;
}

std::vector<std::size_t> sizes() {
  std::vector<std::size_t> v;
  for (std::size_t s = 512; s <= (1u << 17); s *= 2) {
    v.push_back(s);
    v.push_back(s * 3 / 2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  // Points: (size, protocol) for every size, protocols in column order.
  const auto sz = sizes();
  const MpiWorldConfig protocols[] = {force_buffered(), force_rendezvous(),
                                      force_hybrid()};
  std::vector<std::function<double()>> points;
  for (std::size_t s : sz) {
    for (const MpiWorldConfig& cfg : protocols) {
      points.push_back(
          [&cfg, s] { return spam::bench::mpi_bandwidth_mbps(cfg, s); });
    }
  }
  const std::vector<double> mbps = spam::bench::sweep(points);
  const auto buffered = [&](std::size_t i) { return mbps[3 * i]; };
  const auto rdv = [&](std::size_t i) { return mbps[3 * i + 1]; };
  const auto hybrid = [&](std::size_t i) { return mbps[3 * i + 2]; };

  spam::report::Table tab(
      "Figure 7 — buffered vs rendez-vous vs hybrid protocol bandwidth "
      "(MB/s)");
  tab.set_header({"bytes", "buffered", "rendez-vous", "hybrid"});
  for (std::size_t i = 0; i < sz.size(); ++i) {
    tab.add_row({std::to_string(sz[i]), spam::report::fmt(buffered(i)),
                 spam::report::fmt(rdv(i)), spam::report::fmt(hybrid(i))});
  }
  spam::bench::emit(tab);

  // Shape check: the hybrid curve should match or beat both pure protocols
  // in the 4-32 KB switch region.
  int wins = 0, pts = 0;
  for (std::size_t i = 0; i < sz.size(); ++i) {
    if (sz[i] < 4096 || sz[i] > 32768) continue;
    ++pts;
    if (hybrid(i) + 0.5 >= std::min(buffered(i), rdv(i))) {
      ++wins;
    }
  }
  std::printf("\nHybrid >= min(buffered, rendez-vous) on %d/%d points in the "
              "switch region.\n", wins, pts);
  return spam::bench::harness_finish();
}
