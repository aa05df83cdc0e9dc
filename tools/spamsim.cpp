// spamsim — command-line driver for one-off experiments on the simulated
// SP, without writing a program: round-trips, bandwidth points, MPI
// latency, the Split-C sorts, NAS kernels, and fault-injection runs.
//
//   spamsim rtt   [--hw thin|wide] [--words 1..4]
//   spamsim raw-rtt
//   spamsim mpl-rtt
//   spamsim bw    [--mode sync-store|sync-get|async-store|async-get|
//                         mpl-block|mpl-pipe] [--bytes N] [--hw thin|wide]
//   spamsim mpi-lat [--impl amopt|amunopt|mpif] [--bytes N] [--nodes N]
//                   [--hw thin|wide]
//   spamsim mpi-bw  [--impl ...] [--bytes N] [--hw thin|wide]
//   spamsim sort  [--backend am|mpl|cm5|cs2|unet] [--keys N]
//                 [--variant small|bulk] [--kind sample|radix] [--nodes N]
//   spamsim nas   [--kernel bt|ft|lu|mg|sp] [--impl amopt|mpif] [--n N]
//                 [--iters N] [--nodes N]
//   spamsim fault [--drop 0.05] [--bytes N] [--seed S]
//   spamsim fig3  [--jobs N] [--sizes full|quick]
//
// `--jobs N` (fig3) spreads the sweep's independent simulations across N
// host threads via the driver::SweepRunner; the printed table is byte-for-
// byte identical for any N (see docs/benchmarks.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "apps/nas.hpp"
#include "apps/splitc_apps.hpp"
#include "harness.hpp"
#include "micro.hpp"

namespace {

using spam::bench::AmBwMode;
using spam::bench::MplBwMode;

struct Args {
  std::string cmd;
  std::map<std::string, std::string> kv;

  std::string get(const std::string& k, const std::string& dflt) const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  long num(const std::string& k, long dflt) const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : std::strtol(it->second.c_str(), nullptr, 10);
  }
  double real(const std::string& k, double dflt) const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: spamsim <rtt|raw-rtt|mpl-rtt|bw|mpi-lat|mpi-bw|sort|"
               "nas|fault|fig3> [--key value ...]\n"
               "see the header of tools/spamsim.cpp for every flag\n");
  return 2;
}

int run_fig3(const Args& a) {
  // The full Figure 3 sweep: every (curve, size) point computed once in
  // parallel, then rendered.  Output is independent of --jobs.
  std::vector<std::size_t> sizes = spam::bench::figure3_sizes();
  if (a.get("sizes", "full") == "quick") {
    sizes = {16, 512, 8192, 65536, 1u << 20};
  }
  const std::vector<double> mbps =
      spam::bench::fig3_sweep(sizes, static_cast<int>(a.num("jobs", 0)));
  const std::string rendered = spam::bench::fig3_table(sizes, mbps).render();
  std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  return 0;
}

spam::sphw::SpParams hw_of(const Args& a) {
  return a.get("hw", "thin") == "wide" ? spam::sphw::SpParams::wide_node()
                                       : spam::sphw::SpParams::thin_node();
}

spam::mpi::MpiWorldConfig mpi_cfg(const Args& a) {
  spam::mpi::MpiWorldConfig cfg;
  cfg.nodes = static_cast<int>(a.num("nodes", 4));
  cfg.hw = hw_of(a);
  const std::string impl = a.get("impl", "amopt");
  if (impl == "mpif") {
    cfg.impl = spam::mpi::MpiImpl::kMpiF;
    cfg.f_cfg = a.get("hw", "thin") == "wide"
                    ? spam::mpif::MpiFConfig::wide()
                    : spam::mpif::MpiFConfig::thin();
  } else if (impl == "amunopt") {
    cfg.impl = spam::mpi::MpiImpl::kAmUnoptimized;
  } else {
    cfg.impl = spam::mpi::MpiImpl::kAmOptimized;
  }
  return cfg;
}

int run_sort(const Args& a) {
  spam::splitc::SplitCConfig cfg;
  cfg.nodes = static_cast<int>(a.num("nodes", 8));
  const std::string backend = a.get("backend", "am");
  if (backend == "mpl") {
    cfg.backend = spam::splitc::Backend::kSpMpl;
  } else if (backend == "cm5" || backend == "cs2" || backend == "unet") {
    cfg.backend = spam::splitc::Backend::kLogGp;
    cfg.loggp = backend == "cm5"   ? spam::logp::LogGpParams::cm5()
                : backend == "cs2" ? spam::logp::LogGpParams::meiko_cs2()
                                   : spam::logp::LogGpParams::unet_atm();
  } else {
    cfg.backend = spam::splitc::Backend::kSpAm;
  }
  const auto variant = a.get("variant", "small") == "bulk"
                           ? spam::apps::SortVariant::kBulk
                           : spam::apps::SortVariant::kSmallMessage;
  const auto keys = static_cast<std::size_t>(a.num("keys", 65536));
  spam::splitc::SplitCWorld world(cfg);
  const spam::apps::PhaseTimes r =
      a.get("kind", "sample") == "radix"
          ? spam::apps::run_radix_sort(world, keys, variant)
          : spam::apps::run_sample_sort(world, keys, variant);
  std::printf("%s sort, %zu keys, backend=%s, variant=%s\n",
              a.get("kind", "sample").c_str(), keys, backend.c_str(),
              a.get("variant", "small").c_str());
  std::printf("total %.4f s  cpu %.4f s  net %.4f s  valid=%s\n", r.total_s,
              r.cpu_s, r.comm_s, r.valid ? "yes" : "NO");
  return r.valid ? 0 : 1;
}

int run_nas(const Args& a) {
  auto cfg = mpi_cfg(a);
  if (a.kv.find("nodes") == a.kv.end()) cfg.nodes = 16;
  spam::mpi::MpiWorld world(cfg);
  const std::string k = a.get("kernel", "mg");
  const int n = static_cast<int>(a.num("n", k == "lu" ? 128 : 32));
  const int iters = static_cast<int>(a.num("iters", 2));
  spam::apps::NasResult r;
  if (k == "bt") r = spam::apps::run_bt(world, n, iters);
  else if (k == "ft") r = spam::apps::run_ft(world, n, iters);
  else if (k == "lu") r = spam::apps::run_lu(world, n, iters);
  else if (k == "sp") r = spam::apps::run_sp(world, n, iters);
  else r = spam::apps::run_mg(world, n, iters);
  std::printf("NAS %s, n=%d, iters=%d, nodes=%d, impl=%s\n", k.c_str(), n,
              iters, cfg.nodes, a.get("impl", "amopt").c_str());
  std::printf("time %.4f s  checksum %.10g\n", r.time_s, r.checksum);
  return 0;
}

int run_fault(const Args& a) {
  const double drop = a.real("drop", 0.05);
  const auto len = static_cast<std::size_t>(a.num("bytes", 262144));
  spam::am::AmParams amp;
  amp.keepalive_poll_threshold = 400;
  spam::sim::World world(2, static_cast<std::uint64_t>(a.num("seed", 1)));
  spam::sphw::SpMachine machine(world, hw_of(a));
  spam::am::AmNet net(machine, amp);
  spam::sim::Rng rng(static_cast<std::uint64_t>(a.num("seed", 1)) * 97 + 5);
  machine.fabric().set_drop_fn(
      [&](const spam::sphw::Packet&) { return rng.chance(drop); });
  std::vector<std::byte> src(len, std::byte{0x3c}), dst(len);
  bool done = false;
  spam::sim::Time t = 0;
  world.spawn(0, [&](spam::sim::NodeCtx& ctx) {
    net.ep(0).store_async(1, dst.data(), src.data(), len, 0, 0,
                          [&] { done = true; });
    net.ep(0).poll_until([&] { return done; });
    t = ctx.now();
  });
  world.spawn(1, [&](spam::sim::NodeCtx&) {
    net.ep(1).poll_until([&] { return done; });
  });
  world.run();
  const bool ok = std::memcmp(src.data(), dst.data(), len) == 0;
  std::printf("drop=%.1f%%  %zu bytes %s in %.2f ms  retransmitted chunks: "
              "%llu  probes: %llu\n",
              drop * 100, len, ok ? "intact" : "CORRUPT",
              spam::sim::to_usec(t) / 1000.0,
              static_cast<unsigned long long>(
                  net.ep(0).stats().retransmitted_chunks),
              static_cast<unsigned long long>(net.ep(0).stats().probes_sent));
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    a.kv[argv[i] + 2] = argv[i + 1];
  }

  if (a.cmd == "rtt") {
    std::printf("%.2f us\n", spam::bench::am_rtt_us(
                                 static_cast<int>(a.num("words", 1)),
                                 hw_of(a)));
  } else if (a.cmd == "raw-rtt") {
    std::printf("%.2f us\n", spam::bench::raw_rtt_us(hw_of(a)));
  } else if (a.cmd == "mpl-rtt") {
    std::printf("%.2f us\n", spam::bench::mpl_rtt_us(hw_of(a)));
  } else if (a.cmd == "bw") {
    const auto bytes = static_cast<std::size_t>(a.num("bytes", 1 << 20));
    const std::string mode = a.get("mode", "async-store");
    double mbps = 0;
    if (mode == "sync-store") {
      mbps = spam::bench::am_bandwidth_mbps(AmBwMode::kSyncStore, bytes,
                                            hw_of(a));
    } else if (mode == "sync-get") {
      mbps = spam::bench::am_bandwidth_mbps(AmBwMode::kSyncGet, bytes,
                                            hw_of(a));
    } else if (mode == "async-get") {
      mbps = spam::bench::am_bandwidth_mbps(AmBwMode::kPipelinedAsyncGet,
                                            bytes, hw_of(a));
    } else if (mode == "mpl-block") {
      mbps = spam::bench::mpl_bandwidth_mbps(MplBwMode::kBlocking, bytes,
                                             hw_of(a));
    } else if (mode == "mpl-pipe") {
      mbps = spam::bench::mpl_bandwidth_mbps(MplBwMode::kPipelined, bytes,
                                             hw_of(a));
    } else {
      mbps = spam::bench::am_bandwidth_mbps(AmBwMode::kPipelinedAsyncStore,
                                            bytes, hw_of(a));
    }
    std::printf("%.2f MB/s at %zu bytes (%s)\n", mbps, bytes, mode.c_str());
  } else if (a.cmd == "mpi-lat") {
    std::printf("%.2f us per hop\n",
                spam::bench::mpi_hop_latency_us(
                    mpi_cfg(a), static_cast<std::size_t>(a.num("bytes", 4))));
  } else if (a.cmd == "mpi-bw") {
    std::printf("%.2f MB/s\n",
                spam::bench::mpi_bandwidth_mbps(
                    mpi_cfg(a),
                    static_cast<std::size_t>(a.num("bytes", 65536))));
  } else if (a.cmd == "sort") {
    return run_sort(a);
  } else if (a.cmd == "nas") {
    return run_nas(a);
  } else if (a.cmd == "fault") {
    return run_fault(a);
  } else if (a.cmd == "fig3") {
    return run_fig3(a);
  } else {
    return usage();
  }
  return 0;
}
