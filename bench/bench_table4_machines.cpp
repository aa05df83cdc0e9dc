// Reproduces paper Table 4: communication characteristics of the TMC CM-5,
// Meiko CS-2, U-Net/ATM cluster, and IBM SP — message overhead, round-trip
// latency, and per-node bandwidth, measured on the respective machine
// models.
#include "harness.hpp"
#include "logp/loggp.hpp"
#include "micro.hpp"

namespace {

using spam::logp::LogGpMachine;
using spam::logp::LogGpParams;

double loggp_rtt_us(const LogGpParams& params) {
  spam::sim::World w(2);
  LogGpMachine m(w, params);
  std::uint64_t flag0 = 0, flag1 = 0;
  spam::sim::Time rtt = 0;
  w.spawn(0, [&](spam::sim::NodeCtx& ctx) {
    for (std::uint64_t v = 1; v <= 3; ++v) {
      if (v == 2) rtt = ctx.now();
      m.ep(0).put_bytes(1, &flag1, &v, 8);
      while (flag0 < v) m.ep(0).poll();
    }
    rtt = (ctx.now() - rtt) / 2;
  });
  w.spawn(1, [&](spam::sim::NodeCtx&) {
    for (std::uint64_t v = 1; v <= 3; ++v) {
      while (flag1 < v) m.ep(1).poll();
      m.ep(1).put_bytes(0, &flag0, &v, 8);
    }
  });
  w.run();
  return spam::sim::to_usec(rtt);
}

double loggp_bw_mbps(const LogGpParams& params) {
  spam::sim::World w(2);
  LogGpMachine m(w, params);
  const std::size_t len = 1 << 20;
  std::vector<std::byte> src(len, std::byte{3});
  std::vector<std::byte> dst(len, std::byte{0});
  spam::sim::Time elapsed = 0;
  w.spawn(0, [&](spam::sim::NodeCtx& ctx) {
    const spam::sim::Time t0 = ctx.now();
    m.ep(0).put_bytes(1, dst.data(), src.data(), len);
    while (m.ep(0).outstanding() > 0) m.ep(0).poll();
    elapsed = ctx.now() - t0;
  });
  w.run();
  return static_cast<double>(len) / spam::sim::to_sec(elapsed) / 1e6;
}

struct Row {
  const char* machine;
  const char* cpu;
  double paper_overhead_us;
  double paper_rtt_us;
  double paper_bw;
};

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  const LogGpParams presets[] = {LogGpParams::cm5(), LogGpParams::meiko_cs2(),
                                 LogGpParams::unet_atm()};

  // Points: (round-trip, bandwidth) per LogGP preset, then the SP AM ones.
  std::vector<std::function<double()>> points;
  for (const LogGpParams& p : presets) {
    points.push_back([&p] { return loggp_rtt_us(p); });
    points.push_back([&p] { return loggp_bw_mbps(p); });
  }
  points.push_back([] { return spam::bench::am_request_cost_us(1); });
  points.push_back([] { return spam::bench::am_poll_empty_us(); });
  points.push_back([] { return spam::bench::am_reply_cost_us(1); });
  points.push_back([] { return spam::bench::am_rtt_us(1); });
  points.push_back([] {
    return spam::bench::am_bandwidth_mbps(
        spam::bench::AmBwMode::kPipelinedAsyncStore, 1 << 20);
  });
  const std::vector<double> v = spam::bench::sweep(points);
  const double sp_request = v[6], sp_poll = v[7], sp_reply = v[8];
  const double sp_rtt = v[9], sp_bw = v[10];

  using spam::report::fmt;

  const Row rows[] = {
      {"TMC CM-5", "33 MHz Sparc-2", 3.0, 12.0, 10.0},
      {"Meiko CS-2", "40 MHz SuperSparc", 11.0, 25.0, 39.0},
      {"U-Net/ATM", "50/60 MHz Sparc-20", 3.0, 66.0, 14.0},
  };

  spam::report::Table tab(
      "Table 4 — machine communication characteristics (paper / measured)");
  tab.set_header({"machine", "CPU", "overhead (us)", "round-trip (us)",
                  "bandwidth (MB/s)"});
  for (int i = 0; i < 3; ++i) {
    const auto& p = presets[i];
    tab.add_row({rows[i].machine, rows[i].cpu,
                 fmt(rows[i].paper_overhead_us) + " / " +
                     fmt(p.o_send_us + p.o_recv_us),
                 fmt(rows[i].paper_rtt_us) + " / " + fmt(v[2 * i]),
                 fmt(rows[i].paper_bw) + " / " + fmt(v[2 * i + 1])});
  }
  // The SP row uses the detailed TB2 model, not LogGP.
  const double sp_overhead = sp_request - sp_poll + sp_reply;
  tab.add_row({"IBM SP (SP AM)", "66 MHz Power2",
               fmt(3.0 + 1.4, 1) + "-ish / " + fmt(sp_overhead),
               fmt(51.0) + " / " + fmt(sp_rtt),
               fmt(34.0) + " / " + fmt(sp_bw)});
  spam::bench::emit(tab);
  return spam::bench::harness_finish();
}
