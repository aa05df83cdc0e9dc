#include "metrics.hpp"

#include <utility>

#include "stats.hpp"

namespace perfbench {

namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

SetupTimes fastest_setup(const RunResult& r) {
  SetupTimes best;
  for (std::size_t i = 0; i < r.setups.size(); ++i) {
    if (i == 0 || r.setups[i].total_s() < best.total_s()) best = r.setups[i];
  }
  return best;
}

std::vector<double> pkt_wall_ns(const Phase& p) {
  std::vector<double> xs;
  xs.reserve(p.samples.size());
  for (const Sample& s : p.samples) xs.push_back(s.pkt_wall_ns());
  return xs;
}

std::vector<Metric> end_to_end(const RunResult& r) {
  return {
      {"pkt_wall_ns_p1", "ns", percentile(pkt_wall_ns(r.untraced), 1)},
      {"setup_s", "s", fastest_setup(r).total_s()},
      {"peak_rss_mib", "MiB", r.peak_rss_mib},
  };
}

std::vector<Metric> reported(const RunResult& r) {
  const Phase& p = r.untraced;
  return {
      {"sim_pkts_per_s", "pkts/s",
       static_cast<double>(p.total[kTxPkts]) / (p.wall_ns * 1e-9)},
      {"pkt_wall_ns_p50", "ns", median(pkt_wall_ns(p))},
      {"pkt_wall_ns_tail", "ns", tail(pkt_wall_ns(p)).value},
      {"failed_frac", "frac", failed_frac(r.failed, r.attempted)},
  };
}

std::vector<Metric> sim_counts(const Counters& c) {
  const std::uint64_t pkts = c[kTxPkts];
  return {
      {"sim.exec_events_per_pkt", "events/pkt", ratio(c[kExecuted], pkts)},
      {"sim.switches_per_pkt", "switches/pkt", ratio(c[kResumes], pkts)},
      {"sim.elided_events_per_pkt", "events/pkt", ratio(c[kElided], pkts)},
  };
}

std::vector<Metric> per_layer(const RunResult& r) {
  const Counters& c = r.traced.total;
  const std::uint64_t pkts = c[kTxPkts];
  const double passes = static_cast<double>(r.traced.samples.size());
  const SpanSummary send = r.tracer->summary(SpanKind::kSend);
  const SpanSummary poll = r.tracer->summary(SpanKind::kPoll);
  const SpanSummary handler = r.tracer->summary(SpanKind::kHandler);
  auto per_pass = [&](Counter k) {
    return passes == 0 ? 0 : static_cast<double>(c[k]) / passes;
  };
  auto kernel_ms = [&](SpanKind k) { return r.tracer->wall_ns_p50(k) * 1e-6; };
  const SetupTimes setup = fastest_setup(r);
  std::vector<Metric> m = sim_counts(c);
  const std::vector<Metric> rest = {
      {"sim.pool_growth", "count",
       static_cast<double>(c[kEventNodes] + c[kHeapActions])},
      {"sphw.payload_growth", "count",
       static_cast<double>(c[kPayloadAllocated])},
      {"sphw.fused_frac", "frac", ratio(c[kFused], c[kRxPkts])},
      {"sphw.rollbacks_per_kpkt", "rollbacks/kpkt",
       1000.0 * ratio(c[kRollbacks], pkts)},
      {"sphw.doorbells_per_pkt", "doorbells/pkt", ratio(c[kDoorbells], pkts)},
      {"sphw.payload_reuse_frac", "frac",
       ratio(c[kPayloadReused], c[kPayloadReused] + c[kPayloadAllocated])},
      {"sphw.drops", "count",
       static_cast<double>(c[kFifoDrops] + c[kSwitchDrops])},
      {"am.ctrl_pkts_per_msg", "pkts/msg", ratio(c[kAmCtrl], c[kAmMsgs])},
      {"am.retries", "count", static_cast<double>(c[kAmRetries])},
      {"am.send_ns_p50", "ns", send.self_ns_p50},
      {"am.send_self_frac", "frac", ratio(send.self_calls, send.calls)},
      {"am.send_switches_per_call", "switches/call", send.switches_per_call},
      {"am.poll_ns_per_pkt", "ns/pkt", per_packet(poll.total_ns, pkts)},
      {"am.handler_ns_p50", "ns", handler.self_ns_p50},
      {"mpi.eager_sends", "sends/pass", per_pass(kEager)},
      {"mpi.hybrid_sends", "sends/pass", per_pass(kHybrid)},
      {"mpi.rdv_sends", "sends/pass", per_pass(kRdv)},
      {"mpi.sends_blocked_on_buffer", "sends/pass", per_pass(kBlocked)},
      {"mpi.alltoalls", "calls/pass", per_pass(kAlltoalls)},
      {"apps.nas_ft_ms", "ms", kernel_ms(SpanKind::kFt)},
      {"apps.nas_mg_ms", "ms", kernel_ms(SpanKind::kMg)},
      {"apps.nas_lu_ms", "ms", kernel_ms(SpanKind::kLu)},
      {"apps.nas_bt_ms", "ms", kernel_ms(SpanKind::kBt)},
      {"apps.nas_sp_ms", "ms", kernel_ms(SpanKind::kSp)},
      {"setup.world_ns", "ns", setup.world_ns},
      {"setup.machine_ns", "ns", setup.machine_ns},
      {"setup.transport_ns", "ns", setup.transport_ns},
      {"setup.warmup_ns", "ns", setup.warmup_ns},
      {"trace.overhead_frac", "frac",
       median(pkt_wall_ns(r.traced)) / median(pkt_wall_ns(r.untraced)) - 1},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

}  // namespace perfbench
