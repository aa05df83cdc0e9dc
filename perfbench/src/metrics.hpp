// End-to-end and per-layer metrics, computed from one run's samples,
// counters and spans.  perfbench/README.md gives the layer -> metric ->
// workload table.
#pragma once

#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

/// Host ns per simulated packet of every sample in `p`.
std::vector<double> pkt_wall_ns(const Phase& p);

/// The set-up of the run's fastest round.  Other tenants on a shared host
/// only ever slow a set-up, so the fastest of several tracks the program,
/// as pkt_wall_ns_p1 does for samples; its phases add up to setup_s.
SetupTimes fastest_setup(const RunResult& r);

/// The untraced run's gated metrics, in BENCHMARK.json's end_to_end order.
/// Host time is gated at the 1st percentile of per-sample cost: on a
/// shared host, interference from other tenants only ever slows a sample,
/// so the low percentile tracks the program while p50 tracks the tenants.
std::vector<Metric> end_to_end(const RunResult& r);

/// The other end-to-end figures of an untraced run (sim_pkts_per_s,
/// pkt_wall_ns_p50, pkt_wall_ns_tail, failed_frac).  Printed on '#' lines,
/// not gated: the first three move with host interference by more than
/// any usable bound, and failed_frac is 0 on a correct run (the JSON's
/// attempted/failed carry it).
std::vector<Metric> reported(const RunResult& r);

/// The sim.* counts per simulated packet.
std::vector<Metric> sim_counts(const Counters& c);

/// The traced run's metrics, in BENCHMARK.json's per_layer order.  Needs
/// a RunResult from a run with Options::trace.
std::vector<Metric> per_layer(const RunResult& r);

}  // namespace perfbench
