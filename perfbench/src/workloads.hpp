// The four workloads, each a closed loop over one fixed batch of simulated
// work per sample, driven through the simulator modules' public API.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace spam::am { class Endpoint; }
namespace spam::mpi { class MpiAm; }
namespace spam::sim { class Engine; }
namespace spam::sphw { class SpMachine; }

namespace perfbench {

/// The seed whose virtual results are pinned in golden.cpp.
constexpr std::uint64_t kDefaultSeed = 42;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool fastpath = true;    // SpParams::network_fastpath
  bool localclock = true;  // SpParams::local_clock
  bool dump_golden = false;  // record the first world's fingerprints
};

/// Public per-layer counters summed over nodes, read at sample boundaries.
enum Counter : std::size_t {
  kExecuted, kElided, kResumes,                            // sim
  kTxPkts, kRxPkts, kFused, kRollbacks, kDoorbells,        // sphw adapter
  kFifoDrops, kSwitchDrops,                                // sphw drops
  kEventNodes, kHeapActions,                               // sim pools
  kPayloadAllocated, kPayloadReused,                       // sphw PayloadPool
  kAmMsgs, kAmCtrl, kAmRetries,                            // am
  kEager, kHybrid, kRdv, kBlocked, kAlltoalls,             // mpi
  kCounters
};
using Counters = std::array<std::uint64_t, kCounters>;
Counters operator-(const Counters& a, const Counters& b);

/// Where the counters live in one workload's world.
struct Probe {
  spam::sim::Engine* engine = nullptr;
  spam::sphw::SpMachine* machine = nullptr;
  std::vector<spam::am::Endpoint*> eps;
  std::vector<spam::mpi::MpiAm*> mpis;
  Counters read() const;
};

struct Sample {
  double wall_ns = 0;
  Counters delta{};
  double pkt_wall_ns() const { return per_packet(wall_ns, delta[kTxPkts]); }
};

/// The timed samples of one run, over all its rounds.
struct Phase {
  std::vector<Sample> samples;
  Counters total{};  // counters summed over the samples
  double wall_ns = 0;
};

struct SetupTimes {
  double world_ns = 0, machine_ns = 0, transport_ns = 0, warmup_ns = 0;
  double total_s() const {
    return (world_ns + machine_ns + transport_ns + warmup_ns) * 1e-9;
  }
};

struct RunResult {
  std::vector<SetupTimes> setups;
  Phase untraced;
  Phase traced;                      // empty unless Options::trace
  std::unique_ptr<Tracer> tracer;    // spans of the traced phase
  std::uint64_t attempted = 0;       // repetitions whose output was checked
  std::uint64_t failed = 0;
  double peak_rss_mib = 0;           // after the first round
  std::vector<Fingerprint> fingerprints;  // first world's, when dumping
};

RunResult run_workload(const Options& o);
bool known_workload(const std::string& name);
extern const std::array<const char*, 4> kWorkloads;

/// Golden table for `workload` at kDefaultSeed (empty when none pinned).
const GoldenTable& golden_for(const std::string& workload);

}  // namespace perfbench
