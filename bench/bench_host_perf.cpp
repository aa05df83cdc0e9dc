// Host-side performance of the event core itself: how many engine events
// each simulated message executes, how long the measured phase takes on
// the host, and how many megabytes of simulated bulk traffic the software
// stack pushes per host second.  Unlike the table/figure benches (which
// report *virtual* time, reproducing the paper), this bench reports *host*
// time: it is the regression guard for the zero-allocation event core.
//
// Two workloads, both taken from the paper's microbenchmark set:
//   pingpong — 1-word am_request/am_reply round-trips (section 2.3);
//   bulk     — a 1 MB am_store_async stream in 64 KB messages (section 2.4).
//
// Each workload also records its virtual-time result (RTT, bandwidth):
// those must stay bit-identical across event-core changes — the
// optimization may only move host time, never virtual time.
//
// With the network fast path (the default), uncontended packets collapse
// their per-hop event chains into fused deliveries and provably dead poll
// wakes are merged away.  `events` counts what the engine executed;
// `events_simulated` adds the elided events, so `events_per_message`
// (simulated / messages) is the per-hop-equivalent work, the same in both
// modes.  `fused_fraction` shows how much traffic took the fused path;
// `--no-fastpath` forces the reference per-hop mode so the fused/unfused
// comparison is one command each.
//
// Usage: bench_host_perf [--quick] [--no-fastpath] [--out <path>]
// Writes a JSON report (default: BENCH_host_perf.json in the cwd) and
// prints it to stdout.  Exit code is 0 whatever the wall times: judging
// them is the caller's job, producing them is ours.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "am/net.hpp"
#include "harness.hpp"
#include "sim/world.hpp"
#include "sphw/machine.hpp"
#include "sphw/payload.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct WorkloadResult {
  std::uint64_t events = 0;     // engine events executed in the measured phase
  std::uint64_t simulated = 0;  // per-hop-equivalent events (executed+elided)
  std::uint64_t messages = 0;   // AM-level messages in the measured phase
  std::uint64_t fused = 0;      // packets delivered by a fused event
  std::uint64_t delivered = 0;  // packets delivered in total
  double wall_s = 0.0;          // host seconds for the measured phase
  double virt_metric = 0.0;     // RTT in us (pingpong) or MB/s (bulk)
  // Steady-state allocation deltas across the measured phase; all three
  // must be zero or the event core has lost its zero-allocation property.
  std::uint64_t new_event_nodes = 0;      // Engine pool growth
  std::uint64_t new_heap_actions = 0;     // InlineAction heap fallbacks
  std::uint64_t new_payload_buffers = 0;  // PayloadPool growth
  double events_per_message() const {
    return messages > 0 ? static_cast<double>(simulated) / messages : 0;
  }
  double fused_fraction() const {
    return delivered > 0 ? static_cast<double>(fused) / delivered : 0;
  }
};

/// Snapshot of every allocation counter the hot path can touch.
struct AllocCounters {
  std::uint64_t event_nodes;
  std::uint64_t heap_actions;
  std::uint64_t payload_buffers;
  static AllocCounters sample(spam::sim::Engine& engine) {
    const auto pool = engine.pool_stats();
    const auto payload = spam::sphw::PayloadPool::instance().stats();
    return {pool.nodes_allocated, pool.action_heap_fallbacks,
            payload.buffers_allocated};
  }
};

bool g_fastpath = true;  // --no-fastpath forces the per-hop reference mode

spam::sphw::SpParams bench_params() {
  spam::sphw::SpParams p = spam::sphw::SpParams::thin_node();
  p.network_fastpath = g_fastpath;
  return p;
}

struct Fixture {
  spam::sim::World world;
  spam::sphw::SpMachine machine;
  spam::am::AmNet net;
  Fixture() : world(2), machine(world, bench_params()), net(machine) {}
};

/// Fused-delivery counters across both adapters of the fixture.
struct FusedSnap {
  std::uint64_t fused;
  std::uint64_t delivered;
  static FusedSnap sample(Fixture& f) {
    const auto& a0 = f.net.ep(0).adapter().stats();
    const auto& a1 = f.net.ep(1).adapter().stats();
    return {a0.fused_deliveries + a1.fused_deliveries,
            a0.rx_packets + a1.rx_packets};
  }
};

// 1-word AM ping-pong: `iters` measured round-trips after `warm` warmups.
WorkloadResult run_pingpong(int warm, int iters) {
  Fixture f;
  spam::am::Endpoint& e0 = f.net.ep(0);
  spam::am::Endpoint& e1 = f.net.ep(1);
  int pongs = 0;
  const int h_pong = e0.register_handler(
      [&](spam::am::Endpoint&, spam::am::Token, const spam::am::Word*, int) {
        ++pongs;
      });
  const int h_ping = e1.register_handler(
      [&, h_pong](spam::am::Endpoint& ep, spam::am::Token t,
                  const spam::am::Word* a, int) { ep.reply_1(t, h_pong, a[0]); });

  WorkloadResult r;
  f.world.spawn(0, [&](spam::sim::NodeCtx& ctx) {
    for (int i = 0; i < warm; ++i) {
      const int want = pongs + 1;
      e0.request_1(1, h_ping, 1);
      e0.poll_until([&] { return pongs >= want; });
    }
    const auto wall0 = Clock::now();
    const std::uint64_t ev0 = ctx.engine().events_executed();
    const std::uint64_t sim0 = ctx.engine().events_simulated();
    const FusedSnap f0 = FusedSnap::sample(f);
    const spam::sim::Time tv0 = ctx.now();
    const AllocCounters a0 = AllocCounters::sample(ctx.engine());
    for (int i = 0; i < iters; ++i) {
      const int want = pongs + 1;
      e0.request_1(1, h_ping, 1);
      e0.poll_until([&] { return pongs >= want; });
    }
    r.wall_s = secs_since(wall0);
    r.events = ctx.engine().events_executed() - ev0;
    r.simulated = ctx.engine().events_simulated() - sim0;
    r.messages = 2 * static_cast<std::uint64_t>(iters);  // request + reply
    const FusedSnap f1 = FusedSnap::sample(f);
    r.fused = f1.fused - f0.fused;
    r.delivered = f1.delivered - f0.delivered;
    r.virt_metric = spam::sim::to_usec(ctx.now() - tv0) / iters;
    const AllocCounters a1 = AllocCounters::sample(ctx.engine());
    r.new_event_nodes = a1.event_nodes - a0.event_nodes;
    r.new_heap_actions = a1.heap_actions - a0.heap_actions;
    r.new_payload_buffers = a1.payload_buffers - a0.payload_buffers;
  });
  f.world.spawn(1, [&](spam::sim::NodeCtx&) {
    e1.poll_until([&] { return pongs >= warm + iters; });
  });
  f.world.run();
  return r;
}

// Streams `reps` repetitions of 1 MB as pipelined 64 KB am_store_async
// operations; the virtual metric is the paper's Figure 3 bandwidth point.
WorkloadResult run_bulk(int warm, int reps) {
  constexpr std::size_t kMsg = 64 * 1024;
  constexpr std::size_t kStream = 1 << 20;
  constexpr std::size_t kMsgsPerRep = kStream / kMsg;
  Fixture f;
  spam::am::Endpoint& e0 = f.net.ep(0);
  spam::am::Endpoint& e1 = f.net.ep(1);
  std::vector<std::byte> src(kMsg, std::byte{0x5a});
  std::vector<std::byte> dst(kStream);
  bool done = false;

  WorkloadResult r;
  f.world.spawn(0, [&](spam::sim::NodeCtx& ctx) {
    std::size_t completions = 0;
    auto stream_once = [&] {
      const std::size_t want = completions + kMsgsPerRep;
      for (std::size_t i = 0; i < kMsgsPerRep; ++i) {
        e0.store_async(1, dst.data() + i * kMsg, src.data(), kMsg, 0, 0,
                       [&] { ++completions; });
      }
      e0.poll_until([&] { return completions >= want; });
    };
    for (int i = 0; i < warm; ++i) stream_once();
    const auto wall0 = Clock::now();
    const std::uint64_t ev0 = ctx.engine().events_executed();
    const std::uint64_t sim0 = ctx.engine().events_simulated();
    const FusedSnap f0 = FusedSnap::sample(f);
    const spam::sim::Time tv0 = ctx.now();
    const AllocCounters a0 = AllocCounters::sample(ctx.engine());
    for (int i = 0; i < reps; ++i) stream_once();
    r.wall_s = secs_since(wall0);
    r.events = ctx.engine().events_executed() - ev0;
    r.simulated = ctx.engine().events_simulated() - sim0;
    r.messages = static_cast<std::uint64_t>(kMsgsPerRep) * reps;
    const FusedSnap f1 = FusedSnap::sample(f);
    r.fused = f1.fused - f0.fused;
    r.delivered = f1.delivered - f0.delivered;
    const double virt_s = spam::sim::to_sec(ctx.now() - tv0);
    r.virt_metric = static_cast<double>(kStream) * reps / virt_s / 1e6;
    const AllocCounters a1 = AllocCounters::sample(ctx.engine());
    r.new_event_nodes = a1.event_nodes - a0.event_nodes;
    r.new_heap_actions = a1.heap_actions - a0.heap_actions;
    r.new_payload_buffers = a1.payload_buffers - a0.payload_buffers;
    done = true;
  });
  f.world.spawn(1, [&](spam::sim::NodeCtx&) {
    e1.poll_until([&] { return done; });
  });
  f.world.run();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // Shared flag parsing (--quick/--out/--jobs); the workloads themselves
  // stay serial on purpose — they measure host wall-clock, and concurrent
  // runs would contend for cores and corrupt the numbers.
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--no-fastpath") == 0) {
      g_fastpath = false;
      for (int j = i; j < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else {
      ++i;
    }
  }
  spam::bench::harness_init(argc, argv, "[--no-fastpath]");
  const bool quick = spam::bench::options().quick;
  const std::string out = spam::bench::options().out.empty()
                              ? "BENCH_host_perf.json"
                              : spam::bench::options().out;

  const int pp_iters = quick ? 2000 : 20000;
  const WorkloadResult pp = run_pingpong(quick ? 50 : 200, pp_iters);
  const int bulk_reps = quick ? 4 : 32;
  const WorkloadResult bulk = run_bulk(quick ? 1 : 4, bulk_reps);
  const double bulk_host_mbps =
      bulk.wall_s > 0 ? (1 << 20) * static_cast<double>(bulk_reps) /
                            bulk.wall_s / 1e6
                      : 0;

  std::string json = "{\n";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"fastpath\": %s,\n", g_fastpath ? "true" : "false");
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"pingpong\": {\"iters\": %d, \"events\": %llu, "
                "\"events_simulated\": %llu, \"messages\": %llu, "
                "\"events_per_message\": %.2f, \"fused_fraction\": %.4f, "
                "\"wall_s\": %.6f, \"virtual_rtt_us\": %.4f},\n",
                pp_iters, static_cast<unsigned long long>(pp.events),
                static_cast<unsigned long long>(pp.simulated),
                static_cast<unsigned long long>(pp.messages),
                pp.events_per_message(), pp.fused_fraction(), pp.wall_s,
                pp.virt_metric);
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"bulk\": {\"stream_mb\": %d, \"events\": %llu, "
                "\"events_simulated\": %llu, \"messages\": %llu, "
                "\"events_per_message\": %.2f, \"fused_fraction\": %.4f, "
                "\"wall_s\": %.6f, \"host_mb_per_s\": %.1f, "
                "\"virtual_bw_mbps\": %.4f},\n",
                bulk_reps, static_cast<unsigned long long>(bulk.events),
                static_cast<unsigned long long>(bulk.simulated),
                static_cast<unsigned long long>(bulk.messages),
                bulk.events_per_message(), bulk.fused_fraction(), bulk.wall_s,
                bulk_host_mbps, bulk.virt_metric);
  json += buf;
  const std::uint64_t total_allocs =
      pp.new_event_nodes + pp.new_heap_actions + pp.new_payload_buffers +
      bulk.new_event_nodes + bulk.new_heap_actions + bulk.new_payload_buffers;
  std::snprintf(
      buf, sizeof buf,
      "  \"steady_state_allocs\": {\"pingpong\": {\"event_nodes\": %llu, "
      "\"heap_actions\": %llu, \"payload_buffers\": %llu}, "
      "\"bulk\": {\"event_nodes\": %llu, \"heap_actions\": %llu, "
      "\"payload_buffers\": %llu}, \"zero\": %s},\n",
      static_cast<unsigned long long>(pp.new_event_nodes),
      static_cast<unsigned long long>(pp.new_heap_actions),
      static_cast<unsigned long long>(pp.new_payload_buffers),
      static_cast<unsigned long long>(bulk.new_event_nodes),
      static_cast<unsigned long long>(bulk.new_heap_actions),
      static_cast<unsigned long long>(bulk.new_payload_buffers),
      total_allocs == 0 ? "true" : "false");
  json += buf;
  std::snprintf(buf, sizeof buf, "  \"quick\": %s\n}\n",
                quick ? "true" : "false");
  json += buf;

  std::fputs(json.c_str(), stdout);
  if (std::FILE* fp = std::fopen(out.c_str(), "w")) {
    std::fputs(json.c_str(), fp);
    std::fclose(fp);
  } else {
    std::fprintf(stderr, "bench_host_perf: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
