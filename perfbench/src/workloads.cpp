#include "workloads.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "am/net.hpp"
#include "apps/nas.hpp"
#include "apps/splitc_apps.hpp"
#include "mpif/mpi_world.hpp"
#include "sim/world.hpp"
#include "sphw/machine.hpp"
#include "sphw/payload.hpp"
#include "splitc/am_backend.hpp"
#include "splitc/splitc_world.hpp"

namespace perfbench {

const std::array<const char*, 4> kWorkloads = {
    "am_pingpong", "am_bulk", "splitc_radix_small", "mpi_nas"};

bool known_workload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d{};
  for (std::size_t i = 0; i < kCounters; ++i) d[i] = a[i] - b[i];
  return d;
}

Counters Probe::read() const {
  Counters c{};
  c[kExecuted] = engine->events_executed();
  c[kElided] = engine->events_elided();
  c[kResumes] = spam::sim::Fiber::resume_count();
  for (int n = 0; n < machine->size(); ++n) {
    const auto& s = machine->adapter(n).stats();
    c[kTxPkts] += s.tx_packets;
    c[kRxPkts] += s.rx_packets;
    c[kFused] += s.fused_deliveries;
    c[kRollbacks] += s.fused_rollbacks;
    c[kDoorbells] += s.doorbells;
    c[kFifoDrops] += s.rx_dropped_fifo_full;
  }
  c[kSwitchDrops] = machine->fabric().stats().dropped_injected;
  const auto pool = engine->pool_stats();
  c[kEventNodes] = pool.nodes_allocated;
  c[kHeapActions] = pool.action_heap_fallbacks;
  const auto payload = spam::sphw::PayloadPool::instance().stats();
  c[kPayloadAllocated] = payload.buffers_allocated;
  c[kPayloadReused] = payload.buffers_reused;
  for (const spam::am::Endpoint* ep : eps) {
    const auto& s = ep->stats();
    c[kAmMsgs] += s.requests_sent + s.replies_sent + s.chunks_sent;
    c[kAmCtrl] += s.acks_sent + s.nacks_sent + s.probes_sent;
    c[kAmRetries] += s.retransmitted_chunks + s.duplicates_dropped +
                     s.out_of_seq_dropped + s.nacks_sent;
  }
  for (const spam::mpi::MpiAm* m : mpis) {
    const auto& d = m->dev_stats();
    c[kEager] += d.eager_sends;
    c[kHybrid] += d.hybrid_sends;
    c[kRdv] += d.rdv_sends;
    c[kBlocked] += d.sends_blocked_on_buffer;
  }
  // Every rank enters each collective; count the collectives, not entries.
  if (!mpis.empty()) c[kAlltoalls] = mpis.front()->coll_stats().alltoalls;
  return c;
}

namespace {

// Warm-up runs repetitions until one leaves every pool unchanged; a world
// still growing after this many is measured anyway, and the growth shows
// in sim.pool_growth / sphw.payload_growth.
constexpr int kMaxWarmup = 8;
// Every run has at least this many rounds; setup_s is the fastest of them.
constexpr int kMinRounds = 3;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

spam::sphw::SpParams hw_params(const Options& o) {
  spam::sphw::SpParams p = spam::sphw::SpParams::thin_node();
  p.network_fastpath = o.fastpath;
  p.local_clock = o.localclock;
  return p;
}

/// The process's peak resident set (VmHWM).  getrusage's ru_maxrss would
/// also count the launcher: Linux carries it across fork and exec.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

bool pools_grew(const Counters& d) {
  return d[kEventNodes] != 0 || d[kHeapActions] != 0 ||
         d[kPayloadAllocated] != 0;
}

/// One world's lifetime: set-up (timed by the caller up to transport
/// construction), warm-up until the pools stop growing, then a fixed
/// number of timed samples.  Every repetition's output is checked.
class Round {
 public:
  Round(const Options& o, RunResult& res, int samples)
      : o_(o), res_(res), samples_(samples),
        golden_(o.seed == kDefaultSeed ? &golden_for(o.workload) : nullptr),
        dump_(o.dump_golden && res.setups.empty()) {}

  SetupTimes setup;
  Probe probe;

  /// `work(fp)` runs one repetition and records its virtual results;
  /// `verify()` applies the checks that hold at any seed, untimed.
  template <typename Work, typename Verify>
  void run(Work&& work, Verify&& verify, double warmup_start_ns) {
    for (int i = 0; i < kMaxWarmup; ++i) {
      const Counters c0 = probe.read();
      Fingerprint fp;
      work(fp);
      const Counters c1 = probe.read();
      check(fp, verify());
      if (!pools_grew(c1 - c0)) break;
    }
    setup.warmup_ns = now_ns() - warmup_start_ns;
    for (int i = 0; i < samples_; ++i) {
      // Traced runs alternate untraced and traced samples, so both see
      // the same world state and the ratio isolates the tracing cost.
      const bool traced = o_.trace && i % 2 == 1;
      Phase& phase = traced ? res_.traced : res_.untraced;
      const Counters c0 = probe.read();
      if (traced) g_tracer = res_.tracer.get();
      const double t0 = now_ns();
      Fingerprint fp;
      work(fp);
      const double t1 = now_ns();
      g_tracer = nullptr;
      const Counters c1 = probe.read();
      check(fp, verify());
      Sample s{t1 - t0, c1 - c0};
      for (std::size_t k = 0; k < kCounters; ++k) phase.total[k] += s.delta[k];
      phase.wall_ns += s.wall_ns;
      phase.samples.push_back(s);
    }
    res_.setups.push_back(setup);
  }

 private:
  void check(const Fingerprint& fp, bool intrinsic_ok) {
    const bool ok =
        intrinsic_ok && (golden_ == nullptr || matches_golden(*golden_, index_, fp));
    ++res_.attempted;
    if (!ok) ++res_.failed;
    if (dump_) res_.fingerprints.push_back(fp);
    ++index_;
  }

  const Options& o_;
  RunResult& res_;
  int samples_;
  const GoldenTable* golden_;
  bool dump_;
  std::size_t index_ = 0;
};

// --- am_pingpong: 1-word request_1/reply_1 round trips ----------------------

constexpr int kPingpongBatch = 1000;   // round trips per sample
constexpr int kPingpongSamples = 100;  // samples per round

void pingpong_round(const Options& o, RunResult& res) {
  using spam::am::Endpoint;
  using spam::am::Token;
  using spam::am::Word;
  Round round(o, res, kPingpongSamples);
  double t = now_ns();
  spam::sim::World world(2);
  round.setup.world_ns = now_ns() - t;
  t = now_ns();
  spam::sphw::SpMachine machine(world, hw_params(o));
  round.setup.machine_ns = now_ns() - t;
  t = now_ns();
  spam::am::AmNet net(machine);
  Endpoint& e0 = net.ep(0);
  Endpoint& e1 = net.ep(1);
  int pongs = 0;
  Word expected = 0;
  int mismatches = 0;
  bool stop = false, stopped = false;
  const int h_pong = e0.register_handler(
      [&](Endpoint&, Token, const Word* a, int) {
        SpanScope span(0, SpanKind::kHandler);
        if (a[0] != expected) ++mismatches;
        ++pongs;
      });
  const int h_ping = e1.register_handler(
      [&, h_pong](Endpoint& ep, Token tok, const Word* a, int) {
        SpanScope span(1, SpanKind::kHandler);
        SpanScope send(1, SpanKind::kSend);
        ep.reply_1(tok, h_pong, a[0]);
      });
  const int h_stopped = e0.register_handler(
      [&](Endpoint&, Token, const Word*, int) { stopped = true; });
  const int h_stop = e1.register_handler(
      [&, h_stopped](Endpoint& ep, Token tok, const Word*, int) {
        stop = true;
        ep.reply_1(tok, h_stopped, 0);
      });
  round.probe = {&world.engine(), &machine, {&e0, &e1}, {}};
  round.setup.transport_ns = now_ns() - t;

  std::uint64_t word_index = 0;
  const double warmup_start = now_ns();
  world.spawn(0, [&](spam::sim::NodeCtx& ctx) {
    auto work = [&](Fingerprint& fp) {
      const spam::sim::Time v0 = ctx.now();
      for (int i = 0; i < kPingpongBatch; ++i) {
        expected = static_cast<Word>(splitmix64(o.seed ^ ++word_index));
        const int want = pongs + 1;
        {
          SpanScope span(0, SpanKind::kSend);
          e0.request_1(1, h_ping, expected);
        }
        SpanScope span(0, SpanKind::kPoll);
        e0.poll_until([&] { return pongs >= want; });
      }
      fp.add(ctx.now() - v0);
    };
    auto verify = [&] {
      const bool ok = mismatches == 0;
      mismatches = 0;
      return ok;
    };
    round.run(work, verify, warmup_start);
    e0.request_1(1, h_stop, 0);
    e0.poll_until([&] { return stopped; });
  });
  world.spawn(1, [&](spam::sim::NodeCtx&) {
    e1.poll_until([&] { return stop; });
  });
  world.run();
}

// --- am_bulk: pipelined 64 KB store_async in 1 MB repetitions ---------------

constexpr std::size_t kBulkMsg = 64 * 1024;
constexpr std::size_t kBulkRep = 1 << 20;
constexpr std::size_t kBulkMsgsPerRep = kBulkRep / kBulkMsg;
constexpr int kBulkSamples = 100;

void bulk_round(const Options& o, RunResult& res) {
  using spam::am::Endpoint;
  using spam::am::Token;
  using spam::am::Word;
  Round round(o, res, kBulkSamples);
  std::vector<std::byte> src(kBulkRep);
  for (std::size_t i = 0; i < kBulkRep; i += 8) {
    const std::uint64_t x = splitmix64(o.seed ^ i);
    std::memcpy(src.data() + i, &x, sizeof x);
  }
  std::vector<std::byte> dst(kBulkRep);

  double t = now_ns();
  spam::sim::World world(2);
  round.setup.world_ns = now_ns() - t;
  t = now_ns();
  spam::sphw::SpMachine machine(world, hw_params(o));
  round.setup.machine_ns = now_ns() - t;
  t = now_ns();
  spam::am::AmNet net(machine);
  Endpoint& e0 = net.ep(0);
  Endpoint& e1 = net.ep(1);
  std::size_t landed = 0;
  std::size_t completions = 0;
  bool stop = false, stopped = false;
  const int h_landed = e1.register_bulk_handler(
      [&](Endpoint&, Token, void*, std::size_t len, Word) {
        SpanScope span(1, SpanKind::kHandler);
        landed += len;
      });
  const int h_stopped = e0.register_handler(
      [&](Endpoint&, Token, const Word*, int) { stopped = true; });
  const int h_stop = e1.register_handler(
      [&, h_stopped](Endpoint& ep, Token tok, const Word*, int) {
        stop = true;
        ep.reply_1(tok, h_stopped, 0);
      });
  round.probe = {&world.engine(), &machine, {&e0, &e1}, {}};
  round.setup.transport_ns = now_ns() - t;

  const double warmup_start = now_ns();
  world.spawn(0, [&](spam::sim::NodeCtx& ctx) {
    auto work = [&](Fingerprint& fp) {
      const spam::sim::Time v0 = ctx.now();
      const std::size_t want = completions + kBulkMsgsPerRep;
      for (std::size_t i = 0; i < kBulkMsgsPerRep; ++i) {
        SpanScope span(0, SpanKind::kSend);
        e0.store_async(1, dst.data() + i * kBulkMsg, src.data() + i * kBulkMsg,
                       kBulkMsg, h_landed, static_cast<Word>(i), [&] {
                         SpanScope done(0, SpanKind::kHandler);
                         ++completions;
                       });
      }
      {
        SpanScope span(0, SpanKind::kPoll);
        e0.poll_until([&] { return completions >= want; });
      }
      fp.add(ctx.now() - v0);
    };
    auto verify = [&] {
      const bool ok = landed == kBulkRep &&
                      std::memcmp(dst.data(), src.data(), kBulkRep) == 0;
      landed = 0;
      std::memset(dst.data(), 0, kBulkRep);
      return ok;
    };
    round.run(work, verify, warmup_start);
    e0.request_1(1, h_stop, 0);
    e0.poll_until([&] { return stopped; });
  });
  world.spawn(1, [&](spam::sim::NodeCtx&) {
    e1.poll_until([&] { return stop; });
  });
  world.run();
}

// --- splitc_radix_small: Split-C radix sort, small-message variant ----------

constexpr std::size_t kRadixKeys = 64 * 1024;
constexpr int kRadixSamples = 8;

void radix_round(const Options& o, RunResult& res) {
  Round round(o, res, kRadixSamples);
  spam::splitc::SplitCConfig cfg;
  cfg.nodes = 8;
  cfg.backend = spam::splitc::Backend::kSpAm;
  cfg.hw = hw_params(o);
  // SplitCWorld builds its world, machine and transport in one
  // constructor, so all three land in setup.world_ns.
  const double t = now_ns();
  spam::splitc::SplitCWorld w(cfg);
  round.setup.world_ns = now_ns() - t;
  round.probe.engine = &w.world().engine();
  round.probe.machine = w.sp_machine();
  for (int n = 0; n < w.size(); ++n) {
    round.probe.eps.push_back(
        &dynamic_cast<spam::splitc::AmBackend&>(w.rt(n).transport())
             .endpoint());
  }
  bool valid = false;
  auto work = [&](Fingerprint& fp) {
    const spam::apps::PhaseTimes pt = spam::apps::run_radix_sort(
        w, kRadixKeys, spam::apps::SortVariant::kSmallMessage, o.seed);
    fp.add_double(pt.total_s);
    fp.add(pt.checksum);
    valid = pt.valid;
  };
  round.run(work, [&] { return valid; }, now_ns());
}

// --- mpi_nas: NAS FT, MG, LU, BT, SP over MPI-AM (optimized) ----------------

constexpr int kNasN = 32;
constexpr int kNasLuN = 128;
constexpr int kNasSamples = 50;

void nas_round(const Options& o, RunResult& res) {
  Round round(o, res, kNasSamples);
  spam::mpi::MpiWorldConfig cfg;
  cfg.nodes = 4;
  cfg.impl = spam::mpi::MpiImpl::kAmOptimized;
  cfg.hw = hw_params(o);
  // As for Split-C: one constructor builds world, machine and transport.
  const double t = now_ns();
  spam::mpi::MpiWorld w(cfg);
  round.setup.world_ns = now_ns() - t;
  round.probe.engine = &w.world().engine();
  round.probe.machine = &w.machine();
  for (int n = 0; n < w.size(); ++n) {
    auto& dev = dynamic_cast<spam::mpi::MpiAm&>(w.mpi(n));
    round.probe.mpis.push_back(&dev);
    round.probe.eps.push_back(&dev.endpoint());
  }
  bool finished = false;
  auto kernel = [&](Fingerprint& fp, SpanKind kind, auto run) {
    SpanScope span(0, kind);
    const spam::apps::NasResult r = run();
    fp.add_double(r.time_s);
    fp.add_double(r.checksum);
    finished = finished && r.finished;
  };
  auto work = [&](Fingerprint& fp) {
    finished = true;
    kernel(fp, SpanKind::kFt, [&] { return spam::apps::run_ft(w, kNasN, 1); });
    kernel(fp, SpanKind::kMg, [&] { return spam::apps::run_mg(w, kNasN, 1); });
    kernel(fp, SpanKind::kLu, [&] { return spam::apps::run_lu(w, kNasLuN, 1); });
    kernel(fp, SpanKind::kBt, [&] { return spam::apps::run_bt(w, kNasN, 1); });
    kernel(fp, SpanKind::kSp, [&] { return spam::apps::run_sp(w, kNasN, 1); });
  };
  round.run(work, [&] { return finished; }, now_ns());
}

}  // namespace

RunResult run_workload(const Options& o) {
  void (*round)(const Options&, RunResult&) = nullptr;
  int nodes = 0;
  if (o.workload == "am_pingpong") {
    round = pingpong_round;
    nodes = 2;
  } else if (o.workload == "am_bulk") {
    round = bulk_round;
    nodes = 2;
  } else if (o.workload == "splitc_radix_small") {
    round = radix_round;
    nodes = 8;
  } else if (o.workload == "mpi_nas") {
    round = nas_round;
    nodes = 4;
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
  RunResult res;
  if (o.trace) res.tracer = std::make_unique<Tracer>(nodes);
  const double t0 = now_ns();
  while (static_cast<int>(res.setups.size()) < kMinRounds ||
         (now_ns() - t0) * 1e-9 < o.seconds) {
    round(o, res);
    // Later rounds repeat the same work, but the allocator hands each new
    // world's fiber stacks out at shifted offsets of the freed ones, so the
    // process's peak grows with the number of rounds, i.e. with host speed.
    // One world's whole lifetime in a fresh process is the stable figure.
    if (res.setups.size() == 1) res.peak_rss_mib = peak_rss_mib();
  }
  return res;
}

}  // namespace perfbench
