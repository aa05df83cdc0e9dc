// Exact host-cost counts of the paper's workloads, pinned.
//
// Each row runs one workload in the default mode (network fast path and
// local clocks on), warms it up, measures one fixed batch and requires:
//   - exact executed engine events, fiber resumes (Fiber::resume_count()
//     delta) and packets sent by the adapters.  The simulation is
//     deterministic, so these are regression gates with a tolerance of 0:
//     a change to the event core, the fast path or a protocol that moves
//     host work moves a count;
//   - the exact virtual result, in ns.  For pingpong and bulk it is the
//     paper anchor (51.3418 us round trip, 34.2020 MB/s; see
//     PaperAnchors below);
//   - zero growth of the engine's event-node pool, InlineAction heap
//     fallbacks, the payload arena and the World's fiber stacks over the
//     batch: steady state never allocates.  The app rows launch a fiber
//     per node inside the batch, so the stack pin holds only because a
//     finished fiber's stack is reused.
//
// Wall time is not judged here; perfbench measures it per packet next to
// these same counts.  After an intended change to a count, update its row.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "am/net.hpp"
#include "apps/nas.hpp"
#include "apps/splitc_apps.hpp"
#include "mpif/mpi_world.hpp"
#include "sim/fiber.hpp"
#include "sim/world.hpp"
#include "sphw/machine.hpp"
#include "sphw/payload.hpp"
#include "splitc/splitc_world.hpp"

namespace spam {
namespace {

/// What one measured batch costs.  Every field is exact.
struct Counts {
  std::uint64_t events = 0;    // engine events executed
  std::uint64_t switches = 0;  // fiber resumes
  std::uint64_t packets = 0;   // adapter tx_packets over all nodes
  sim::Time virt_ns = 0;       // the workload's virtual result
};

/// Brackets the measured batch on one machine: the constructor snapshots
/// every counter, end() checks the allocation counters did not grow and
/// returns the deltas of the rest with the batch's virtual result.
class Batch {
 public:
  explicit Batch(sphw::SpMachine& machine)
      : machine_(machine), begin_(take()) {}

  Counts end(sim::Time virt_ns) const {
    const Snapshot s = take();
    EXPECT_EQ(s.event_nodes, begin_.event_nodes) << "event-node pool grew";
    EXPECT_EQ(s.heap_actions, begin_.heap_actions)
        << "InlineAction fell back to the heap";
    EXPECT_EQ(s.payload_buffers, begin_.payload_buffers)
        << "payload arena grew";
    EXPECT_EQ(s.fiber_stacks, begin_.fiber_stacks) << "fiber stacks grew";
    return {s.events - begin_.events, s.switches - begin_.switches,
            s.packets - begin_.packets, virt_ns};
  }

 private:
  struct Snapshot {
    std::uint64_t events, switches, packets;
    std::uint64_t event_nodes, heap_actions, payload_buffers;
    std::size_t fiber_stacks;
  };

  Snapshot take() const {
    sim::World& world = machine_.world();
    sim::Engine& engine = world.engine();
    std::uint64_t packets = 0;
    for (int n = 0; n < machine_.size(); ++n) {
      packets += machine_.adapter(n).stats().tx_packets;
    }
    const sim::Engine::PoolStats pool = engine.pool_stats();
    return {engine.events_executed(), sim::Fiber::resume_count(), packets,
            pool.nodes_allocated, pool.action_heap_fallbacks,
            sphw::PayloadPool::instance().stats().buffers_allocated,
            world.fiber_stacks()};
  }

  sphw::SpMachine& machine_;
  Snapshot begin_;
};

// --- Microbenchmarks: a 2-node thin-node machine under SP AM ----------------

constexpr int kPingPongWarm = 50;
constexpr int kPingPongIters = 2000;
constexpr int kBulkWarm = 1;
constexpr int kBulkReps = 4;
constexpr std::size_t kBulkMsg = 64 * 1024;
constexpr std::size_t kBulkStream = 1 << 20;

struct Pair {
  sim::World world{2};
  sphw::SpMachine machine{world, sphw::SpParams::thin_node()};
  am::AmNet net{machine};
};

// Section 2.3: 1-word request_1/reply_1 round trips; the virtual result is
// the time of all measured round trips.
Counts pingpong() {
  Pair p;
  am::Endpoint& e0 = p.net.ep(0);
  am::Endpoint& e1 = p.net.ep(1);
  int pongs = 0;
  const int h_pong = e0.register_handler(
      [&](am::Endpoint&, am::Token, const am::Word*, int) { ++pongs; });
  const int h_ping = e1.register_handler(
      [h_pong](am::Endpoint& ep, am::Token t, const am::Word* a, int) {
        ep.reply_1(t, h_pong, a[0]);
      });
  Counts c;
  p.world.spawn(0, [&](sim::NodeCtx& ctx) {
    auto round_trip = [&] {
      const int want = pongs + 1;
      e0.request_1(1, h_ping, 1);
      e0.poll_until([&] { return pongs >= want; });
    };
    for (int i = 0; i < kPingPongWarm; ++i) round_trip();
    const Batch batch(p.machine);
    const sim::Time t0 = ctx.now();
    for (int i = 0; i < kPingPongIters; ++i) round_trip();
    c = batch.end(ctx.now() - t0);
  });
  p.world.spawn(1, [&](sim::NodeCtx&) {
    e1.poll_until([&] { return pongs >= kPingPongWarm + kPingPongIters; });
  });
  p.world.run();
  return c;
}

// Section 2.4: 1 MB streams of pipelined 64 KB store_async operations; the
// virtual result is the time of all measured streams.
Counts bulk() {
  constexpr std::size_t kMsgsPerStream = kBulkStream / kBulkMsg;
  Pair p;
  am::Endpoint& e0 = p.net.ep(0);
  am::Endpoint& e1 = p.net.ep(1);
  std::vector<std::byte> src(kBulkMsg, std::byte{0x5a});
  std::vector<std::byte> dst(kBulkStream);
  bool done = false;
  Counts c;
  p.world.spawn(0, [&](sim::NodeCtx& ctx) {
    std::size_t completions = 0;
    auto stream = [&] {
      const std::size_t want = completions + kMsgsPerStream;
      for (std::size_t i = 0; i < kMsgsPerStream; ++i) {
        e0.store_async(1, dst.data() + i * kBulkMsg, src.data(), kBulkMsg, 0,
                       0, [&] { ++completions; });
      }
      e0.poll_until([&] { return completions >= want; });
    };
    for (int i = 0; i < kBulkWarm; ++i) stream();
    const Batch batch(p.machine);
    const sim::Time t0 = ctx.now();
    for (int i = 0; i < kBulkReps; ++i) stream();
    c = batch.end(ctx.now() - t0);
    done = true;
  });
  p.world.spawn(1, [&](sim::NodeCtx&) {
    e1.poll_until([&] { return done; });
  });
  p.world.run();
  return c;
}

// --- Table 5 Split-C apps (8 nodes) and Table 6 NAS kernels (4 nodes) -------
//
// Each app runs four times in one world and the fourth run is measured.
// Later runs start at a nonzero virtual time, so their event patterns
// differ slightly from the first, and a pool can reach its high-water mark
// late: rdxsort_bulk's payload arena takes its last buffer in the third
// run.

constexpr std::size_t kKeys = 8 * 1024;
constexpr int kMmBlocks = 4;
constexpr int kMmBlockDim = 32;
constexpr int kNasN = 16;
constexpr int kNasLuN = 64;

// App results are to_sec() of an integer virtual time; this inverts it.
sim::Time virt_ns(double s) {
  return static_cast<sim::Time>(std::llround(s * 1e9));
}

sim::Time virt_ns(const apps::PhaseTimes& pt) {
  EXPECT_TRUE(pt.valid);
  return virt_ns(pt.total_s);
}

sim::Time virt_ns(const apps::NasResult& nr) {
  EXPECT_TRUE(nr.finished);
  return virt_ns(nr.time_s);
}

template <typename Run>
Counts fourth_run(sphw::SpMachine& machine, Run run) {
  for (int i = 0; i < 3; ++i) run();
  const Batch batch(machine);
  const sim::Time virt = run();
  return batch.end(virt);
}

template <typename App>
Counts splitc_app(App app) {
  splitc::SplitCConfig cfg;
  cfg.nodes = 8;
  cfg.backend = splitc::Backend::kSpAm;
  splitc::SplitCWorld w(cfg);
  return fourth_run(*w.sp_machine(), [&] { return virt_ns(app(w)); });
}

template <typename Kernel>
Counts nas_kernel(Kernel kernel, int n) {
  mpi::MpiWorldConfig cfg;
  cfg.nodes = 4;
  cfg.impl = mpi::MpiImpl::kAmOptimized;
  mpi::MpiWorld w(cfg);
  return fourth_run(w.machine(), [&] { return virt_ns(kernel(w, n, 1)); });
}

using apps::SortVariant;

Counts mm() {
  return splitc_app([](splitc::SplitCWorld& w) {
    return apps::run_matmul(w, kMmBlocks, kMmBlockDim);
  });
}
Counts smpsort_small() {
  return splitc_app([](splitc::SplitCWorld& w) {
    return apps::run_sample_sort(w, kKeys, SortVariant::kSmallMessage);
  });
}
Counts smpsort_bulk() {
  return splitc_app([](splitc::SplitCWorld& w) {
    return apps::run_sample_sort(w, kKeys, SortVariant::kBulk);
  });
}
Counts rdxsort_small() {
  return splitc_app([](splitc::SplitCWorld& w) {
    return apps::run_radix_sort(w, kKeys, SortVariant::kSmallMessage);
  });
}
Counts rdxsort_bulk() {
  return splitc_app([](splitc::SplitCWorld& w) {
    return apps::run_radix_sort(w, kKeys, SortVariant::kBulk);
  });
}
Counts nas_ft() { return nas_kernel(apps::run_ft, kNasN); }
Counts nas_mg() { return nas_kernel(apps::run_mg, kNasN); }
Counts nas_lu() { return nas_kernel(apps::run_lu, kNasLuN); }
Counts nas_bt() { return nas_kernel(apps::run_bt, kNasN); }
Counts nas_sp() { return nas_kernel(apps::run_sp, kNasN); }

// --- The pins ----------------------------------------------------------------

struct Row {
  const char* name;
  Counts (*run)();
  Counts want;  // events, switches, packets, virt_ns
};

// Test names print the row name, not the bytes of its pointers.
void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

const Row kRows[] = {
    {"pingpong", pingpong, {15766, 11766, 4000, 102683600}},
    {"bulk", bulk, {73543, 54215, 19328, 122633164}},
    {"mm", mm, {68410, 10391, 3308, 26389936}},
    {"smpsort_small", smpsort_small, {88446, 57668, 15224, 18194164}},
    {"smpsort_bulk", smpsort_bulk, {13803, 4406, 1081, 2763512}},
    {"rdxsort_small", rdxsort_small, {317118, 221222, 59024, 65787898}},
    {"rdxsort_bulk", rdxsort_bulk, {47880, 12556, 3542, 9236014}},
    {"nas_ft", nas_ft, {1923, 815, 291, 2595662}},
    {"nas_mg", nas_mg, {2002, 947, 264, 1620358}},
    {"nas_lu", nas_lu, {2520, 385, 86, 1106466}},
    {"nas_bt", nas_bt, {2261, 855, 242, 6764383}},
    {"nas_sp", nas_sp, {5588, 1386, 330, 5057766}},
};

class HostCounts : public ::testing::TestWithParam<Row> {};

TEST_P(HostCounts, MeasuredBatchMatchesPins) {
  const Row& row = GetParam();
  const Counts got = row.run();
  EXPECT_EQ(got.events, row.want.events) << "executed events";
  EXPECT_EQ(got.switches, row.want.switches) << "fiber switches";
  EXPECT_EQ(got.packets, row.want.packets) << "adapter tx packets";
  EXPECT_EQ(got.virt_ns, row.want.virt_ns) << "virtual result (ns)";
}

INSTANTIATE_TEST_SUITE_P(Workloads, HostCounts, ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

const Row& row(const char* name) {
  for (const Row& r : kRows) {
    if (std::strcmp(r.name, name) == 0) return r;
  }
  ADD_FAILURE() << "no row " << name;
  return kRows[0];
}

std::string fixed4(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

// The pingpong and bulk pins are the paper's headline anchors, so a pin
// can't be updated without the anchor visibly moving too.
TEST(PaperAnchors, PinnedMicrobenchmarksAreTheHeadlines) {
  const double rtt_us =
      sim::to_usec(row("pingpong").want.virt_ns) / kPingPongIters;
  EXPECT_EQ(fixed4(rtt_us), "51.3418");
  const double bulk_mbps = static_cast<double>(kBulkStream) * kBulkReps /
                           sim::to_sec(row("bulk").want.virt_ns) / 1e6;
  EXPECT_EQ(fixed4(bulk_mbps), "34.2020");
}

}  // namespace
}  // namespace spam
