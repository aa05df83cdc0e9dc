// Extension: (a) bidirectional *exchange* bandwidth — the companion
// measurement the paper's TR reports (footnote 3) — and (b) the AM
// microbenchmark summary on wide nodes (the paper quotes thin nodes only).
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <vector>

#include "harness.hpp"
#include "micro.hpp"

namespace {

/// Both nodes stream `total` bytes at each other simultaneously with
/// pipelined async stores; reports the per-node send bandwidth.
double exchange_bandwidth_mbps(std::size_t piece,
                               spam::sphw::SpParams hw) {
  spam::sim::World world(2);
  spam::sphw::SpMachine machine(world, hw);
  spam::am::AmNet net(machine);
  const std::size_t total = 1 << 20;
  const std::size_t count = total / piece;
  std::vector<std::byte> src(piece, std::byte{0x11});
  std::vector<std::byte> d0(piece, std::byte{0});
  std::vector<std::byte> d1(piece, std::byte{0});
  std::size_t done[2] = {0, 0};
  spam::sim::Time finish[2] = {0, 0};

  for (int r = 0; r < 2; ++r) {
    world.spawn(r, [&, r](spam::sim::NodeCtx& ctx) {
      auto& ep = net.ep(r);
      auto* dst = r == 0 ? d1.data() : d0.data();
      for (std::size_t i = 0; i < count; ++i) {
        ep.store_async(1 - r, dst, src.data(), piece, 0, 0,
                       [&, r] { ++done[r]; });
      }
      // done[1 - r] is the peer's: a cross-node wait polls one quantum at
      // a time (Endpoint::poll_until's contract).
      while (done[0] != count || done[1] != count) ep.poll();
      finish[r] = ctx.now();
    });
  }
  world.run();
  const double secs =
      spam::sim::to_sec(std::max(finish[0], finish[1]));
  return static_cast<double>(total) / secs / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  const auto thin = spam::sphw::SpParams::thin_node();
  const auto wide = spam::sphw::SpParams::wide_node();
  const auto async_store = spam::bench::AmBwMode::kPipelinedAsyncStore;
  const std::size_t pieces[] = {1024, 8192, 65536};

  // Points: per piece size, one-way (thin), exchange (thin), exchange
  // (wide); then per node type, the round-trip and 1 MB bandwidth.
  std::vector<std::function<double()>> points;
  for (std::size_t piece : pieces) {
    points.push_back([=] {
      return spam::bench::am_bandwidth_mbps(async_store, piece, thin, {});
    });
    points.push_back([=] { return exchange_bandwidth_mbps(piece, thin); });
    points.push_back([=] { return exchange_bandwidth_mbps(piece, wide); });
  }
  for (const spam::sphw::SpParams& hw : {thin, wide}) {
    points.push_back([=] { return spam::bench::am_rtt_us(1, hw); });
    points.push_back([=] {
      return spam::bench::am_bandwidth_mbps(async_store, 1 << 20, hw, {});
    });
  }
  const std::vector<double> v = spam::bench::sweep(points);
  using spam::report::fmt;

  spam::report::Table ex(
      "Extension — bidirectional exchange bandwidth per node (MB/s)");
  ex.set_header({"piece bytes", "one-way (thin)", "exchange (thin)",
                 "exchange (wide)"});
  for (std::size_t i = 0; i < std::size(pieces); ++i) {
    ex.add_row({std::to_string(pieces[i]), fmt(v[3 * i]), fmt(v[3 * i + 1]),
                fmt(v[3 * i + 2])});
  }
  spam::bench::emit(ex);

  spam::report::Table am(
      "Extension — AM microbenchmarks, thin vs wide nodes");
  am.set_header({"metric", "thin", "wide"});
  am.add_row({"one-word round-trip (us)", fmt(v[9]), fmt(v[11])});
  am.add_row({"async-store r-inf (MB/s)", fmt(v[10]), fmt(v[12])});
  spam::bench::emit(am);

  std::printf(
      "\nReading: exchange bandwidth stays near the one-way rate — the "
      "links are\nfull-duplex and the adapter rx/tx pipelines are "
      "independent; the receiver's CPU\nbudget (copies + acks) is the "
      "contended resource.  Wide nodes shave host-side\ncosts, helping "
      "latency slightly and bandwidth marginally (the link still "
      "binds).\n");
  return spam::bench::harness_finish();
}
