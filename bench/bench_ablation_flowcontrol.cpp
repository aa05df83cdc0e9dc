// Ablation: the flow-control design choices of SP AM (section 2.2).
// Sweeps chunk size, window size, doorbell batching, and the lazy-pop
// batch, reporting their effect on bulk bandwidth and one-word round-trip.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "micro.hpp"

namespace {

enum Knob { kChunk, kWindow, kDoorbell, kLazyPop };

/// 1 MB async-store bandwidth with one knob at `v`, everything else default.
double bw_with(Knob knob, int v) {
  spam::am::AmParams amp;
  spam::sphw::SpParams hw = spam::sphw::SpParams::thin_node();
  switch (knob) {
    case kChunk:  // keep the window at two chunks, as the protocol requires
      amp.chunk_packets = v;
      amp.request_window_packets = 2 * v;
      amp.reply_window_packets = 2 * v + 4;
      break;
    case kWindow:
      amp.request_window_packets = v;
      amp.reply_window_packets = v + 4;
      break;
    case kDoorbell:
      amp.doorbell_batch_packets = v;
      break;
    case kLazyPop:
      hw.lazy_pop_batch = v;
      break;
  }
  return spam::bench::am_bandwidth_mbps(
      spam::bench::AmBwMode::kPipelinedAsyncStore, 1 << 20, hw, amp);
}

struct KnobSweep {
  Knob knob;
  const char* label;
  int dflt;                 // the setting bw_with maps to all-default params
  std::vector<int> swept;   // every setting measured
  std::vector<int> tabled;  // the settings the table lists
};

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  const spam::am::AmParams am_dflt;
  const std::vector<KnobSweep> sweeps = {
      {kChunk, "chunk packets (window = 2 chunks)", am_dflt.chunk_packets,
       {4, 9, 18, 36, 72}, {4, 9, 18, 36, 72}},
      {kWindow, "window packets (chunk = 36)", am_dflt.request_window_packets,
       {36, 72, 108, 144}, {36, 72, 144}},
      {kDoorbell, "doorbell batch", am_dflt.doorbell_batch_packets,
       {1, 2, 4, 8, 36}, {1, 4, 36}},
      {kLazyPop, "lazy-pop batch",
       spam::sphw::SpParams::thin_node().lazy_pop_batch, {1, 4, 8, 32},
       {1, 8, 32}},
  };
  const int rtt_windows[] = {8, 72, 144};

  // Points: the all-default configuration once (every knob's default
  // setting is that same configuration), each knob's other settings, then
  // the one-word round-trip per window.
  std::vector<std::function<double()>> points{
      [&] { return bw_with(kChunk, am_dflt.chunk_packets); }};
  std::map<std::pair<Knob, int>, std::size_t> slot;
  for (const KnobSweep& k : sweeps) {
    for (int s : k.swept) {
      slot[{k.knob, s}] = s == k.dflt ? 0 : points.size();
      if (s != k.dflt) points.push_back([&k, s] { return bw_with(k.knob, s); });
    }
  }
  const std::size_t rtt_base = points.size();
  for (int w : rtt_windows) {
    points.push_back([w] {
      spam::am::AmParams amp;
      amp.request_window_packets = w;
      amp.reply_window_packets = w + 4;
      return spam::bench::am_rtt_us(1, spam::sphw::SpParams::thin_node(), amp);
    });
  }
  const std::vector<double> v = spam::bench::sweep(points);
  const auto bw = [&](Knob knob, int setting) {
    return spam::report::fmt(v[slot.at({knob, setting})]);
  };

  spam::report::Table tab("Flow-control ablations (1 MB async store)");
  tab.set_header({"knob", "setting", "bandwidth (MB/s)"});
  for (const KnobSweep& k : sweeps) {
    for (int s : k.tabled) {
      tab.add_row({k.label, std::to_string(s), bw(k.knob, s)});
    }
  }
  spam::bench::emit(tab);

  std::printf("\nSettings measured but not tabled (MB/s):\n");
  for (const KnobSweep& k : sweeps) {
    for (int s : k.swept) {
      if (std::find(k.tabled.begin(), k.tabled.end(), s) == k.tabled.end()) {
        std::printf("  %s %d: %s\n", k.label, s, bw(k.knob, s).c_str());
      }
    }
  }
  std::printf("One-word round-trip (us) by window packets:");
  for (std::size_t i = 0; i < std::size(rtt_windows); ++i) {
    std::printf("%s %d: %s", i == 0 ? "" : ",", rtt_windows[i],
                spam::report::fmt(v[rtt_base + i]).c_str());
  }
  std::printf("\n");
  std::printf(
      "\nDesign-choice reading: a one-chunk window stalls the pipeline "
      "(chunk N needs the\nack of chunk N-2); per-packet doorbells and "
      "per-packet pops burn a ~1 us\nMicroChannel access each, which is why "
      "the paper batches both.\n");
  return spam::bench::harness_finish();
}
