// Extension: interrupt-driven reception vs polling (the paper notes the
// mode exists but analyzes polling only).  Quantifies the trade the paper's
// choice implies: polling gives minimum latency when the receiver is
// attentive; interrupts bound response time during long computations at a
// per-message premium.
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "micro.hpp"

namespace {

using spam::am::AmParams;

/// Round-trip when the responder sits in poll_until (attentive).
double attentive_rtt_us(bool interrupts) {
  AmParams amp;
  amp.interrupt_driven = interrupts;
  return spam::bench::am_rtt_us(1, spam::sphw::SpParams::thin_node(), amp);
}

/// Mean response time when the responder is busy computing in 5 ms slices.
double busy_response_us(bool interrupts) {
  AmParams amp;
  amp.interrupt_driven = interrupts;
  spam::sim::World world(2);
  spam::sphw::SpMachine machine(world, spam::sphw::SpParams::thin_node());
  spam::am::AmNet net(machine, amp);
  spam::am::Endpoint& e0 = net.ep(0);
  spam::am::Endpoint& e1 = net.ep(1);

  int pongs = 0;
  const int h_pong = e0.register_handler(
      [&](spam::am::Endpoint&, spam::am::Token, const spam::am::Word*, int) {
        ++pongs;
      });
  const int h_ping = e1.register_handler(
      [&](spam::am::Endpoint& ep, spam::am::Token t, const spam::am::Word* a,
          int) { ep.reply_1(t, h_pong, a[0]); });

  constexpr int kMsgs = 8;
  spam::sim::Time total = 0;
  bool stop = false;
  world.spawn(0, [&](spam::sim::NodeCtx& ctx) {
    const spam::sim::Time t0 = ctx.now();
    for (int i = 0; i < kMsgs; ++i) {
      const int want = pongs + 1;
      e0.request_1(1, h_ping, static_cast<spam::am::Word>(i));
      e0.poll_until([&] { return pongs >= want; });
    }
    total = ctx.now() - t0;
    stop = true;
  });
  world.spawn(1, [&](spam::sim::NodeCtx&) {
    // The responder "computes" the whole time; only interrupts (or the
    // compute slice boundaries, where it polls once) service requests.
    while (!stop) {
      e1.compute(5000.0);
      e1.poll();
    }
  });
  world.run();
  return spam::sim::to_usec(total) / kMsgs;
}

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);

  const std::vector<double> us = spam::bench::sweep<double>(
      {[] { return attentive_rtt_us(false); },
       [] { return attentive_rtt_us(true); },
       [] { return busy_response_us(false); },
       [] { return busy_response_us(true); }});

  spam::report::Table tab(
      "Extension — polling vs interrupt-driven reception");
  tab.set_header({"scenario", "polling", "interrupt-driven"});
  tab.add_row({"round-trip, attentive responder (us)",
               spam::report::fmt(us[0]), spam::report::fmt(us[1])});
  tab.add_row({"round-trip, responder computing 5 ms slices (us)",
               spam::report::fmt(us[2]), spam::report::fmt(us[3])});
  spam::bench::emit(tab);
  std::printf(
      "\nReading: with an attentive responder polling wins (no interrupt "
      "cost on the\ncritical path); when the responder computes, polling "
      "defers responses to slice\nboundaries while interrupts bound them "
      "near RTT + interrupt latency — the trade\nthe paper sidesteps by "
      "polling everywhere.\n");
  return spam::bench::harness_finish();
}
