#include "sphw/adapter.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/hot.hpp"
#include "sim/trace.hpp"
#include "sphw/switch.hpp"

namespace spam::sphw {

namespace {
sim::Time ceil_us(double us) { return sim::usec(us); }

// The floors below take each pipeline stage of submit_to_tx_pipeline and
// deliver_from_switch at its least duration, that of a header-only packet
// (transfer_time grows with the byte count); a stage never starts before
// the previous one ends.
sim::Time min_dma(const SpParams& p) {
  return ceil_us(p.dma_setup_us) +
         sim::transfer_time(static_cast<std::uint32_t>(p.packet_header_bytes),
                            p.mc_dma_mbps);
}

// Doorbell (submit) -> the packet has left the sender's link.
sim::Time tx_floor(const SpParams& p) {
  return min_dma(p) + ceil_us(p.i860_tx_us) +
         sim::transfer_time(static_cast<std::uint32_t>(p.packet_header_bytes),
                            p.link_mbps);
}

// Link done -> host-visible at the destination.
sim::Time switch_floor(const SpParams& p) {
  return sim::usec(p.hop_latency_us) + ceil_us(p.i860_rx_us) + min_dma(p);
}

sim::Time saturating_add(sim::Time a, sim::Time b) {
  return a > sim::kTimeNever - b ? sim::kTimeNever : a + b;
}
}  // namespace

Tb2Adapter::Tb2Adapter(sim::Engine& engine, SwitchFabric& fabric, int node,
                       const SpParams& params, int active_nodes)
    : engine_(engine),
      fabric_(fabric),
      node_(node),
      params_(params),
      tx_floor_(tx_floor(params)),
      switch_floor_(switch_floor(params)),
      rx_fifo_capacity_(params.recv_fifo_entries_per_node *
                        std::max(1, active_nodes)) {
  fabric_.attach(node, this);
}

SPAM_HOT void Tb2Adapter::settle_send_fifo() {
  // Lazy replacement for the per-entry FIFO-free event: per-hop mode's
  // event at tx_dma_free_ always runs before any same-instant observation
  // (the observer's wake was scheduled later, so it has a larger seq),
  // which is exactly the `<= now` settle below.
  const sim::Time now = engine_.now();
  while (!fifo_free_at_.empty() && fifo_free_at_.front() <= now) {
    fifo_free_at_.pop_front();
    --send_fifo_used_;
    engine_.note_elided(1);  // the FIFO-free event per-hop mode schedules
  }
}

SPAM_HOT void Tb2Adapter::host_enqueue(sim::NodeCtx& ctx, Packet pkt,
                              int doorbell_npackets, sim::Time lead_charge) {
  assert(doorbell_npackets >= 0);
  assert(host_send_space() && "send FIFO overflow: caller must check space");
  assert(pkt.payload_bytes <=
         static_cast<std::uint32_t>(params_.packet_data_bytes));
  pkt.src = static_cast<std::int16_t>(node_);

  // Host writes the entry into the memory-resident FIFO, then flushes the
  // touched cache lines (the memory bus is not coherent).
  const std::uint32_t entry_bytes = pkt.wire_bytes(params_);
  const int lines =
      (static_cast<int>(entry_bytes) + params_.cache_line_bytes - 1) /
      params_.cache_line_bytes;
  const sim::Time store_cost =
      ceil_us(entry_bytes * params_.host_write_us_per_byte +
              lines * params_.flush_line_us);

  // The caller's lead charge, the FIFO store and (when ringing now) the
  // doorbell's MicroChannel access are one host operation, charged as ONE
  // elapse of the summed cost: the FIFO push is fiber-local and the submit
  // happens at the doorbell instant, so nothing observable lies between.
  sim::Time total = lead_charge + store_cost;
  if (doorbell_npackets > 0) total += ceil_us(params_.mc_access_us);
  ctx.elapse(total);
  ++send_fifo_used_;
  // spam-lint: capacity-ok (bounded by the send-FIFO depth; the deque
  // keeps its chunks across the steady-state fill/drain cycle)
  awaiting_doorbell_.push_back(std::move(pkt));
  if (doorbell_npackets > 0) ring_doorbell(doorbell_npackets);
}

SPAM_HOT void Tb2Adapter::host_doorbell(sim::NodeCtx& ctx, int npackets) {
  // One store across the MicroChannel covers several length-array slots.
  ctx.elapse(ceil_us(params_.mc_access_us));
  ring_doorbell(npackets);
}

SPAM_HOT void Tb2Adapter::ring_doorbell(int npackets) {
  assert(npackets > 0 &&
         npackets <= static_cast<int>(awaiting_doorbell_.size()));
  ++stats_.doorbells;
  for (int i = 0; i < npackets; ++i) {
    submit_to_tx_pipeline(std::move(awaiting_doorbell_.front()));
    awaiting_doorbell_.pop_front();
  }
}

SPAM_HOT void Tb2Adapter::submit_to_tx_pipeline(Packet pkt) {
  const sim::Time now = engine_.now();
  const std::uint32_t bytes = pkt.wire_bytes(params_);

  // Stage 1: MicroChannel DMA fetch of the FIFO entry.
  const sim::Time dma_start = std::max(now, tx_dma_free_);
  tx_dma_free_ = dma_start + ceil_us(params_.dma_setup_us) +
                 sim::transfer_time(bytes, params_.mc_dma_mbps);
  // The send-FIFO entry is reusable once the adapter has fetched it.
  if (engine_.fastpath()) {
    // Settled lazily in host_send_space()/host_send_free(), the only
    // observers — no event needed.
    // spam-lint: capacity-ok (bounded by the send-FIFO depth)
    fifo_free_at_.push_back(tx_dma_free_);
  } else {
    engine_.at(tx_dma_free_, [this] { --send_fifo_used_; });
  }

  // Stage 2: i860 firmware processing.
  const sim::Time i860_start = std::max(tx_dma_free_, tx_i860_free_);
  tx_i860_free_ = i860_start + ceil_us(params_.i860_tx_us);

  // Stage 3: link serialization out of the MSMU.
  const sim::Time link_start = std::max(tx_i860_free_, link_free_);
  link_free_ = link_start + sim::transfer_time(bytes, params_.link_mbps);

  ++stats_.tx_packets;
  stats_.tx_bytes += bytes;

  sim::Trace::log(sim::TraceCat::kAdapter, now,
                  "node%d tx pkt dst=%d ch=%u seq=%u bytes=%u departs=%.3f",
                  node_, pkt.dst, pkt.channel, pkt.seq, bytes,
                  sim::to_usec(link_free_));

  assert(pkt.dst >= 0 && pkt.dst < fabric_.size());
  Tb2Adapter* dst = fabric_.peer(pkt.dst);
  const sim::Time t_link = link_free_;
  if (engine_.fastpath() && !fabric_.has_drop_fn()) {
    // Same arithmetic as transmit()'s `after(usec(hop_latency_us))` at the
    // depart instant.
    const sim::Time t_hop = t_link + sim::usec(params_.hop_latency_us);
    if (dst->try_engage_fused(pkt, t_link, t_hop)) return;
  }
  dst->note_slow_inflight();
  auto depart = [this, p = std::move(pkt)]() mutable {
    fabric_.transmit(std::move(p));
  };
  static_assert(sim::InlineAction::fits_inline<decltype(depart)>,
                "hot TX closure must not heap-allocate");
  engine_.at(t_link, std::move(depart));
}

SPAM_HOT bool Tb2Adapter::try_engage_fused(Packet& pkt, sim::Time t_link,
                                           sim::Time t_hop) {
  // A per-hop packet in flight toward us applies its rx-clock updates only
  // at its hop event, so a submit-time computation would miss it.
  if (pending_slow_ > 0) return false;
  // Reservations with a later switch exit conflict: this packet's rx
  // occupancy precedes theirs, so they fall back to per-hop (their hop
  // instants are beyond t_hop, hence still ahead — reschedulable exactly).
  rollback_fused_after(t_hop);

  const std::uint32_t bytes = pkt.wire_bytes(params_);
  const sim::Time pre_i860 = rx_i860_free_;
  const sim::Time pre_dma = rx_dma_free_;
  // Bit-identical to deliver_from_switch() running at now == t_hop: same
  // sim::Time operations in the same order.
  const sim::Time i860_start = std::max(t_hop, rx_i860_free_);
  rx_i860_free_ = i860_start + ceil_us(params_.i860_rx_us);
  const sim::Time dma_start = std::max(rx_i860_free_, rx_dma_free_);
  rx_dma_free_ = dma_start + ceil_us(params_.dma_setup_us) +
                 sim::transfer_time(bytes, params_.mc_dma_mbps);

  const std::uint64_t serial = next_fused_serial_++;
  // spam-lint: capacity-ok (bounded by in-flight packets; the deque keeps
  // its chunks across the steady-state engage/complete cycle)
  fused_.push_back(FusedReservation{serial, t_link, t_hop, pre_i860, pre_dma,
                                    rx_dma_free_, std::move(pkt)});
  auto fused = [this, serial] { fused_arrival(serial); };
  static_assert(sim::InlineAction::fits_inline<decltype(fused)>,
                "hot fused closure must not heap-allocate");
  engine_.at(rx_dma_free_, std::move(fused));
  engine_.note_elided(2);  // the depart and hop events, proven away
  return true;
}

SPAM_HOT void Tb2Adapter::fused_arrival(std::uint64_t serial) {
  // Serials are never reused: a mismatch means this reservation was rolled
  // back mid-flight and its packet is travelling per-hop instead (the
  // rollback's elide ledger already paid for this no-op pop).
  if (fused_.empty() || fused_.front().serial != serial) return;
  FusedReservation r = std::move(fused_.front());
  fused_.pop_front();
  fabric_.note_fused_delivered();
  ++stats_.fused_deliveries;
  complete_rx(std::move(r.pkt));
}

SPAM_HOT void Tb2Adapter::rollback_fused_suffix(std::size_t keep) {
  if (keep >= fused_.size()) return;
  const sim::Time now = engine_.now();
  // Net LIFO clock restore: back out every rolled reservation at once.
  rx_i860_free_ = fused_[keep].pre_i860;
  rx_dma_free_ = fused_[keep].pre_dma;
  // Reschedule real events in engagement order so same-instant departs
  // keep their per-hop relative sequence.
  for (std::size_t i = keep; i < fused_.size(); ++i) {
    FusedReservation& r = fused_[i];
    ++stats_.fused_rollbacks;
    ++pending_slow_;  // from here on it is a per-hop in-flight packet
    if (r.t_link >= now) {
      // Depart instant still ahead: replay it in full, fault-hook check
      // included.  Elide ledger: depart and hop become real again (-2) and
      // the cancelled fused event will pop as a no-op (-1).
      engine_.note_elided(-3);
      auto depart = [fab = &fabric_, p = std::move(r.pkt)]() mutable {
        fab->transmit(std::move(p));
      };
      static_assert(sim::InlineAction::fits_inline<decltype(depart)>,
                    "hot rollback closure must not heap-allocate");
      engine_.at(r.t_link, std::move(depart));
    } else {
      // Already past the switch entry — per-hop would have cleared the
      // (then absent) fault hook at that instant, so the depart event
      // stays legitimately elided; count its delivery and reschedule from
      // the switch exit (-2: real hop + no-op fused pop).  t_hop is ahead:
      // rollbacks are only triggered by strictly earlier switch exits.
      fabric_.note_fused_delivered();
      engine_.note_elided(-2);
      auto hop = [this, p = std::move(r.pkt)]() mutable {
        deliver_from_switch(std::move(p));
      };
      static_assert(sim::InlineAction::fits_inline<decltype(hop)>,
                    "hot rollback closure must not heap-allocate");
      assert(r.t_hop >= now);
      engine_.at(r.t_hop, std::move(hop));
    }
  }
  fused_.resize(keep);
}

SPAM_HOT void Tb2Adapter::rollback_fused_after(sim::Time t_hop) {
  std::size_t keep = fused_.size();
  while (keep > 0 && fused_[keep - 1].t_hop > t_hop) --keep;
  rollback_fused_suffix(keep);
}

void Tb2Adapter::disengage_fused_for_faults() {
  const sim::Time now = engine_.now();
  std::size_t keep = fused_.size();
  while (keep > 0 && fused_[keep - 1].t_link >= now) --keep;
  rollback_fused_suffix(keep);
}

SPAM_HOT void Tb2Adapter::deliver_from_switch(Packet pkt) {
  // A per-hop delivery occupies the rx pipeline *now*; fused reservations
  // with a later switch exit computed their times without us and must fall
  // back before we touch the clocks.
  rollback_fused_after(engine_.now());
  --pending_slow_;
  assert(pending_slow_ >= 0);

  const sim::Time now = engine_.now();
  const std::uint32_t bytes = pkt.wire_bytes(params_);

  // Stage 1: i860 firmware pulls the packet off the MSMU.
  const sim::Time i860_start = std::max(now, rx_i860_free_);
  rx_i860_free_ = i860_start + ceil_us(params_.i860_rx_us);

  // Stage 2: DMA into the host receive FIFO.
  const sim::Time dma_start = std::max(rx_i860_free_, rx_dma_free_);
  rx_dma_free_ = dma_start + ceil_us(params_.dma_setup_us) +
                 sim::transfer_time(bytes, params_.mc_dma_mbps);

  ++slow_arrivals_pending_;
  auto arrive = [this, p = std::move(pkt)]() mutable {
    --slow_arrivals_pending_;
    complete_rx(std::move(p));
  };
  static_assert(sim::InlineAction::fits_inline<decltype(arrive)>,
                "hot RX closure must not heap-allocate");
  engine_.at(rx_dma_free_, std::move(arrive));
}

SPAM_HOT Tb2Adapter::RxHorizon Tb2Adapter::rx_horizon(
    sim::Time others_lb) const {
  if (!rx_queue_.empty()) return {};
  // Any per-hop traffic (in flight to the switch, or between its hop and
  // arrive events) could land before the fused front: no prediction.
  if (pending_slow_ > 0 || slow_arrivals_pending_ > 0) return {};
  // Every packet already submitted toward us is in the ledger.
  sim::Time unscheduled = saturating_add(others_lb, rx_floor());
  if (fused_.empty()) return {unscheduled, unscheduled};
  // A fault hook armed at or after others_lb sends every packet still short
  // of the switch then down the per-hop path, where it lands no sooner than
  // the switch floor after others_lb.  The ledger is ordered by switch
  // entry, so the newest packet tells whether any is still short of it.
  if (fused_.back().t_link >= others_lb) {
    unscheduled = saturating_add(others_lb, switch_floor_);
  }
  // Ledger arrivals are ordered (rx_dma_free_ is monotonic), a rollback
  // forced by a later submit re-delivers behind that submit's packet, a
  // conflicting later per-hop delivery inherits clocks >= the front's
  // arrival, and a FIFO-full drop only keeps the queue empty longer — so
  // with no fault hook re-timing, nothing lands before the front.
  return {std::min(fused_.front().t_arrive, unscheduled), unscheduled};
}

SPAM_HOT void Tb2Adapter::complete_rx(Packet p) {
  if (rx_fifo_used_ >= rx_fifo_capacity_) {
    // Input buffer overflow: the packet is lost; flow control recovers.
    ++stats_.rx_dropped_fifo_full;
    sim::Trace::log(sim::TraceCat::kAdapter, engine_.now(),
                    "node%d rx DROP (fifo full) src=%d seq=%u", node_,
                    p.src, p.seq);
    return;
  }
  ++rx_fifo_used_;
  ++stats_.rx_packets;
  stats_.rx_bytes += p.wire_bytes(params_);
  // spam-lint: capacity-ok (bounded by rx_fifo_capacity_, checked above)
  rx_queue_.push_back(std::move(p));
  if (rx_notify_) rx_notify_();
}

SPAM_HOT Packet Tb2Adapter::host_rx_take(sim::NodeCtx& ctx,
                                         sim::Time tail_charge) {
  assert(!rx_queue_.empty());
  Packet pkt = std::move(rx_queue_.front());
  rx_queue_.pop_front();

  // Copy the entry out of the FIFO into user buffers.
  const sim::Time copy_cost =
      ceil_us(pkt.wire_bytes(params_) * params_.host_copy_us_per_byte);

  // Lazy pop: the entry is only returned to the adapter every
  // lazy_pop_batch takes, costing one MicroChannel access.  A non-flush
  // take changes nothing outside the adapter (pops_owed_ is internal), so
  // the copy and the caller's handling are one elapse of the summed cost; a
  // flush take splits them so rx_fifo_used_ drops at its own instant, where
  // in-flight arrivals can see it.
  if (++pops_owed_ < params_.lazy_pop_batch) {
    ctx.elapse(copy_cost + tail_charge);
    return pkt;
  }
  ctx.elapse(copy_cost);
  host_rx_flush_pops(ctx);
  if (tail_charge > 0) ctx.elapse(tail_charge);
  return pkt;
}

SPAM_HOT void Tb2Adapter::host_rx_flush_pops(sim::NodeCtx& ctx) {
  if (pops_owed_ == 0) return;
  ctx.elapse(ceil_us(params_.mc_access_us));
  rx_fifo_used_ -= pops_owed_;
  assert(rx_fifo_used_ >= 0);
  pops_owed_ = 0;
}

}  // namespace spam::sphw
