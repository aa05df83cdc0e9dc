#include "am/endpoint.hpp"

#include "sim/hot.hpp"
#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "sim/trace.hpp"
#include "sphw/payload.hpp"

namespace spam::am {

namespace {

/// Packs two 32-bit words into one header word.
std::uint64_t pack2(Word lo, Word hi) {
  return static_cast<std::uint64_t>(lo) |
         (static_cast<std::uint64_t>(hi) << 32);
}

}  // namespace

Endpoint::Endpoint(sim::NodeCtx& ctx, sphw::Tb2Adapter& adapter,
                   AmParams params)
    : ctx_(ctx), adapter_(adapter), params_(params) {
  peers_.resize(static_cast<std::size_t>(ctx.world().size()));
  // Index 0: reserved no-op handlers.
  msg_handlers_.emplace_back([](Endpoint&, Token, const Word*, int) {});
  bulk_handlers_.emplace_back([](Endpoint&, Token, void*, std::size_t, Word) {});
}

int Endpoint::register_handler(MsgHandler fn) {
  msg_handlers_.push_back(std::move(fn));
  return static_cast<int>(msg_handlers_.size() - 1);
}

int Endpoint::register_bulk_handler(BulkHandler fn) {
  bulk_handlers_.push_back(std::move(fn));
  return static_cast<int>(bulk_handlers_.size() - 1);
}

// --------------------------------------------------------------------------
// Small messages
// --------------------------------------------------------------------------

SPAM_HOT void Endpoint::stamp_acks(int dst, sphw::Packet& pkt) {
  Peer& p = peer(dst);
  pkt.ack[kChanRequest] = p.rx[kChanRequest].expect_seq;
  pkt.ack[kChanReply] = p.rx[kChanReply].expect_seq;
  // Anything we piggyback counts as acknowledged.
  p.rx[kChanRequest].unacked_packets = 0;
  p.rx[kChanReply].unacked_packets = 0;
}

void Endpoint::wait_for_window(int dst, std::uint8_t channel,
                               int packets_needed) {
  TxChan& tx = peer(dst).tx[channel];
  const int window = window_for(channel);
  // The window only opens on packet receipt, so the empty-poll merge is
  // exact here: nothing this loop waits for can happen mid-merge.
  while (tx.packets_in_flight + packets_needed > window) {
    merge_empty_polls();
    poll();
  }
}

SPAM_HOT void Endpoint::merge_empty_polls() {
  // Flush charge debt before sampling the adapter: the rx-ready state and
  // the horizon below are exact only at the node's virtual instant.
  ctx_.settle();
  if (!ctx_.engine().fastpath()) return;
  const sphw::Tb2Adapter::RxHorizon h = adapter_.rx_horizon(
      ctx_.world().others_next_action(ctx_.rank()));
  // 0: something is or may be arriving; kTimeNever: nothing ever will, so
  // there is no finite run of polls to merge.
  if (h.quiet == 0 || h.quiet == sim::kTimeNever) return;
  const sim::Time quantum = sim::usec(params_.poll_empty_us);
  const sim::Time now = ctx_.now();
  // The very next poll may see a packet, or the one after may tie with an
  // arrival nobody has queued yet.
  if (h.quiet <= now + quantum || h.unscheduled <= now + 2 * quantum) return;
  if (!bulk_progress_frozen()) return;
  // Polls at now + i*quantum for i = 1..k sample strictly before h.quiet,
  // so each would charge its quantum, drain nothing, and leave bulk
  // progress untouched: charging k quanta reaches the same instant, and
  // the poll that follows folds them into its own elapse — one wake where
  // the per-poll loop had k+1.  That wake, at now + (k+1)*quantum, is
  // queued now rather than one quantum before it fires, so it must precede
  // h.unscheduled: an arrival at that very instant queued in between would
  // otherwise run after the wake instead of before it.
  sim::Time k = std::min((h.quiet - now - 1) / quantum,
                         (h.unscheduled - now - 1) / quantum - 1);
  bool count_streak = false;
  if (!in_poll_ && have_unacked_retrans()) {
    // Keep-alive probes fire at exact poll instants: stop the merge one
    // short of the streak threshold so a due probe runs in a real poll.
    const int to_probe = params_.keepalive_poll_threshold - empty_poll_streak_;
    if (to_probe <= 1) return;
    if (k > static_cast<sim::Time>(to_probe - 1)) {
      k = static_cast<sim::Time>(to_probe - 1);
    }
    count_streak = true;
  }
  ctx_.charge(k * quantum);
  ctx_.engine().note_elided(static_cast<std::int64_t>(k) - 1);
  // Each merged poll was a top-level empty poll: replicate the keep-alive
  // bookkeeping (nested polls leave the streak alone, as poll() does).
  if (count_streak) empty_poll_streak_ += static_cast<int>(k);
}

bool Endpoint::bulk_progress_frozen() const {
  for (std::size_t n = 0; n < peers_.size(); ++n) {
    for (std::uint8_t ch : {kChanRequest, kChanReply}) {
      const TxChan& tx = peers_[n].tx[ch];
      if (tx.ops.empty()) continue;
      const int window = window_for(ch);
      // Window-blocked chunks stay blocked until a packet arrives; the
      // send-FIFO gate can open with time alone, so a chunk blocked only
      // by FIFO space defeats the merge.
      if (tx.packets_in_flight + planned_chunk_packets(tx.ops.front(), window) <=
          window) {
        return false;
      }
    }
  }
  return true;
}

bool Endpoint::have_unacked_retrans() const {
  for (const Peer& p : peers_) {
    for (const TxChan& tx : p.tx) {
      if (!tx.retrans.empty()) return true;
    }
  }
  return false;
}

void Endpoint::wait_for_fifo_space(int needed) {
  // The adapter drains the send FIFO autonomously (DMA), so plain waiting
  // is enough and safe to use even while nested inside poll().
  // spam-lint: charge-ok — one poll quantum per probe of the FIFO
  while (adapter_.host_send_free() < needed) ctx_.elapse(sim::usec(0.5));
}

SPAM_HOT void Endpoint::enqueue_sequenced_packet(sphw::Packet pkt, TxChan& tx,
                                        bool save, int doorbell_npackets) {
  // The ack stamping and retransmit save below touch only this fiber's
  // state and do not read the clock, so running them before the
  // bookkeeping charge (instead of after) is unobservable; that lets the
  // charge ride host_enqueue's elapse as its lead_charge.
  sim::Time lead = sim::usec(params_.bookkeeping_us);
  stamp_acks(pkt.dst, pkt);
  if (save) {
    if (pkt.chunk_idx == 0) {
      // spam-lint: capacity-ok (retransmit ring is bounded by the
      // flow-control window; entries recycle in steady state)
      tx.retrans.push_back({pkt.seq, {}});
    }
    assert(!tx.retrans.empty() && tx.retrans.back().seq == pkt.seq);
    // spam-lint: capacity-ok (packet copy shares the pooled payload via
    // PayloadRef; the vector is bounded by the chunk length)
    tx.retrans.back().packets.push_back(pkt);
  }
  ++tx.packets_in_flight;
  if (adapter_.host_send_free() < 1) {
    // FIFO full: charge the bookkeeping, then wait for an entry.  Space
    // seen now cannot vanish before the enqueue (only this fiber fills the
    // FIFO), so otherwise the bookkeeping rides the enqueue's elapse.
    ctx_.elapse(lead);
    wait_for_fifo_space(1);
    lead = 0;
  }
  adapter_.host_enqueue(ctx_, std::move(pkt), doorbell_npackets, lead);
}

SPAM_HOT void Endpoint::send_small(int dst, std::uint8_t channel, int handler,
                          const Word* args, int nargs, bool is_request) {
  assert(nargs >= 0 && nargs <= 4);
  TxChan& tx = peer(dst).tx[channel];

  // Preserve per-channel ordering: small messages may not overtake queued
  // bulk operations headed to the same peer.  Ops drain only as packet
  // receipts open the window, so the empty-poll merge is exact.
  while (!tx.ops.empty()) {
    merge_empty_polls();
    poll();
  }

  ctx_.elapse(sim::usec((is_request ? params_.request_cpu_us
                                    : params_.reply_cpu_us) +
                        params_.per_word_us * std::max(0, nargs - 1)));
  wait_for_window(dst, channel, 1);

  sphw::Packet pkt;
  pkt.dst = static_cast<std::int16_t>(dst);
  pkt.channel = channel;
  pkt.flags = kFlagSmall | kFlagOpLast;
  pkt.seq = tx.next_seq++;
  pkt.chunk_idx = 0;
  pkt.chunk_len = 1;
  pkt.h[0] = static_cast<std::uint64_t>(handler);
  pkt.h[1] = pack2(nargs > 0 ? args[0] : 0, nargs > 1 ? args[1] : 0);
  pkt.h[2] = pack2(nargs > 2 ? args[2] : 0, nargs > 3 ? args[3] : 0);
  pkt.h[3] = static_cast<std::uint64_t>(nargs);
  pkt.payload_bytes = static_cast<std::uint32_t>(4 * nargs);

  enqueue_sequenced_packet(std::move(pkt), tx, /*save=*/true,
                           /*doorbell_npackets=*/1);
}

void Endpoint::request(int dst, int handler, const Word* args, int nargs) {
  send_small(dst, kChanRequest, handler, args, nargs, /*is_request=*/true);
  ++stats_.requests_sent;
  poll();  // every am_request checks the network
}

void Endpoint::reply(Token token, int handler, const Word* args, int nargs) {
  assert(token.src >= 0);
  send_small(token.src, kChanReply, handler, args, nargs,
             /*is_request=*/false);
  ++stats_.replies_sent;
}

// --------------------------------------------------------------------------
// Control packets
// --------------------------------------------------------------------------

void Endpoint::send_control(int dst, std::uint8_t channel,
                            std::uint64_t subtype) {
  ctx_.elapse(sim::usec(params_.control_cpu_us));
  sphw::Packet pkt;
  pkt.dst = static_cast<std::int16_t>(dst);
  pkt.channel = channel;
  pkt.flags = kFlagControl;
  pkt.h[0] = subtype;
  pkt.h[1] = peer(dst).rx[channel].expect_seq;  // NACK: resume point
  pkt.payload_bytes = 0;
  stamp_acks(dst, pkt);
  wait_for_fifo_space(1);
  adapter_.host_enqueue(ctx_, std::move(pkt), /*doorbell_npackets=*/1);
}

void Endpoint::maybe_explicit_ack(int src, std::uint8_t channel) {
  RxChan& rx = peer(src).rx[channel];
  const int threshold =
      std::max(1, window_for(channel) / params_.explicit_ack_divisor);
  if (rx.unacked_packets >= threshold) {
    send_control(src, channel, kCtlAck);
    ++stats_.acks_sent;
  }
}

void Endpoint::send_nack(int src, std::uint8_t channel) {
  RxChan& rx = peer(src).rx[channel];
  if (rx.nack_outstanding && rx.last_nacked_seq == rx.expect_seq) return;
  rx.nack_outstanding = true;
  rx.last_nacked_seq = rx.expect_seq;
  send_control(src, channel, kCtlNack);
  ++stats_.nacks_sent;
}

// --------------------------------------------------------------------------
// Bulk operations
// --------------------------------------------------------------------------

void Endpoint::store_async(int dst, void* dst_addr, const void* src,
                           std::size_t len, int handler, Word arg,
                           CompletionFn complete) {
  ctx_.elapse(sim::usec(params_.bulk_setup_us));
  BulkOp op;
  op.id = next_op_id_++;
  op.dst = dst;
  op.channel = kChanRequest;
  op.data = sphw::PayloadPool::instance().copy_from(src, len);
  op.remote_base = reinterpret_cast<std::uint64_t>(dst_addr);
  op.handler = handler;
  op.arg = arg;
  op.complete = std::move(complete);
  ++outstanding_ops_;
  peer(dst).tx[kChanRequest].ops.push_back(std::move(op));
  progress_bulk();
}

void Endpoint::store(int dst, void* dst_addr, const void* src,
                     std::size_t len, int handler, Word arg) {
  // Blocking semantics per GAM: returns once the source region is reusable,
  // i.e. all packets have been placed in the send FIFO.  The window makes a
  // back-to-back sequence of stores wait for the previous transfer's acks.
  ctx_.elapse(sim::usec(params_.bulk_setup_us));
  BulkOp op;
  op.id = next_op_id_++;
  const std::uint64_t my_id = op.id;
  op.dst = dst;
  op.channel = kChanRequest;
  op.data = sphw::PayloadPool::instance().copy_from(src, len);
  op.remote_base = reinterpret_cast<std::uint64_t>(dst_addr);
  op.handler = handler;
  op.arg = arg;
  op.complete = {};
  ++outstanding_ops_;
  TxChan& tx = peer(dst).tx[kChanRequest];
  tx.ops.push_back(std::move(op));
  // Drive our op to full enqueue: it leaves the queue exactly then.
  while (true) {
    progress_bulk();
    bool still_queued = false;
    for (const BulkOp& o : tx.ops) {
      if (o.id == my_id) {
        still_queued = true;
        break;
      }
    }
    if (!still_queued) break;
    poll();
  }
}

void Endpoint::get(int dst, const void* src_addr, void* dst_addr,
                   std::size_t len, int handler, Word arg,
                   CompletionFn complete) {
  ctx_.elapse(sim::usec(params_.bulk_setup_us));
  const std::uint32_t cookie = next_get_cookie_++;
  if (complete) get_completions_.emplace(cookie, std::move(complete));

  TxChan& tx = peer(dst).tx[kChanRequest];
  while (!tx.ops.empty()) poll();
  wait_for_window(dst, kChanRequest, 1);

  sphw::Packet pkt;
  pkt.dst = static_cast<std::int16_t>(dst);
  pkt.channel = kChanRequest;
  pkt.flags = kFlagSmall | kFlagOpLast | kFlagGetRequest;
  pkt.seq = tx.next_seq++;
  pkt.chunk_idx = 0;
  pkt.chunk_len = 1;
  pkt.offset = cookie;
  pkt.h[0] = pack2(static_cast<Word>(handler), arg);
  pkt.h[1] = reinterpret_cast<std::uint64_t>(src_addr);
  pkt.h[2] = reinterpret_cast<std::uint64_t>(dst_addr);
  pkt.h[3] = static_cast<std::uint64_t>(len);
  pkt.payload_bytes = 16;  // two addresses and a length on the wire

  enqueue_sequenced_packet(std::move(pkt), tx, /*save=*/true,
                           /*doorbell_npackets=*/1);
  poll();  // gets are requests: check the network after sending
}

void Endpoint::get_blocking(int dst, const void* src_addr, void* dst_addr,
                            std::size_t len) {
  bool done = false;
  get(dst, src_addr, dst_addr, len, 0, 0, [&done] { done = true; });
  poll_until([&] { return done; });
}

void Endpoint::progress_bulk() {
  // Round-robin over peers/channels that have queued operations, pushing
  // whole chunks while the window and FIFO allow.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t n = 0; n < peers_.size(); ++n) {
      for (std::uint8_t ch : {kChanRequest, kChanReply}) {
        TxChan& tx = peers_[n].tx[ch];
        if (tx.ops.empty()) continue;
        if (try_send_next_chunk(static_cast<int>(n), ch, tx)) {
          progressed = true;
        }
      }
    }
  }
}

int Endpoint::planned_chunk_packets(const BulkOp& op, int window) const {
  const int data_bytes = adapter_.params().packet_data_bytes;
  const std::size_t max_chunk =
      static_cast<std::size_t>(std::min(params_.chunk_packets, window)) *
      static_cast<std::size_t>(data_bytes);
  const std::size_t remaining = op.data.size() - op.sent;
  const std::size_t chunk = std::min(remaining, max_chunk);
  const int npackets = static_cast<int>((chunk + data_bytes - 1) / data_bytes);
  return npackets == 0 ? 1 : npackets;  // zero-length op: one empty packet
}

bool Endpoint::try_send_next_chunk(int dst, std::uint8_t channel,
                                   TxChan& tx) {
  BulkOp& op = tx.ops.front();
  const int data_bytes = adapter_.params().packet_data_bytes;
  const int window = window_for(channel);
  const std::size_t max_chunk =
      static_cast<std::size_t>(std::min(params_.chunk_packets, window)) *
      static_cast<std::size_t>(data_bytes);

  const std::size_t remaining = op.data.size() - op.sent;
  const std::size_t chunk = std::min(remaining, max_chunk);
  const int npackets = planned_chunk_packets(op, window);

  if (tx.packets_in_flight + npackets > window) return false;
  if (adapter_.host_send_free() < npackets) return false;

  const std::uint32_t seq = tx.next_seq++;
  const bool op_ends = (op.sent + chunk == op.data.size());
  const int batch = std::max(1, params_.doorbell_batch_packets);
  int undoorbelled = 0;

  for (int i = 0; i < npackets; ++i) {
    const std::size_t off = op.sent + static_cast<std::size_t>(i) * data_bytes;
    const std::size_t nbytes =
        std::min(static_cast<std::size_t>(data_bytes), op.data.size() - off);
    sphw::Packet pkt;
    pkt.dst = static_cast<std::int16_t>(dst);
    pkt.channel = channel;
    pkt.seq = seq;
    pkt.chunk_idx = static_cast<std::uint16_t>(i);
    pkt.chunk_len = static_cast<std::uint16_t>(npackets);
    pkt.offset = static_cast<std::uint32_t>(off);
    pkt.flags = 0;
    if (op_ends && i == npackets - 1) pkt.flags |= kFlagOpLast;
    pkt.h[0] = pack2(static_cast<Word>(op.handler), op.arg);
    pkt.h[1] = op.remote_base;
    pkt.h[2] = op.data.size();
    pkt.h[3] = op.cookie;
    pkt.payload_bytes = static_cast<std::uint32_t>(nbytes);
    // No copy: the packet's view shares the operation's pooled buffer.
    pkt.payload = op.data.slice(off, nbytes);
    // Batch the doorbell: one length-array store covers several packets,
    // so the adapter starts fetching while the host keeps writing.  The
    // batch-completing enqueue rings it, letting the fast path fold the
    // MicroChannel access into its merged elapse.
    ++undoorbelled;
    int doorbell_n = 0;
    if (undoorbelled == batch || i == npackets - 1) {
      doorbell_n = undoorbelled;
      undoorbelled = 0;
    }
    enqueue_sequenced_packet(std::move(pkt), tx, /*save=*/true, doorbell_n);
  }
  assert(undoorbelled == 0);
  ++stats_.chunks_sent;
  stats_.bulk_bytes_sent += chunk;

  op.sent += chunk;
  if (op_ends) {
    // spam-lint: capacity-ok — drained by poll() each pass; bounded by ops
    // in flight, steady-state capacity sticks after the first ramp
    tx.completions.push_back({seq + 1, std::move(op.complete)});
    tx.ops.pop_front();
  }
  return true;
}

SPAM_HOT void Endpoint::fire_completions(int /*dst*/, TxChan& tx) {
  while (!tx.completions.empty() &&
         tx.completions.front().last_seq_plus1 <= tx.acked_seq) {
    auto fn = std::move(tx.completions.front().fn);
    tx.completions.pop_front();
    --outstanding_ops_;
    if (fn) fn();
  }
}

// --------------------------------------------------------------------------
// Receive path
// --------------------------------------------------------------------------

SPAM_HOT void Endpoint::process_ack(int src, std::uint8_t channel,
                           std::uint32_t cum_ack) {
  TxChan& tx = peer(src).tx[channel];
  if (cum_ack <= tx.acked_seq) return;
  while (!tx.retrans.empty() && tx.retrans.front().seq < cum_ack) {
    tx.packets_in_flight -=
        static_cast<int>(tx.retrans.front().packets.size());
    tx.retrans.pop_front();
  }
  assert(tx.packets_in_flight >= 0);
  tx.acked_seq = cum_ack;
  fire_completions(src, tx);
}

void Endpoint::retransmit_from(int dst, std::uint8_t channel,
                               std::uint32_t from_seq) {
  TxChan& tx = peer(dst).tx[channel];
  for (auto& saved : tx.retrans) {
    if (saved.seq < from_seq) continue;
    ++stats_.retransmitted_chunks;
    int in_batch = 0;
    for (const sphw::Packet& orig : saved.packets) {
      sphw::Packet copy = orig;
      stamp_acks(dst, copy);
      // spam-lint: charge-ok — per-packet bookkeeping IS the retransmit
      // cost model, and this is the rare recovery path
      ctx_.elapse(sim::usec(params_.bookkeeping_us));
      wait_for_fifo_space(1);
      adapter_.host_enqueue(ctx_, std::move(copy), /*doorbell_npackets=*/0);
      ++in_batch;
    }
    if (in_batch > 0) adapter_.host_doorbell(ctx_, in_batch);
  }
}

void Endpoint::serve_get(const sphw::Packet& pkt) {
  // Internal service handler: stream the requested region back on the
  // reply channel; the final packet triggers the initiator's bulk handler
  // and completion cookie.
  BulkOp op;
  op.id = next_op_id_++;
  op.dst = pkt.src;
  op.channel = kChanReply;
  const auto* src = reinterpret_cast<const std::byte*>(pkt.h[1]);
  const auto len = static_cast<std::size_t>(pkt.h[3]);
  op.data = sphw::PayloadPool::instance().copy_from(src, len);
  op.remote_base = pkt.h[2];
  op.handler = static_cast<int>(pkt.h[0] & 0xffffffffu);
  op.arg = static_cast<Word>(pkt.h[0] >> 32);
  op.cookie = pkt.offset;
  ++outstanding_ops_;
  // spam-lint: capacity-ok — deque bounded by the outstanding-op window;
  // block allocation amortizes out after the first ramp
  peer(pkt.src).tx[kChanReply].ops.push_back(std::move(op));
}

SPAM_HOT void Endpoint::deliver_small(const sphw::Packet& pkt) {
  if (pkt.flags & kFlagGetRequest) {
    serve_get(pkt);
    return;
  }
  const auto h = static_cast<std::size_t>(pkt.h[0]);
  assert(h < msg_handlers_.size());
  Word args[4] = {
      static_cast<Word>(pkt.h[1] & 0xffffffffu),
      static_cast<Word>(pkt.h[1] >> 32),
      static_cast<Word>(pkt.h[2] & 0xffffffffu),
      static_cast<Word>(pkt.h[2] >> 32),
  };
  const int nargs = static_cast<int>(pkt.h[3]);
  ++stats_.msgs_delivered;
  msg_handlers_[h](*this, Token{pkt.src}, args, nargs);
}

SPAM_HOT void Endpoint::deliver_bulk_packet(const sphw::Packet& pkt) {
  auto* base = reinterpret_cast<std::byte*>(pkt.h[1]);
  if (pkt.payload_bytes > 0) {
    std::memcpy(base + pkt.offset, pkt.payload.data(), pkt.payload.size());
  }
  if (pkt.flags & kFlagOpLast) {
    const auto h = static_cast<std::size_t>(pkt.h[0] & 0xffffffffu);
    const auto arg = static_cast<Word>(pkt.h[0] >> 32);
    const auto len = static_cast<std::size_t>(pkt.h[2]);
    assert(h < bulk_handlers_.size());
    ++stats_.msgs_delivered;
    bulk_handlers_[h](*this, Token{pkt.src}, base, len, arg);
    const auto cookie = static_cast<std::uint32_t>(pkt.h[3]);
    if (cookie != 0) {
      auto it = get_completions_.find(cookie);
      if (it != get_completions_.end()) {
        auto fn = std::move(it->second);
        get_completions_.erase(it);
        fn();
      }
    }
  }
}

SPAM_HOT void Endpoint::handle_control(const sphw::Packet& pkt) {
  ctx_.elapse(sim::usec(params_.control_cpu_us));
  process_ack(pkt.src, kChanRequest, pkt.ack[kChanRequest]);
  process_ack(pkt.src, kChanReply, pkt.ack[kChanReply]);
  switch (pkt.h[0]) {
    case kCtlAck:
      break;  // piggybacked ack processing above did the work
    case kCtlNack: {
      const auto resume = static_cast<std::uint32_t>(pkt.h[1]);
      process_ack(pkt.src, pkt.channel, resume);
      sim::Trace::log(sim::TraceCat::kFlow, ctx_.now(),
                      "node%d NACK from %d ch=%u resume=%u", rank(), pkt.src,
                      pkt.channel, resume);
      retransmit_from(pkt.src, pkt.channel, resume);
      break;
    }
    case kCtlProbe: {
      // Keep-alive: force a NACK back at our current expectation.
      RxChan& rx = peer(pkt.src).rx[pkt.channel];
      rx.nack_outstanding = false;  // always answer a probe
      send_nack(pkt.src, pkt.channel);
      break;
    }
    default:
      assert(false && "unknown control subtype");
  }
}

SPAM_HOT void Endpoint::handle_data(sphw::Packet pkt) {
  RxChan& rx = peer(pkt.src).rx[pkt.channel];

  if (pkt.seq < rx.expect_seq) {
    // Duplicate from a go-back-N retransmission; re-ack at chunk ends so
    // the sender resynchronizes.
    ++stats_.duplicates_dropped;
    if (pkt.chunk_idx == pkt.chunk_len - 1) {
      send_control(pkt.src, pkt.channel, kCtlAck);
      ++stats_.acks_sent;
    }
    return;
  }
  if (pkt.seq > rx.expect_seq || pkt.chunk_idx != rx.expect_idx) {
    // Lost packet (whole chunk or mid-chunk): drop and NACK once.
    ++stats_.out_of_seq_dropped;
    rx.expect_idx = 0;  // go-back-N restarts the chunk from its first packet
    send_nack(pkt.src, pkt.channel);
    return;
  }

  // In sequence: accept.
  rx.nack_outstanding = false;
  const bool chunk_done = (pkt.chunk_idx == pkt.chunk_len - 1);
  const std::uint16_t chunk_len = pkt.chunk_len;
  rx.expect_idx = chunk_done ? 0 : static_cast<std::uint16_t>(pkt.chunk_idx + 1);
  if (chunk_done) {
    ++rx.expect_seq;
    rx.unacked_packets += chunk_len;
  }

  if (pkt.flags & kFlagSmall) {
    deliver_small(pkt);
  } else {
    deliver_bulk_packet(pkt);
  }

  if (chunk_done) {
    if (!(pkt.flags & kFlagSmall)) {
      // Bulk chunks are acknowledged as a unit, immediately — the sender's
      // chunk pipeline (chunk N waits for the ack of chunk N-2) depends on
      // a prompt per-chunk ack.
      RxChan& rx2 = peer(pkt.src).rx[pkt.channel];
      if (rx2.unacked_packets > 0) {
        send_control(pkt.src, pkt.channel, kCtlAck);
        ++stats_.acks_sent;
      }
    } else {
      // Small messages rely on piggybacking plus the quarter-window rule.
      maybe_explicit_ack(pkt.src, pkt.channel);
    }
  }
}

SPAM_HOT void Endpoint::handle_packet(sphw::Packet pkt) {
  if (pkt.flags & kFlagControl) {
    handle_control(pkt);
    return;
  }
  // Piggybacked acks on data packets.
  process_ack(pkt.src, kChanRequest, pkt.ack[kChanRequest]);
  process_ack(pkt.src, kChanReply, pkt.ack[kChanReply]);
  handle_data(std::move(pkt));
}

void Endpoint::compute(double us) {
  if (!params_.interrupt_driven) {
    // Polling mode: pure computation, so it defers into the node's charge
    // ledger and settles at the next poll/send.
    ctx_.charge(sim::usec(us));
    return;
  }
  // Interrupt-driven: sleep in chunks, woken early by the adapter's
  // interrupt line; each service pass costs the interrupt latency.
  // Flush charge debt first: the rx-ready read and the engine-relative
  // work deadline below must anchor at this node's virtual instant.
  ctx_.settle();
  adapter_.set_rx_notify(ctx_.make_resumer());
  sim::Time work = sim::usec(us);
  while (work > 0) {
    if (adapter_.host_rx_ready()) {
      ctx_.elapse(sim::usec(params_.interrupt_latency_us));
      poll();
      continue;
    }
    const sim::Time t0 = ctx_.now();
    // Wake at the earlier of work-done or packet arrival.  The deadline
    // event may fire after an interrupt already woke us; suspend() callers
    // tolerate such spurious wakes by re-checking state.
    auto resumer = ctx_.make_resumer();
    static_assert(sim::InlineAction::fits_inline<decltype(resumer)>,
                  "compute() resumer must not heap-allocate");
    ctx_.engine().after(work, std::move(resumer));
    ctx_.suspend();
    const sim::Time advanced = ctx_.now() - t0;
    work -= std::min(advanced, work);
  }
  adapter_.clear_rx_notify();
}

SPAM_HOT sim::Time Endpoint::idle_step(void* endpoint) {
  Endpoint& ep = *static_cast<Endpoint*>(endpoint);
  // poll() past its elapse: the rx loop would not run, progress_bulk()
  // would find every queued chunk window-blocked (so never reach the
  // FIFO-space query and its lazy settlement), and the keep-alive tail is
  // all that changes.
  if (ep.in_poll_ || ep.adapter_.host_rx_ready() ||
      !ep.bulk_progress_frozen()) {
    return 0;
  }
  if (ep.have_unacked_retrans()) {
    // A due probe sends packets: leave that poll to the fiber.
    if (ep.empty_poll_streak_ + 1 >= ep.params_.keepalive_poll_threshold) {
      return 0;
    }
    ++ep.empty_poll_streak_;
  }
  return sim::usec(ep.params_.poll_empty_us);
}

SPAM_HOT void Endpoint::poll() {
  ctx_.elapse(sim::usec(params_.poll_empty_us));
  bool received = false;
  while (adapter_.host_rx_ready()) {
    // The per-message handling charge rides the take's copy elapse when the
    // adapter can prove the merge exact (non-flush takes under fastpath).
    sphw::Packet pkt =
        adapter_.host_rx_take(ctx_, sim::usec(params_.per_msg_handling_us));
    handle_packet(std::move(pkt));
    // Handlers may charge deferred CPU time; settle so the next rx-ready
    // read sees every arrival up to this node's virtual instant.
    ctx_.settle();
    received = true;
  }
  progress_bulk();

  if (in_poll_) return;  // keep-alive bookkeeping only at top level
  in_poll_ = true;
  if (received) {
    empty_poll_streak_ = 0;
  } else {
    if (have_unacked_retrans() &&
        ++empty_poll_streak_ >= params_.keepalive_poll_threshold) {
      empty_poll_streak_ = 0;
      for (std::size_t n = 0; n < peers_.size(); ++n) {
        for (std::uint8_t ch : {kChanRequest, kChanReply}) {
          if (!peers_[n].tx[ch].retrans.empty()) {
            send_control(static_cast<int>(n), ch, kCtlProbe);
            ++stats_.probes_sent;
          }
        }
      }
    }
  }
  in_poll_ = false;
}

}  // namespace spam::am
