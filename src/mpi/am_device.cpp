#include "mpi/am_device.hpp"

#include <cassert>
#include <cstring>

#include "sim/hot.hpp"

namespace spam::mpi {

namespace {
std::uint64_t u64_of(am::Word lo, am::Word hi) {
  return static_cast<std::uint64_t>(lo) |
         (static_cast<std::uint64_t>(hi) << 32);
}
}  // namespace

MpiAm::MpiAm(sim::NodeCtx& ctx, am::Endpoint& ep, MpiAmConfig cfg)
    : Mpi(ctx), ep_(ep), cfg_(cfg), world_size_(ctx.world().size()) {
  peer_region_base_.assign(static_cast<std::size_t>(world_size_), nullptr);
  alloc_.resize(static_cast<std::size_t>(world_size_));
  for (auto& a : alloc_) {
    a = std::make_unique<BufferAllocator>(cfg_.peer_buffer_bytes,
                                          cfg_.binned_allocator);
  }
  // The hosted region must cover everything a sender can address (bins are
  // in front of the first-fit area).
  regions_.resize(static_cast<std::size_t>(world_size_));
  for (auto& r : regions_) r.resize(alloc_[0]->total_bytes());
  pending_sends_.resize(static_cast<std::size_t>(world_size_));
  pending_frees_.resize(static_cast<std::size_t>(world_size_));
  free_age_.assign(static_cast<std::size_t>(world_size_), 0);
  freed_owed_.assign(static_cast<std::size_t>(world_size_), 0);
  install_handlers();
}

void MpiAm::set_peer_region_base(int peer, std::byte* base) {
  peer_region_base_[static_cast<std::size_t>(peer)] = base;
}

void MpiAm::install_handlers() {
  // Registration order must be identical on every node.
  auto apply_frees = [this](am::Token t, const am::Word* a, int n) {
    for (int i = 0; i + 1 < n; i += 2) {
      if (a[i + 1] == 0) continue;  // empty slot
      alloc_[static_cast<std::size_t>(t.src)]->free(a[i], a[i + 1]);
    }
  };
  h_free_req_ = ep_.register_handler(
      [apply_frees](am::Endpoint&, am::Token t, const am::Word* a, int n) {
        apply_frees(t, a, n);
      });
  h_free_reply_ = ep_.register_handler(
      [apply_frees](am::Endpoint&, am::Token t, const am::Word* a, int n) {
        apply_frees(t, a, n);
      });

  h_rdv_done_ = ep_.register_bulk_handler(
      [this](am::Endpoint&, am::Token, void*, std::size_t, am::Word arg) {
        auto it = recv_recs_.find(arg);
        assert(it != recv_recs_.end());
        complete_req(it->second.req_id, it->second.status);
        recv_recs_.erase(it);
      });

  h_rdv_addr_req_ = ep_.register_handler(
      [this](am::Endpoint&, am::Token, const am::Word* a, int) {
        ready_stores_.push_back(
            ReadyStore{a[0], u64_of(a[1], a[2]), a[3]});
      });
  h_rdv_addr_reply_ = ep_.register_handler(
      [this](am::Endpoint&, am::Token, const am::Word* a, int) {
        ready_stores_.push_back(
            ReadyStore{a[0], u64_of(a[1], a[2]), a[3]});
      });

  h_eager_ = ep_.register_bulk_handler([this](am::Endpoint&, am::Token t,
                                              void* addr, std::size_t,
                                              am::Word) {
    WireEnv env;
    std::memcpy(&env, addr, kEnvBytes);
    if (env.kind == kKindHybridPrefix) {
      // Prefix of a rendez-vous in flight: it is never matched itself (the
      // announcement was), only consumed.
      handle_prefix_block(t.src, env,
                          static_cast<const std::byte*>(addr) + kEnvBytes);
      return;
    }
    InMsg m;
    m.src = t.src;
    m.tag = env.tag;
    m.len = env.total_len;
    m.kind = env.kind;
    m.cookie = env.op_id;
    m.data = static_cast<const std::byte*>(addr) + kEnvBytes;
    m.data_len = env.payload_len;
    ++handler_depth_;
    if (auto r = match_.arrive(m)) {
      am::Token tok = t;
      deliver_matched(*r, m, &tok);
    }
    --handler_depth_;
  });

  h_rdv_req_ = ep_.register_handler([this](am::Endpoint&, am::Token t,
                                           const am::Word* a, int) {
    InMsg m;
    m.src = t.src;
    m.tag = static_cast<int>(static_cast<std::int32_t>(a[0]));
    m.len = u64_of(a[1], a[2] & 0xffffu);
    m.kind = kKindRdv;
    m.cookie = a[3];
    m.data_len = a[2] >> 16;  // announced hybrid-prefix length
    ++handler_depth_;
    if (auto r = match_.arrive(m)) {
      am::Token tok = t;
      deliver_matched(*r, m, &tok);
    }
    --handler_depth_;
  });
}

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

std::size_t MpiAm::charged_alloc(BufferAllocator& alloc, std::size_t need) {
  // Allocation burns CPU proportional to the first-fit walk; bin hits pay
  // one step (the paper's section 4.2 rationale for the binned allocator).
  const std::uint64_t steps0 = alloc.stats().fit_search_steps;
  const std::uint64_t bins0 = alloc.stats().bin_allocs;
  const std::size_t off = alloc.alloc(need);
  const std::uint64_t walked = alloc.stats().fit_search_steps - steps0;
  const std::uint64_t binned = alloc.stats().bin_allocs - bins0;
  ctx_.charge(sim::usec(cfg_.alloc_step_us *
                        static_cast<double>(walked + binned)));
  return off;
}

bool MpiAm::try_eager(int req_id, int dst, int tag, const std::byte* data,
                      std::size_t len) {
  BufferAllocator& alloc = *alloc_[static_cast<std::size_t>(dst)];
  const std::size_t need = kEnvBytes + len;
  const std::size_t off = charged_alloc(alloc, need);
  if (off == BufferAllocator::kFail) return false;

  std::vector<std::byte> block(need);
  WireEnv env;
  env.tag = tag;
  env.kind = kKindEager;
  env.total_len = len;
  env.op_id = 0;
  env.payload_len = static_cast<std::uint32_t>(len);
  std::memcpy(block.data(), &env, kEnvBytes);
  if (len > 0) std::memcpy(block.data() + kEnvBytes, data, len);

  // Blocking am_store, as in the paper: returns once the block is fully
  // handed to the adapter, so MPI_Send never leaves data stranded in a
  // progress queue.
  ep_.store(dst, peer_region_base_[static_cast<std::size_t>(dst)] + off,
            block.data(), need, h_eager_, 0);
  ++dev_stats_.eager_sends;
  // The block was snapshotted: the MPI send buffer is reusable now.
  complete_req(req_id);
  return true;
}

void MpiAm::start_rendezvous(int req_id, int dst, int tag,
                             const std::byte* src, std::size_t len) {
  const std::uint32_t op_id = next_op_id_++;
  SendOp op;
  op.req_id = req_id;
  op.dst = dst;
  op.src = src;
  op.len = len;

  // Hybrid (paper 4.2): reserve prefix space *first*, then announce with
  // the prefix length, then stream the prefix while the rendez-vous reply
  // is in flight.  If no space is available, degrade to pure rendez-vous.
  std::size_t prefix = 0;
  std::size_t prefix_off = BufferAllocator::kFail;
  if (cfg_.hybrid) {
    BufferAllocator& alloc = *alloc_[static_cast<std::size_t>(dst)];
    // Keep at least one byte for the rendez-vous leg so completion always
    // rides on the remainder store.
    prefix = std::min(cfg_.hybrid_prefix, len - 1);
    if (prefix > 0) {
      prefix_off = charged_alloc(alloc, kEnvBytes + prefix);
      if (prefix_off == BufferAllocator::kFail) prefix = 0;
    }
  }

  // Register the op before anything hits the wire: the address reply can
  // race back during the blocking prefix store below.
  op.prefix_sent = prefix;
  send_ops_.emplace(op_id, op);

  // Announcement: tag, length (48 bits), prefix length (16 bits), op id.
  assert(len < (1ull << 48));
  assert(prefix < (1ull << 16));
  ep_.request_4(
      dst, h_rdv_req_, static_cast<am::Word>(tag),
      static_cast<am::Word>(len),
      static_cast<am::Word>((static_cast<std::uint64_t>(len) >> 32) |
                            (static_cast<std::uint64_t>(prefix) << 16)),
      op_id);
  if (prefix > 0) {
    std::vector<std::byte> block(kEnvBytes + prefix);
    WireEnv env;
    env.tag = tag;
    env.kind = kKindHybridPrefix;
    env.total_len = len;
    env.op_id = op_id;
    env.payload_len = static_cast<std::uint32_t>(prefix);
    std::memcpy(block.data(), &env, kEnvBytes);
    std::memcpy(block.data() + kEnvBytes, src, prefix);
    ep_.store(dst,
              peer_region_base_[static_cast<std::size_t>(dst)] + prefix_off,
              block.data(), block.size(), h_eager_, 0);
    ++dev_stats_.hybrid_sends;
  } else {
    ++dev_stats_.rdv_sends;
  }
}

int MpiAm::isend(const void* buf, std::size_t bytes, int dst, int tag) {
  // Software send overhead is pure CPU: defer it; the endpoint call below
  // settles at its first adapter interaction.
  ctx_.charge(sim::usec(cfg_.sw_send_us));
  const int req_id = alloc_req(/*is_recv=*/false);
  const auto* data = static_cast<const std::byte*>(buf);
  auto& pending = pending_sends_[static_cast<std::size_t>(dst)];

  // Non-overtaking: once one send to this peer is queued, every later send
  // to the same peer queues behind it.
  if (!pending.empty()) {
    PendingSend ps;
    ps.req_id = req_id;
    ps.dst = dst;
    ps.tag = tag;
    ps.data.assign(data, data + bytes);
    pending.push_back(std::move(ps));
    // Completed only when actually transmitted: MPI_Send must not return
    // leaving messages stranded in a local queue nobody will drive.
    return req_id;
  }

  // Eager only if the block could *ever* fit the first-fit area (bins are
  // for small messages); otherwise this message must rendez-vous even if
  // nominally under the switch point.
  const bool can_fit =
      kEnvBytes + bytes <=
      alloc_[static_cast<std::size_t>(dst)]->fit_capacity();
  if (bytes <= cfg_.eager_max && can_fit) {
    if (!try_eager(req_id, dst, tag, data, bytes)) {
      ++dev_stats_.sends_blocked_on_buffer;
      PendingSend ps;
      ps.req_id = req_id;
      ps.dst = dst;
      ps.tag = tag;
      ps.data.assign(data, data + bytes);
      pending.push_back(std::move(ps));
    }
    return req_id;
  }
  start_rendezvous(req_id, dst, tag, data, bytes);
  return req_id;
}

void MpiAm::retry_pending_sends() {
  for (int dst = 0; dst < world_size_; ++dst) {
    auto& q = pending_sends_[static_cast<std::size_t>(dst)];
    while (!q.empty()) {
      PendingSend& ps = q.front();
      const bool fits_ever =
          kEnvBytes + ps.data.size() <=
          alloc_[static_cast<std::size_t>(dst)]->fit_capacity();
      if (ps.data.size() <= cfg_.eager_max && fits_ever) {
        // The request was already completed at snapshot time; use a
        // throwaway id for the eager bookkeeping.
        BufferAllocator& alloc = *alloc_[static_cast<std::size_t>(dst)];
        const std::size_t need = kEnvBytes + ps.data.size();
        const std::size_t off = charged_alloc(alloc, need);
        if (off == BufferAllocator::kFail) break;  // still no space
        std::vector<std::byte> block(need);
        WireEnv env;
        env.tag = ps.tag;
        env.kind = kKindEager;
        env.total_len = ps.data.size();
        env.op_id = 0;
        env.payload_len = static_cast<std::uint32_t>(ps.data.size());
        std::memcpy(block.data(), &env, kEnvBytes);
        if (!ps.data.empty()) {
          std::memcpy(block.data() + kEnvBytes, ps.data.data(),
                      ps.data.size());
        }
        ep_.store(dst, peer_region_base_[static_cast<std::size_t>(dst)] + off,
                  block.data(), need, h_eager_, 0);
        ++dev_stats_.eager_sends;
        complete_req(ps.req_id);
        q.pop_front();
      } else {
        // Large queued send: hand it to the rendez-vous machinery with
        // owned storage (the original user buffer is long gone).
        const std::uint32_t op_id = next_op_id_++;
        SendOp op;
        op.req_id = ps.req_id;  // completes when the data store is issued
        op.dst = dst;
        op.owned = std::move(ps.data);
        op.src = op.owned.data();
        op.len = op.owned.size();
        const int tag = ps.tag;
        const std::size_t len = op.len;
        q.pop_front();
        send_ops_.emplace(op_id, std::move(op));
        ep_.request_4(
            dst, h_rdv_req_, static_cast<am::Word>(tag),
            static_cast<am::Word>(len),
            static_cast<am::Word>(static_cast<std::uint64_t>(len) >> 32),
            op_id);
        ++dev_stats_.rdv_sends;
      }
    }
  }
}

void MpiAm::drain_ready_stores() {
  while (!ready_stores_.empty()) {
    const ReadyStore rs = ready_stores_.front();
    ready_stores_.pop_front();
    auto it = send_ops_.find(rs.op_id);
    assert(it != send_ops_.end());
    SendOp op = std::move(it->second);
    send_ops_.erase(it);
    const std::byte* src = op.owned.empty() ? op.src : op.owned.data();
    const std::size_t remaining = op.len - op.prefix_sent;
    // Blocking store: "the store is performed by the blocked MPI_Send or
    // by any MPI communication function that explicitly polls" (paper 4.1).
    ep_.store(op.dst, reinterpret_cast<void*>(rs.addr), src + op.prefix_sent,
              remaining, h_rdv_done_, rs.recv_id);
    // Data snapshotted: the user buffer is now reusable.
    complete_req(op.req_id);
  }
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

int MpiAm::irecv(void* buf, std::size_t bytes, int src, int tag) {
  ctx_.charge(sim::usec(cfg_.sw_recv_us));
  const int req_id = alloc_req(/*is_recv=*/true);
  PostedRecv r;
  r.req_id = req_id;
  r.src = src;
  r.tag = tag;
  r.buf = buf;
  r.cap = bytes;
  if (auto m = match_.post(r)) {
    deliver_matched(r, *m, nullptr);
  }
  return req_id;
}

void MpiAm::queue_free(int src, std::size_t offset, std::size_t alloc_len,
                       am::Token* reply_token) {
  if (!cfg_.batch_frees) {
    // Unoptimized: one free message per buffer, immediately.  Inside the
    // store handler the reply slot carries it for free; otherwise it is a
    // fresh request.
    ++dev_stats_.free_msgs;
    if (reply_token != nullptr) {
      ep_.reply_2(*reply_token, h_free_reply_,
                  static_cast<am::Word>(offset),
                  static_cast<am::Word>(alloc_len));
    } else {
      ep_.request_2(src, h_free_req_, static_cast<am::Word>(offset),
                    static_cast<am::Word>(alloc_len));
    }
    return;
  }
  pending_frees_[static_cast<std::size_t>(src)].push_back(
      PendingFree{static_cast<std::uint32_t>(offset),
                  static_cast<std::uint32_t>(alloc_len)});
  freed_owed_[static_cast<std::size_t>(src)] += alloc_len;
  if (handler_depth_ == 0) {
    flush_frees(src, /*force=*/false);
  }
}

void MpiAm::flush_frees(int src, bool force) {
  auto& q = pending_frees_[static_cast<std::size_t>(src)];
  while (q.size() >= 2) {
    const PendingFree a = q[0], b = q[1];
    q.erase(q.begin(), q.begin() + 2);
    freed_owed_[static_cast<std::size_t>(src)] -= a.len + b.len;
    ep_.request_4(src, h_free_req_, a.offset, a.len, b.offset, b.len);
    ++dev_stats_.free_msgs;
  }
  if (force && !q.empty()) {
    const PendingFree a = q[0];
    q.clear();
    freed_owed_[static_cast<std::size_t>(src)] -= a.len;
    ep_.request_2(src, h_free_req_, a.offset, a.len);
    ++dev_stats_.free_msgs;
  }
  free_age_[static_cast<std::size_t>(src)] = 0;
}

void MpiAm::consume_prefix(int src, std::byte* dst, const std::byte* data,
                           std::uint32_t len) {
  if (len > 0) {
    ctx_.charge(sim::usec(static_cast<double>(len) * cfg_.copy_us_per_byte));
    std::memcpy(dst, data, len);
  }
  const std::size_t offset =
      static_cast<std::size_t>(data - kEnvBytes - region_base_for(src));
  queue_free(src, offset, kEnvBytes + len, /*reply_token=*/nullptr);
}

void MpiAm::handle_prefix_block(int src, const WireEnv& env,
                                const std::byte* payload) {
  const std::uint64_t k = prefix_key(src, env.op_id);
  auto it = pending_prefix_.find(k);
  if (it != pending_prefix_.end()) {
    consume_prefix(src, it->second, payload, env.payload_len);
    pending_prefix_.erase(it);
    return;
  }
  // Receive not posted yet: keep a reference; the data stays parked in the
  // eager region until the announcement matches.
  prefix_stash_.emplace(k, PrefixRef{payload, env.payload_len});
}

void MpiAm::deliver_matched(const PostedRecv& r, const InMsg& m,
                            am::Token* reply_token) {
  switch (m.kind) {
    case kKindEager: {
      const std::size_t n = std::min(r.cap, m.len);
      if (n > 0) {
        ctx_.charge(sim::usec(static_cast<double>(n) * cfg_.copy_us_per_byte));
        std::memcpy(r.buf, m.data, n);
      }
      complete_req(r.req_id, Status{m.src, m.tag, n});
      const std::size_t offset = static_cast<std::size_t>(
          static_cast<const std::byte*>(m.data) - kEnvBytes -
          region_base_for(m.src));
      queue_free(m.src, offset, kEnvBytes + m.data_len, reply_token);
      break;
    }
    case kKindRdv: {
      // m.data_len carries the announced hybrid-prefix length (0 = pure
      // rendez-vous).  The remainder store goes past the prefix.
      const std::size_t prefix = m.data_len;
      const std::uint32_t recv_id = next_recv_id_++;
      recv_recs_.emplace(
          recv_id, RecvRec{r.req_id, Status{m.src, m.tag, m.len}});
      auto* ubuf = static_cast<std::byte*>(r.buf);
      if (prefix > 0) {
        const std::uint64_t k = prefix_key(m.src, m.cookie);
        auto it = prefix_stash_.find(k);
        if (it != prefix_stash_.end()) {
          // The prefix landed before the receive was posted: consume it.
          consume_prefix(m.src, ubuf, it->second.data, it->second.len);
          prefix_stash_.erase(it);
        } else {
          pending_prefix_.emplace(k, ubuf);
        }
      }
      const auto addr = reinterpret_cast<std::uint64_t>(ubuf + prefix);
      const auto op = static_cast<am::Word>(m.cookie);
      if (reply_token != nullptr) {
        ep_.reply_4(*reply_token, h_rdv_addr_reply_, op,
                    static_cast<am::Word>(addr),
                    static_cast<am::Word>(addr >> 32), recv_id);
      } else {
        ep_.request_4(m.src, h_rdv_addr_req_, op,
                      static_cast<am::Word>(addr),
                      static_cast<am::Word>(addr >> 32), recv_id);
      }
      break;
    }
    default:
      assert(false && "unknown protocol kind");
  }
}

void MpiAm::progress() {
  ep_.poll();
  drain_ready_stores();
  retry_pending_sends();
  if (cfg_.batch_frees) {
    // Pressure-based flushing: when a quarter of the peer's region is
    // owed, return it immediately (large eager messages stall otherwise);
    // small change rides along lazily, batched, off the critical path.
    const std::size_t pressure = cfg_.peer_buffer_bytes / 4;
    for (int src = 0; src < world_size_; ++src) {
      auto& q = pending_frees_[static_cast<std::size_t>(src)];
      if (q.empty()) continue;
      const bool urgent = freed_owed_[static_cast<std::size_t>(src)] >= pressure;
      if (urgent || ++free_age_[static_cast<std::size_t>(src)] >= 3) {
        flush_frees(src, /*force=*/true);
      }
    }
  }
}

void MpiAm::wait_progress() {
  // progress() opens with the endpoint poll's elapse, which takes the step.
  ctx_.arm_idle_step(&MpiAm::idle_step, this);
  progress();
}

SPAM_HOT sim::Time MpiAm::idle_step(void* self) {
  auto* mpi = static_cast<MpiAm*>(self);
  if (!mpi->ready_stores_.empty()) return 0;
  for (int n = 0; n < mpi->world_size_; ++n) {
    const auto i = static_cast<std::size_t>(n);
    if (!mpi->pending_sends_[i].empty() || !mpi->pending_frees_[i].empty()) {
      return 0;
    }
  }
  return am::Endpoint::idle_step(&mpi->ep_);
}

// ---------------------------------------------------------------------------

MpiAmNet::MpiAmNet(am::AmNet& amnet, MpiAmConfig cfg) {
  devices_.reserve(static_cast<std::size_t>(amnet.size()));
  for (int n = 0; n < amnet.size(); ++n) {
    devices_.push_back(std::make_unique<MpiAm>(
        amnet.machine().world().node(n), amnet.ep(n), cfg));
  }
  for (int i = 0; i < amnet.size(); ++i) {
    for (int j = 0; j < amnet.size(); ++j) {
      // Device i owns a region inside j for messages i -> j.
      devices_[static_cast<std::size_t>(i)]->set_peer_region_base(
          j, devices_[static_cast<std::size_t>(j)]->region_base_for(i));
    }
  }
}

}  // namespace spam::mpi
