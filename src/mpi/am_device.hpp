// MPI point-to-point device over SP Active Messages (paper section 4).
//
// Three wire protocols:
//  * buffered (eager): the sender owns a 16 KB region inside the receiver
//    and allocates space for [envelope][payload] blocks locally — the
//    am_store's handler matches the envelope and, once the message is
//    copied into the user's receive buffer, space is returned to the
//    sender with a free message (an am_reply when the receive was already
//    posted, an am_request otherwise);
//  * rendez-vous: an am_request announces (tag, len, op); the receiver
//    answers with the user buffer address once a matching receive exists;
//    the sender then stores straight into the user buffer.  Per the paper,
//    the address-arrival handler may NOT issue the store itself — it queues
//    the transfer, and progress() performs it;
//  * hybrid: for large messages the first 4 KB travel eagerly as a prefix
//    (doubling as the rendez-vous announcement) while the rest waits for
//    the address, removing MPI-F's bandwidth discontinuity at the protocol
//    switch.  If no buffer space is available it degrades to rendez-vous.
//
// The unoptimized configuration reproduces the paper's first cut:
// first-fit-only allocation, one free message per buffer, no hybrid, a
// 16 KB protocol switch, and a heavier software path.  The optimized one
// adds the binned allocator, batched frees, the hybrid protocol, and an
// 8 KB switch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "am/net.hpp"
#include "mpi/buffer_alloc.hpp"
#include "mpi/match.hpp"
#include "mpi/mpi.hpp"

namespace spam::mpi {

struct MpiAmConfig {
  bool optimized = true;
  std::size_t peer_buffer_bytes = 16 * 1024;
  /// Messages up to this size use the buffered protocol.
  std::size_t eager_max = 8 * 1024;
  bool hybrid = true;
  std::size_t hybrid_prefix = 4 * 1024;
  bool binned_allocator = true;
  bool batch_frees = true;
  int free_batch = 2;  // frees carried per free message (request_4 fits 2)
  /// Per-message MPI software costs (header build, queue walks).
  double sw_send_us = 1.0;
  double sw_recv_us = 1.0;
  /// Cache-resident copy between the eager buffer and the user buffer.
  double copy_us_per_byte = 0.008;
  /// CPU cost per first-fit search step (the cost the paper found "major"
  /// for small messages; the binned fast path pays one step).
  double alloc_step_us = 0.2;

  static MpiAmConfig opt() { return MpiAmConfig{}; }
  static MpiAmConfig unopt() {
    MpiAmConfig c;
    c.optimized = false;
    c.eager_max = 16 * 1024 - 64;  // switch at ~16 KB, within the region
    c.hybrid = false;
    c.binned_allocator = false;
    c.batch_frees = false;
    c.sw_send_us = 3.0;
    c.sw_recv_us = 3.0;
    return c;
  }
};

class MpiAm final : public Mpi {
 public:
  MpiAm(sim::NodeCtx& ctx, am::Endpoint& ep, MpiAmConfig cfg);

  int rank() const override { return ep_.rank(); }
  int size() const override { return world_size_; }
  int isend(const void* buf, std::size_t bytes, int dst, int tag) override;
  int irecv(void* buf, std::size_t bytes, int src, int tag) override;
  void progress() override;
  void wait_progress() override;

  /// Wires the sender-side view of peer regions; called by MpiAmNet after
  /// all devices exist.
  void set_peer_region_base(int peer, std::byte* base);
  std::byte* region_base_for(int src) {
    return regions_[static_cast<std::size_t>(src)].data();
  }

  struct DevStats {
    std::uint64_t eager_sends = 0;
    std::uint64_t rdv_sends = 0;
    std::uint64_t hybrid_sends = 0;
    std::uint64_t free_msgs = 0;
    std::uint64_t sends_blocked_on_buffer = 0;
  };
  const DevStats& dev_stats() const { return dev_stats_; }
  am::Endpoint& endpoint() { return ep_; }
  const MpiAmConfig& config() const { return cfg_; }

 private:
  // Protocol kinds in envelopes / InMsg.kind.
  static constexpr std::uint32_t kKindEager = 1;
  static constexpr std::uint32_t kKindHybridPrefix = 2;
  static constexpr std::uint32_t kKindRdv = 3;

  struct WireEnv {
    std::int32_t tag = 0;
    std::uint32_t kind = 0;
    std::uint64_t total_len = 0;
    std::uint32_t op_id = 0;
    std::uint32_t payload_len = 0;  // bytes present in this block
  };
  static constexpr std::size_t kEnvBytes = sizeof(WireEnv);

  /// Sender-side record of a rendez-vous / hybrid operation.
  struct SendOp {
    int req_id = 0;
    int dst = -1;
    const std::byte* src = nullptr;
    std::size_t len = 0;
    std::size_t prefix_sent = 0;
    std::vector<std::byte> owned;  // snapshot for drained pending sends
  };

  /// A queued send that could not allocate eager space yet.
  struct PendingSend {
    int req_id;
    int dst;
    int tag;
    std::vector<std::byte> data;  // snapshot: MPI send buffer is reusable
  };

  /// Receiver-side record awaiting rendez-vous data.
  struct RecvRec {
    int req_id = 0;
    Status status;
  };

  /// A transfer whose destination address arrived; progress() executes it.
  struct ReadyStore {
    std::uint32_t op_id;
    std::uint64_t addr;
    std::uint32_t recv_id;
  };

  static std::uint64_t prefix_key(int src, std::uint64_t op_id) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           (op_id & 0xffffffffu);
  }
  void install_handlers();
  /// alloc() with the search cost charged to virtual time.
  std::size_t charged_alloc(BufferAllocator& alloc, std::size_t need);
  void consume_prefix(int src, std::byte* dst, const std::byte* data,
                      std::uint32_t len);
  void handle_prefix_block(int src, const WireEnv& env,
                           const std::byte* payload);
  bool try_eager(int req_id, int dst, int tag, const std::byte* data,
                 std::size_t len);
  void start_rendezvous(int req_id, int dst, int tag, const std::byte* src,
                        std::size_t len);
  void queue_free(int src, std::size_t offset, std::size_t alloc_len,
                  am::Token* reply_token);
  void flush_frees(int src, bool force);
  void deliver_matched(const PostedRecv& r, const InMsg& m,
                       am::Token* reply_token);
  void drain_ready_stores();
  void retry_pending_sends();
  /// NodeCtx::IdleStep over an MpiAm*: a progress() with no ready store,
  /// pending send or pending free does nothing past its poll, so an empty
  /// poll (am::Endpoint::idle_step) makes it empty.
  static sim::Time idle_step(void* self);

  am::Endpoint& ep_;
  MpiAmConfig cfg_;
  int world_size_;

  // Receiver side: one eager region per source.
  std::vector<std::vector<std::byte>> regions_;
  MatchEngine match_;
  std::unordered_map<std::uint32_t, RecvRec> recv_recs_;
  std::uint32_t next_recv_id_ = 1;
  // Hybrid-prefix bookkeeping: destinations waiting for a prefix block,
  // and prefix blocks that landed before their announcement matched.
  std::unordered_map<std::uint64_t, std::byte*> pending_prefix_;
  struct PrefixRef {
    const std::byte* data;
    std::uint32_t len;
  };
  std::unordered_map<std::uint64_t, PrefixRef> prefix_stash_;

  // Sender side.
  std::vector<std::byte*> peer_region_base_;
  std::vector<std::unique_ptr<BufferAllocator>> alloc_;
  std::unordered_map<std::uint32_t, SendOp> send_ops_;
  std::uint32_t next_op_id_ = 1;
  std::vector<std::deque<PendingSend>> pending_sends_;
  std::deque<ReadyStore> ready_stores_;

  // Receiver-side pending frees, per source, plus an age counter.
  struct PendingFree {
    std::uint32_t offset;
    std::uint32_t len;
  };
  std::vector<std::vector<PendingFree>> pending_frees_;
  std::vector<int> free_age_;
  /// Bytes of the per-source region we have consumed but not yet returned.
  std::vector<std::size_t> freed_owed_;
  /// Nonzero while executing inside an AM handler (restricts what the
  /// receive path may send: replies only, no fresh requests).
  int handler_depth_ = 0;

  // AM handler indices (identical on every node by construction order).
  int h_free_req_ = 0;
  int h_free_reply_ = 0;
  int h_eager_ = 0;       // bulk handler: eager/hybrid-prefix block landed
  int h_rdv_req_ = 0;     // request: rendez-vous announcement
  int h_rdv_addr_req_ = 0;    // request: receive-buffer address
  int h_rdv_addr_reply_ = 0;  // reply: receive-buffer address
  int h_rdv_done_ = 0;    // bulk handler: rendez-vous data landed

  DevStats dev_stats_;
};

/// One MpiAm device per node over a shared AmNet.
class MpiAmNet {
 public:
  MpiAmNet(am::AmNet& amnet, MpiAmConfig cfg = MpiAmConfig::opt());
  MpiAm& mpi(int node) { return *devices_.at(node); }
  int size() const { return static_cast<int>(devices_.size()); }

 private:
  std::vector<std::unique_ptr<MpiAm>> devices_;
};

}  // namespace spam::mpi
