// Abstract MPI interface: point-to-point virtuals provided by a device
// (MPI-over-AM, or the MPI-F baseline) plus MPICH-style collectives
// implemented over point-to-point in collectives.cpp.
//
// The generic collectives deliberately reproduce MPICH's shapes, including
// the naive MPI_Alltoall whose synchronized hot spot the paper blames for
// the FT benchmark gap; devices with tuned_collectives() get a staggered
// alltoall like IBM's MPI-F.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mpi/types.hpp"
#include "sim/world.hpp"

namespace spam::mpi {

class Mpi {
 public:
  explicit Mpi(sim::NodeCtx& ctx) : ctx_(ctx) {}
  virtual ~Mpi() = default;

  Mpi(const Mpi&) = delete;
  Mpi& operator=(const Mpi&) = delete;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  // --- Point-to-point (device-provided) ------------------------------------

  /// Nonblocking send; completes when the user buffer is reusable.
  virtual int isend(const void* buf, std::size_t bytes, int dst, int tag) = 0;
  /// Nonblocking receive.
  virtual int irecv(void* buf, std::size_t bytes, int src, int tag) = 0;
  /// Drives the device: services handlers, pending protocol steps.
  virtual void progress() = 0;
  /// One progress() of a blocking wait, whose request completes only in
  /// this node's handlers or its own progress.  Devices whose empty
  /// progress can run off the node's fiber override it (MPI-AM); the rest
  /// progress.
  virtual void wait_progress() { progress(); }

  // --- Blocking wrappers and completion (shared) ---------------------------

  void send(const void* buf, std::size_t bytes, int dst, int tag) {
    wait(isend(buf, bytes, dst, tag));
  }
  void recv(void* buf, std::size_t bytes, int src, int tag,
            Status* st = nullptr) {
    wait(irecv(buf, bytes, src, tag), st);
  }
  void sendrecv(const void* sbuf, std::size_t sbytes, int dst, int stag,
                void* rbuf, std::size_t rbytes, int src, int rtag,
                Status* st = nullptr);

  /// Tests a request; if complete, retires it and fills `st`.
  bool test(int req, Status* st = nullptr);
  /// Blocks (driving progress) until the request completes; retires it.
  void wait(int req, Status* st = nullptr);
  void waitall(std::vector<int>& reqs);

  /// Virtual time in seconds (MPI_Wtime).
  double wtime() { return sim::to_sec(ctx_.now()); }
  sim::NodeCtx& ctx() { return ctx_; }

  // --- Collectives (shared, built on point-to-point) ------------------------

  void barrier();
  void bcast(void* buf, std::size_t bytes, int root);
  void gather(const void* sbuf, std::size_t bytes, void* rbuf, int root);
  void scatter(const void* sbuf, std::size_t bytes, void* rbuf, int root);
  void reduce(const void* sbuf, void* rbuf, std::size_t count, Dtype t,
              ReduceOp op, int root);
  void allreduce(const void* sbuf, void* rbuf, std::size_t count, Dtype t,
                 ReduceOp op);
  /// Sends `bytes` to every rank (block i of sbuf to rank i).
  void alltoall(const void* sbuf, void* rbuf, std::size_t bytes);
  void allgather(const void* sbuf, std::size_t bytes, void* rbuf);

  // --- Noncontiguous (vector-type) transfers -------------------------------
  // MPICH's generic layers pack noncontiguous data and ship it through the
  // contiguous point-to-point path — exactly what the paper relies on
  // ("relies on the higher-level MPICH routines for ... non-contiguous
  // sends").  `count` blocks of `block_bytes`, each `stride_bytes` apart.

  void send_strided(const void* buf, std::size_t count,
                    std::size_t block_bytes, std::size_t stride_bytes,
                    int dst, int tag);
  void recv_strided(void* buf, std::size_t count, std::size_t block_bytes,
                    std::size_t stride_bytes, int src, int tag,
                    Status* st = nullptr);

  struct CollStats {
    std::uint64_t barriers = 0;
    std::uint64_t bcasts = 0;
    std::uint64_t reduces = 0;
    std::uint64_t alltoalls = 0;
  };
  const CollStats& coll_stats() const { return coll_stats_; }

 protected:
  /// Devices with vendor-tuned collectives (MPI-F) stagger the alltoall.
  virtual bool tuned_collectives() const { return false; }

  // Request table shared by devices.
  struct Req {
    bool complete = false;
    bool is_recv = false;
    Status status;
  };
  int alloc_req(bool is_recv) {
    const int id = next_req_++;
    reqs_.emplace(id, Req{false, is_recv, {}});
    return id;
  }
  void complete_req(int id, Status st = {}) {
    auto it = reqs_.find(id);
    if (it == reqs_.end()) return;
    it->second.complete = true;
    it->second.status = st;
  }
  Req* find_req(int id) {
    auto it = reqs_.find(id);
    return it == reqs_.end() ? nullptr : &it->second;
  }

  /// Tag space reserved for collectives; user tags must stay below this.
  static constexpr int kCollTagBase = 1 << 20;
  int next_coll_tag() {
    // Cycle within a window so long runs do not exhaust the tag space.
    coll_seq_ = (coll_seq_ + 1) & 0xffff;
    return kCollTagBase + coll_seq_;
  }

  sim::NodeCtx& ctx_;
  std::unordered_map<int, Req> reqs_;
  int next_req_ = 1;
  int coll_seq_ = 0;
  CollStats coll_stats_;
};

}  // namespace spam::mpi
