#include "mpi/mpi.hpp"

#include <cassert>
#include <cstring>
#include <vector>

namespace spam::mpi {

bool Mpi::test(int req, Status* st) {
  Req* r = find_req(req);
  assert(r != nullptr && "unknown or already-retired request");
  if (!r->complete) return false;
  if (st != nullptr) *st = r->status;
  reqs_.erase(req);
  return true;
}

void Mpi::wait(int req, Status* st) {
  while (!test(req, st)) wait_progress();
}

void Mpi::waitall(std::vector<int>& reqs) {
  for (int r : reqs) wait(r);
  reqs.clear();
}

void Mpi::send_strided(const void* buf, std::size_t count,
                       std::size_t block_bytes, std::size_t stride_bytes,
                       int dst, int tag) {
  assert(stride_bytes >= block_bytes);
  std::vector<std::byte> packed(count * block_bytes);
  const auto* in = static_cast<const std::byte*>(buf);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(packed.data() + i * block_bytes, in + i * stride_bytes,
                block_bytes);
  }
  // Pack cost: one streaming pass over the data.
  ctx_.elapse(sim::usec(static_cast<double>(packed.size()) * 0.004));
  send(packed.data(), packed.size(), dst, tag);
}

void Mpi::recv_strided(void* buf, std::size_t count, std::size_t block_bytes,
                       std::size_t stride_bytes, int src, int tag,
                       Status* st) {
  assert(stride_bytes >= block_bytes);
  std::vector<std::byte> packed(count * block_bytes);
  recv(packed.data(), packed.size(), src, tag, st);
  auto* out = static_cast<std::byte*>(buf);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(out + i * stride_bytes, packed.data() + i * block_bytes,
                block_bytes);
  }
  ctx_.elapse(sim::usec(static_cast<double>(packed.size()) * 0.004));
}

void Mpi::sendrecv(const void* sbuf, std::size_t sbytes, int dst, int stag,
                   void* rbuf, std::size_t rbytes, int src, int rtag,
                   Status* st) {
  const int r = irecv(rbuf, rbytes, src, rtag);
  const int s = isend(sbuf, sbytes, dst, stag);
  wait(s);
  wait(r, st);
}

}  // namespace spam::mpi
