// Split-C over SP Active Messages — the paper's Split-C port.
//
// Scalar puts/gets map to am_request_4 / am_reply_4 (addresses and values
// packed into the four 32-bit argument words); bulk operations map to
// am_store_async / am_get.  All backends must be constructed in the same
// order on every node so handler indices agree across endpoints.
#pragma once

#include <cstddef>
#include <cstdint>

#include "am/endpoint.hpp"
#include "splitc/transport.hpp"

namespace spam::splitc {

class AmBackend final : public Transport {
 public:
  explicit AmBackend(am::Endpoint& ep);

  int rank() const override { return ep_.rank(); }
  int size() const override;
  void put_small(int dst, void* dst_addr, std::uint64_t bits,
                 int len) override;
  void get_small(int dst, const void* src_addr, void* local_addr,
                 int len) override;
  void bulk_put(int dst, void* dst_addr, const void* src,
                std::size_t len) override;
  void bulk_get(int dst, const void* src_addr, void* dst_addr,
                std::size_t len) override;
  int outstanding() const override { return outstanding_; }
  void poll() override { ep_.poll(); }
  void wait_poll() override { ep_.wait_poll(); }

  am::Endpoint& endpoint() { return ep_; }

 private:
  am::Endpoint& ep_;
  int outstanding_ = 0;
  int h_put_ = 0;       // request: scalar put (len in arg packing)
  int h_put_ack_ = 0;   // reply: put acknowledged
  int h_get_ = 0;       // request: scalar get
  int h_get_reply_ = 0; // reply: scalar get data
};

}  // namespace spam::splitc
