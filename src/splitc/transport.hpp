// Backend abstraction for the Split-C runtime.
//
// Split-C's split-phase model needs only counted remote-memory operations:
// issue any number of puts/gets, then sync() until outstanding() drains.
// Three backends implement this: SP AM (the paper's port), MPL (the
// baseline port the paper compares against), and LogGP endpoints modelling
// the CM-5 / CS-2 / U-Net machines of Table 4.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spam::splitc {

class Transport {
 public:
  virtual ~Transport() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Split-phase scalar put: writes the low `len` bytes (1..8) of `bits`
  /// to `dst_addr` on node `dst`.  Completion counted in outstanding().
  virtual void put_small(int dst, void* dst_addr, std::uint64_t bits,
                         int len) = 0;

  /// Split-phase scalar get: fetches `len` bytes (1..8) from `src_addr` on
  /// `dst` into local `local_addr`.
  virtual void get_small(int dst, const void* src_addr, void* local_addr,
                         int len) = 0;

  /// Split-phase bulk transfers.
  virtual void bulk_put(int dst, void* dst_addr, const void* src,
                        std::size_t len) = 0;
  virtual void bulk_get(int dst, const void* src_addr, void* dst_addr,
                        std::size_t len) = 0;

  /// Operations issued and not yet completed.
  virtual int outstanding() const = 0;

  /// Makes communication progress (services incoming ops, acks, ...).
  virtual void poll() = 0;

  /// One poll of a runtime wait loop (sync, barrier, collectives), whose
  /// condition only this node's incoming operations can change.  Backends
  /// whose polls can run off the node's fiber override it (see
  /// am::Endpoint::wait_poll); the rest poll.
  virtual void wait_poll() { poll(); }

  /// Relative computation slowdown of this machine vs. the SP (1.0 = SP).
  virtual double cpu_scale() const { return 1.0; }
};

}  // namespace spam::splitc
