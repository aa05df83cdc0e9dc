// PayloadPool / PayloadRef: ref-counted packet payload buffers.
//
// Bulk data used to travel the simulated wire as std::vector<std::byte>,
// which meant one allocation plus one full copy per hop: host buffer ->
// chunk packets -> TX FIFO -> switch -> RX FIFO -> handler, and a second
// round for every retransmit.  A PayloadRef is a 16-byte view (buffer,
// offset, length) into a pooled ref-counted buffer: the bulk bytes are
// written once when the operation is staged, and every packet, FIFO entry
// and saved retransmit chunk shares the same buffer with a refcount bump.
//
// Buffers come from per-size-class free lists (powers of two), so steady
// state traffic performs no heap allocation.  The pool is a *per-thread*
// singleton, matching the single-threaded engine: every host thread gets
// its own arena, so shared-nothing Worlds running concurrently under
// driver::SweepRunner never contend or race.  The thread-safety contract
// is that a PayloadRef must be released on the thread that allocated it —
// which holds as long as a World and everything it touches stay on one
// thread.  None of this affects virtual time: wire occupancy is driven by
// Packet::payload_bytes, never by how the host stores the bytes.
//
// Built to run with -fno-exceptions: allocation failure aborts rather
// than throws, and out-of-range slices abort in debug builds.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace spam::sphw {

class PayloadPool;

/// Shared handle to a range of bytes in a pooled payload buffer.
/// Copying bumps a refcount; the last owner returns the buffer to the
/// pool.  Cheap to copy (16 bytes), safe to capture in event closures.
class PayloadRef {
 public:
  PayloadRef() noexcept = default;
  PayloadRef(const PayloadRef& other) noexcept;
  PayloadRef(PayloadRef&& other) noexcept
      : buf_(other.buf_), off_(other.off_), len_(other.len_) {
    other.buf_ = nullptr;
    other.off_ = 0;
    other.len_ = 0;
  }
  PayloadRef& operator=(const PayloadRef& other) noexcept;
  PayloadRef& operator=(PayloadRef&& other) noexcept;
  // Moved-from and empty handles are most of the destroyed ones: test for
  // a buffer inline and leave only a live one to release().
  ~PayloadRef() {
    if (buf_ != nullptr) release();
  }

  const std::byte* data() const noexcept;
  std::size_t size() const noexcept { return len_; }
  bool empty() const noexcept { return len_ == 0; }
  std::byte operator[](std::size_t i) const noexcept {
    assert(i < len_);
    return data()[i];
  }

  /// Writable view of the bytes.  Only legal while this handle is the
  /// sole owner (refcount 1) — once a payload has been sliced or sent,
  /// its bytes are immutable by contract.
  std::byte* mutable_data() noexcept;

  /// A sub-range sharing the same buffer (refcount bump, no copy).
  PayloadRef slice(std::size_t off, std::size_t len) const noexcept;

  /// Replaces the contents with a fresh pooled buffer of `len` bytes
  /// copied from `src` (may be null when len == 0).
  void assign(const void* src, std::size_t len);

  /// Replaces the contents with `len` copies of `fill`.
  void assign(std::size_t len, std::byte fill);

  void reset() noexcept {
    if (buf_ != nullptr) release();
    buf_ = nullptr;
    off_ = 0;
    len_ = 0;
  }

 private:
  friend class PayloadPool;

  // Drops this handle's reference to its buffer; requires buf_ != nullptr.
  void release() noexcept;

  // Points at the buffer's data area; the control header lives
  // immediately before it at a fixed offset.
  std::byte* buf_ = nullptr;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

/// Per-thread arena of ref-counted payload buffers, binned by power-of-two
/// size class and recycled through per-class free lists.
class PayloadPool {
 public:
  /// The calling thread's arena (constructed on first use, freed at thread
  /// exit).  PayloadRefs must not outlive or leave the thread whose pool
  /// produced them.
  static PayloadPool& instance() noexcept;

  /// A fresh buffer of `len` bytes, uninitialized.  refcount == 1.
  PayloadRef allocate(std::size_t len);

  /// A fresh buffer holding a copy of `src[0..len)`.
  PayloadRef copy_from(const void* src, std::size_t len);

  struct Stats {
    std::uint64_t buffers_allocated = 0;  // malloc-backed growth, total ever
    std::uint64_t buffers_reused = 0;     // served from a free list
    std::uint64_t buffers_free = 0;       // currently on free lists
    std::uint64_t bytes_allocated = 0;    // data bytes ever malloc'd
  };
  Stats stats() const noexcept { return stats_; }

 private:
  PayloadPool() = default;
  ~PayloadPool();

  friend class PayloadRef;

  struct Header {
    std::uint32_t refcount = 0;
    std::uint8_t size_class = 0;
    Header* next_free = nullptr;
  };

  // The header occupies one max_align_t-rounded slot in front of the data
  // area, so the data keeps malloc's natural alignment.
  static constexpr std::size_t kHeaderSlot =
      (sizeof(Header) + alignof(std::max_align_t) - 1) &
      ~(alignof(std::max_align_t) - 1);

  static Header* header_of(std::byte* data) noexcept;
  void release_buffer(std::byte* data) noexcept;

  static constexpr std::size_t kMinClassBytes = 64;
  static constexpr std::size_t kNumClasses = 26;  // 64 B .. 2 GiB

  Header* free_lists_[kNumClasses] = {};
  Stats stats_;
};

}  // namespace spam::sphw
