#include "sphw/payload.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "sim/hot.hpp"

namespace spam::sphw {
namespace {

std::size_t class_index(std::size_t len) {
  std::size_t cls = 0;
  std::size_t cap = 64;  // PayloadPool::kMinClassBytes
  while (cap < len) {
    cap <<= 1;
    ++cls;
  }
  return cls;
}

[[noreturn]] void pool_oom(std::size_t bytes) {
  std::fprintf(stderr, "PayloadPool: allocation of %zu bytes failed\n", bytes);
  std::abort();
}

}  // namespace

PayloadPool& PayloadPool::instance() noexcept {
  static thread_local PayloadPool pool;
  return pool;
}

PayloadPool::~PayloadPool() {
  // Thread exit: return the free-listed buffers to the host allocator.
  // Buffers still referenced by live PayloadRefs (a contract violation —
  // refs must not outlive their thread) are deliberately leaked rather
  // than freed under someone's feet.
  for (Header*& head : free_lists_) {
    while (head != nullptr) {
      Header* next = head->next_free;
      head->~Header();
      std::free(head);
      head = next;
    }
  }
}

SPAM_HOT PayloadPool::Header* PayloadPool::header_of(std::byte* data) noexcept {
  return std::launder(reinterpret_cast<Header*>(data - kHeaderSlot));
}

SPAM_HOT PayloadRef PayloadPool::allocate(std::size_t len) {
  PayloadRef ref;
  if (len == 0) return ref;
  const std::size_t cls = class_index(len);
  if (cls >= kNumClasses) pool_oom(len);

  Header* h = free_lists_[cls];
  if (h != nullptr) {
    free_lists_[cls] = h->next_free;
    ++stats_.buffers_reused;
    --stats_.buffers_free;
  } else {
    const std::size_t cap = kMinClassBytes << cls;
    void* raw = std::malloc(kHeaderSlot + cap);
    if (raw == nullptr) pool_oom(kHeaderSlot + cap);
    h = ::new (raw) Header;
    h->size_class = static_cast<std::uint8_t>(cls);
    ++stats_.buffers_allocated;
    stats_.bytes_allocated += cap;
  }
  h->refcount = 1;
  h->next_free = nullptr;
  ref.buf_ = reinterpret_cast<std::byte*>(h) + kHeaderSlot;
  ref.off_ = 0;
  ref.len_ = static_cast<std::uint32_t>(len);
  return ref;
}

SPAM_HOT PayloadRef PayloadPool::copy_from(const void* src, std::size_t len) {
  PayloadRef ref = allocate(len);
  if (len > 0) std::memcpy(ref.buf_, src, len);
  return ref;
}

SPAM_HOT void PayloadPool::release_buffer(std::byte* data) noexcept {
  Header* h = header_of(data);
  assert(h->refcount > 0);
  if (--h->refcount == 0) {
    h->next_free = free_lists_[h->size_class];
    free_lists_[h->size_class] = h;
    ++stats_.buffers_free;
  }
}

SPAM_HOT PayloadRef::PayloadRef(const PayloadRef& other) noexcept
    : buf_(other.buf_), off_(other.off_), len_(other.len_) {
  if (buf_ != nullptr) ++PayloadPool::header_of(buf_)->refcount;
}

SPAM_HOT PayloadRef& PayloadRef::operator=(const PayloadRef& other) noexcept {
  if (this != &other) {
    if (other.buf_ != nullptr) {
      ++PayloadPool::header_of(other.buf_)->refcount;
    }
    if (buf_ != nullptr) release();
    buf_ = other.buf_;
    off_ = other.off_;
    len_ = other.len_;
  }
  return *this;
}

SPAM_HOT PayloadRef& PayloadRef::operator=(PayloadRef&& other) noexcept {
  if (this != &other) {
    if (buf_ != nullptr) release();
    buf_ = other.buf_;
    off_ = other.off_;
    len_ = other.len_;
    other.buf_ = nullptr;
    other.off_ = 0;
    other.len_ = 0;
  }
  return *this;
}

SPAM_HOT void PayloadRef::release() noexcept {
  assert(buf_ != nullptr);
  PayloadPool::instance().release_buffer(buf_);
}

SPAM_HOT const std::byte* PayloadRef::data() const noexcept { return buf_ + off_; }

SPAM_HOT std::byte* PayloadRef::mutable_data() noexcept {
  assert(buf_ != nullptr);
  assert(PayloadPool::header_of(buf_)->refcount == 1 &&
         "mutable_data() requires sole ownership");
  return buf_ + off_;
}

SPAM_HOT PayloadRef PayloadRef::slice(std::size_t off, std::size_t len) const noexcept {
  assert(off + len <= len_);
  PayloadRef r;
  if (buf_ != nullptr && len > 0) {
    ++PayloadPool::header_of(buf_)->refcount;
    r.buf_ = buf_;
    r.off_ = off_ + static_cast<std::uint32_t>(off);
    r.len_ = static_cast<std::uint32_t>(len);
  }
  return r;
}

void PayloadRef::assign(const void* src, std::size_t len) {
  *this = PayloadPool::instance().copy_from(src, len);
}

void PayloadRef::assign(std::size_t len, std::byte fill) {
  *this = PayloadPool::instance().allocate(len);
  if (len > 0) std::memset(buf_, static_cast<int>(fill), len);
}

}  // namespace spam::sphw
