#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/hot.hpp"

namespace spam::sim {

SPAM_HOT Engine::Node* Engine::acquire() {
  if (free_list_ == nullptr) {
    blocks_.push_back(std::make_unique<Node[]>(kBlockNodes));
    Node* block = blocks_.back().get();
    for (std::size_t i = 0; i < kBlockNodes; ++i) {
      block[i].next_free = free_list_;
      free_list_ = &block[i];
    }
    nodes_allocated_ += kBlockNodes;
    nodes_free_ += kBlockNodes;
  }
  Node* n = free_list_;
  free_list_ = n->next_free;
  --nodes_free_;
  return n;
}

SPAM_HOT void Engine::release(Node* n) {
  // The action has been moved out (or never set); the node slot is clean.
  n->next_free = free_list_;
  free_list_ = n;
  ++nodes_free_;
}

SPAM_HOT void Engine::sift_up(std::size_t i) {
  Node* n = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(n, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = n;
}

SPAM_HOT void Engine::sift_down(std::size_t i) {
  const std::size_t size = heap_.size();
  Node* n = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= size) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, size);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], n)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = n;
}

SPAM_HOT Engine::Node* Engine::heap_pop() {
  Node* top = heap_[0];
  Node* last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    sift_down(0);
  }
  return top;
}

SPAM_HOT std::uint64_t Engine::next_nonempty_bucket() const {
  // Precondition: calendar_count_ > 0, so some bit is set.  The window is
  // (drained_through_, drained_through_ + kBuckets]; scanning slots
  // circularly from drained_through_ + 1 visits candidates in increasing
  // absolute-bucket order, so the first set bit is the earliest bucket.
  const std::uint64_t start = drained_through_ + 1;
  const std::size_t start_slot = static_cast<std::size_t>(start & kBucketMask);
  const std::size_t start_word = start_slot / 64;
  const std::size_t start_bit = start_slot % 64;
  for (std::size_t i = 0; i <= kBitmapWords; ++i) {
    const std::size_t word = (start_word + i) % kBitmapWords;
    std::uint64_t bits = bucket_bits_[word];
    if (i == 0) {
      bits &= ~std::uint64_t{0} << start_bit;
    } else if (i == kBitmapWords) {
      // Wrapped back to the start word: only the bits below start_bit are
      // still unvisited (they are the far end of the window).
      bits &= start_bit == 0 ? 0 : ~(~std::uint64_t{0} << start_bit);
    }
    if (bits != 0) {
      const std::size_t slot =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const std::uint64_t offset = (slot - start_slot) & kBucketMask;
      return start + offset;
    }
  }
  __builtin_unreachable();  // calendar_count_ > 0 guarantees a set bit
}

SPAM_HOT void Engine::drain_bucket(std::uint64_t b) {
  const std::size_t slot = static_cast<std::size_t>(b & kBucketMask);
  Node* n = bucket_[slot];
  bucket_[slot] = nullptr;
  bucket_bits_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  const std::size_t begin = run_.size();
  while (n != nullptr) {
    Node* next = n->next_free;
    // spam-lint: capacity-ok (run_ keeps its high-water capacity; steady
    // state never reallocates, which tests/test_host_counts.cpp asserts)
    run_.push_back(n);
    n = next;
  }
  calendar_count_ -= run_.size() - begin;
  // Everything already in run_ came from earlier buckets, so sorting just
  // the appended range keeps the whole vector ordered by (t, seq).
  std::sort(run_.begin() + static_cast<std::ptrdiff_t>(begin), run_.end(),
            &Engine::earlier);
  drained_through_ = b;
  if (calendar_count_ > 0) cal_min_bucket_ = next_nonempty_bucket();
}

SPAM_HOT Engine::Node* Engine::front() {
  for (;;) {
    Node* best = run_pos_ < run_.size() ? run_[run_pos_] : nullptr;
    if (!heap_.empty() && (best == nullptr || earlier(heap_[0], best))) {
      best = heap_[0];
    }
    if (calendar_count_ == 0) return best;
    const std::uint64_t b = cal_min_bucket_;
    // Every event in bucket b (and beyond) has t >= b << kBucketShift, so a
    // strictly earlier run/heap front is the exact global minimum.
    if (best != nullptr && best->t < (b << kBucketShift)) return best;
    drain_bucket(b);
  }
}

SPAM_HOT Engine::Node* Engine::pop_min() {
  Node* best = front();
  if (best == nullptr) return nullptr;
  Node* run_front = run_pos_ < run_.size() ? run_[run_pos_] : nullptr;
  if (best == run_front) {
    ++run_pos_;
    if (run_pos_ == run_.size()) {
      run_.clear();
      run_pos_ = 0;
    }
    return best;
  }
  return heap_pop();
}

SPAM_HOT bool Engine::any_event_at_or_before(Time t) const {
  if (run_pos_ < run_.size() && run_[run_pos_]->t <= t) return true;
  if (!heap_.empty() && heap_[0]->t <= t) return true;
  if (calendar_count_ == 0) return false;
  // Later buckets start after the earliest one ends, so only the earliest
  // can straddle `t`; scan its chain rather than drain it (a drained
  // bucket's window sends later inserts to the heap).
  const std::uint64_t b = cal_min_bucket_;
  if ((b << kBucketShift) > t) return false;
  if (((b + 1) << kBucketShift) <= t) return true;
  for (const Node* n = bucket_[b & kBucketMask]; n != nullptr;
       n = n->next_free) {
    if (n->t <= t) return true;
  }
  return false;
}

SPAM_HOT void Engine::at(Time t, Action fn) {
  if (t < now_) t = now_;
  Node* n = acquire();
  n->t = t;
  n->seq = next_seq_++;
  n->fn = std::move(fn);
  if (calendar_count_ == 0) {
    // Empty calendar: rebase the window to the present so short-horizon
    // events keep landing in buckets no matter how far the clock jumped.
    const std::uint64_t now_bucket = now_ >> kBucketShift;
    if (now_bucket > drained_through_) drained_through_ = now_bucket;
  }
  const std::uint64_t b = t >> kBucketShift;
  if (b > drained_through_ && b - drained_through_ <= kBuckets) {
    const std::size_t slot = static_cast<std::size_t>(b & kBucketMask);
    n->next_free = bucket_[slot];
    bucket_[slot] = n;
    bucket_bits_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    if (calendar_count_ == 0 || b < cal_min_bucket_) cal_min_bucket_ = b;
    ++calendar_count_;
    return;
  }
  // Same-bucket-as-now or beyond the window: the heap takes it.
  // spam-lint: capacity-ok (heap_ keeps its high-water capacity; steady
  // state never reallocates, which tests/test_host_counts.cpp asserts)
  heap_.push_back(n);
  sift_up(heap_.size() - 1);
}

SPAM_HOT bool Engine::try_skip_elapse(Time d) {
  if (!fastpath_ || stopped_) return false;
  const Time target = now_ + d;
  if (run_deadline_ == 0 || target > run_deadline_) return false;
  // An event at exactly `target` must deny: per-hop mode would run it
  // before the wake timer (its seq is smaller — it was already queued).
  if (any_event_at_or_before(target)) return false;
  now_ = target;
  ++elided_;  // the wake event per-hop mode would have scheduled + popped
  return true;
}

SPAM_HOT bool Engine::step() {
  Node* n = pop_min();
  if (n == nullptr) return false;
  now_ = n->t;
  ++executed_;
  // Move the action out and recycle the node *before* invoking: the event
  // body usually schedules the next event, which then reuses this hot node.
  Action fn = std::move(n->fn);
  release(n);
  fn();
  return true;
}

SPAM_HOT std::uint64_t Engine::run() {
  stopped_ = false;
  run_deadline_ = kTimeNever;
  std::uint64_t n = 0;
  while (!stopped_ && step()) ++n;
  run_deadline_ = 0;
  return n;
}

SPAM_HOT std::uint64_t Engine::run_until(Time deadline) {
  stopped_ = false;
  run_deadline_ = deadline;
  std::uint64_t n = 0;
  while (!stopped_) {
    Node* f = front();  // exact peek: drains buckets up to the global min
    if (f == nullptr || f->t > deadline) break;
    step();
    ++n;
  }
  run_deadline_ = 0;
  return n;
}

}  // namespace spam::sim
