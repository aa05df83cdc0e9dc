#include "driver/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace spam::driver {

SweepRunner::SweepRunner(int jobs) {
  if (jobs <= 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    jobs = hc == 0 ? 1 : static_cast<int>(hc);
  }
  jobs_ = jobs;
}

void SweepRunner::run_indexed(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (jobs_ <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Each thread claims the next unclaimed index, so an idle thread always
  // takes the next point.  A failure lands in its own slot: only the thread
  // that ran point i writes errors[i], and the joins publish every slot
  // (results and errors) to this thread, so nothing needs a lock.
  //
  // The threads are per-run: sweeps are coarse enough that thread start-up
  // is noise, and joining them keeps every thread-local arena (payload
  // pool, counters) bounded by the sweep that created it.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  {
    auto worker = [&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    // std::jthread joins in its destructor, so the threads are joined here
    // even if starting a later one throws.
    std::vector<std::jthread> threads;
    const std::size_t nthreads = std::min(static_cast<std::size_t>(jobs_), n);
    threads.reserve(nthreads);
    for (std::size_t t = 0; t < nthreads; ++t) threads.emplace_back(worker);
  }

  // Deterministic: the lowest-indexed failure is what a serial run throws.
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace spam::driver
