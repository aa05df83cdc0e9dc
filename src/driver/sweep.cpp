#include "driver/sweep.hpp"

#include <limits>
#include <thread>

#include "driver/annotations.hpp"
#include "driver/pool.hpp"

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
  if (n == 0) return;
  if (jobs_ <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // The pool is per-run: sweeps are coarse enough that thread start-up is
  // noise, and tearing the workers down keeps every thread-local arena
  // (payload pool, counters) bounded by the sweep that created it.
  ThreadPool pool(static_cast<unsigned>(jobs_));

  Mutex err_mu;
  std::size_t err_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;

  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&, i] {
      try {
        fn(i);
      } catch (...) {
        MutexLock lk(err_mu);
        if (i < err_index) {  // deterministic: lowest index wins
          err_index = i;
          err = std::current_exception();
        }
      }
    });
  }
  pool.wait_idle();
  if (err) std::rethrow_exception(err);
}

}  // namespace spam::driver
