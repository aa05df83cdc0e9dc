// SweepRunner: deterministic parallel execution of independent simulation
// points.
//
// A *sweep* is a vector of closures, each of which constructs and runs its
// own shared-nothing sim::World.  SweepRunner executes them across N host
// threads, each taking the next unclaimed point, and writes each result
// into the slot indexed by its job id, so aggregated output is
// byte-identical to serial execution regardless of completion order.  Each
// point is itself a deterministic simulation (same seed => same virtual
// numbers), so the *values* cannot depend on the thread that computed them
// — the runner only has to keep the aggregation order fixed, which
// slot-indexed results do by construction.
//
// Thread-safety contract (see docs/simulator.md): a job owns everything it
// touches.  One World per thread at a time, engine/payload/trace state is
// thread-local, and nothing simulated crosses threads.  Jobs communicate
// only through their return slots.
//
// Exceptions: all jobs run to completion even if some throw; afterwards
// the exception of the *lowest-indexed* failed job is rethrown.  Serial
// execution (jobs == 1) throws at the first failure, which is the same
// observable exception, since all lower-indexed jobs had succeeded.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace spam::driver {

class SweepRunner {
 public:
  /// `jobs` <= 0 selects hardware_concurrency.  jobs == 1 runs everything
  /// inline on the calling thread (no thread is started).
  explicit SweepRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  /// Runs fn(0) .. fn(n-1) on min(jobs, n) threads started for this call;
  /// returns when all completed.  n == 1 also runs inline.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs every closure; results land in slot [i] for closure [i].
  template <typename R>
  std::vector<R> run(const std::vector<std::function<R()>>& points) {
    std::vector<R> out(points.size());
    run_indexed(points.size(),
                [&](std::size_t i) { out[i] = points[i](); });
    return out;
  }

 private:
  int jobs_;
};

}  // namespace spam::driver
