// Virtual time for the discrete-event simulation.
//
// All simulated time is kept in integral nanoseconds so that event ordering
// is exact and runs are bit-reproducible across platforms.  Helpers convert
// to/from the microsecond units the paper reports in.
#pragma once

#include <cstdint>

namespace spam::sim {

/// Virtual simulation time in nanoseconds since the start of the run.
using Time = std::uint64_t;

/// One microsecond expressed in simulation ticks.
inline constexpr Time kUsec = 1000;
/// One millisecond expressed in simulation ticks.
inline constexpr Time kMsec = 1000 * kUsec;
/// One second expressed in simulation ticks.
inline constexpr Time kSec = 1000 * kMsec;

/// "Never": later than any reachable virtual instant.
inline constexpr Time kTimeNever = ~Time{0};

/// Converts a duration in (possibly fractional) microseconds to ticks,
/// rounding to the nearest nanosecond.
constexpr Time usec(double us) { return static_cast<Time>(us * 1e3 + 0.5); }

/// Converts ticks to microseconds as a double (for reporting).
constexpr double to_usec(Time t) { return static_cast<double>(t) / 1e3; }

/// Converts ticks to seconds as a double (for reporting).
constexpr double to_sec(Time t) { return static_cast<double>(t) / 1e9; }

/// Duration of transferring `bytes` at `mbytes_per_sec` (MB/s, 10^6-based),
/// rounded up so a nonzero transfer always takes at least one tick.
constexpr Time transfer_time(std::uint64_t bytes, double mbytes_per_sec) {
  if (bytes == 0 || mbytes_per_sec <= 0.0) return 0;
  const double ns = static_cast<double>(bytes) * 1e3 / mbytes_per_sec;
  const Time t = static_cast<Time>(ns + 0.999999);
  return t == 0 ? 1 : t;
}

}  // namespace spam::sim
