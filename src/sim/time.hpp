// Simulated-time representation for the RAID-x cluster simulator.
//
// Time is an integer count of nanoseconds since simulation start.  An
// integral representation keeps event ordering exact and runs reproducible:
// two events scheduled for the same instant always compare equal, so tie
// breaking is fully determined by insertion order (see EventQueue).
#pragma once

#include <cstdint>

namespace raidx::sim {

/// Simulated time in nanoseconds.
using Time = std::int64_t;

/// The longest span a double converts to, in seconds: its nanoseconds
/// fit a Time with room to spare (the clock itself ends at ~292 years).
inline constexpr double kMaxSpanSeconds = 9e9;

/// `ns` rounded toward zero, saturated at +-kMaxSpanSeconds (NaN reads as
/// the top): a wait paced by an absurd rate is absurd, never undefined.
constexpr Time saturate_ns(double ns) {
  constexpr double kMax = kMaxSpanSeconds * 1e9;
  if (!(ns < kMax)) return static_cast<Time>(kMax);
  if (ns < -kMax) return -static_cast<Time>(kMax);
  return static_cast<Time>(ns);
}

/// Time-duration helpers.  All return nanosecond counts.
constexpr Time nanoseconds(std::int64_t v) { return v; }
constexpr Time microseconds(double v) { return saturate_ns(v * 1e3); }
constexpr Time milliseconds(double v) { return saturate_ns(v * 1e6); }
constexpr Time seconds(double v) { return saturate_ns(v * 1e9); }

/// Conversions back to floating-point units for reporting.
constexpr double to_seconds(Time t) { return static_cast<double>(t) * 1e-9; }
constexpr double to_milliseconds(Time t) {
  return static_cast<double>(t) * 1e-6;
}
constexpr double to_microseconds(Time t) {
  return static_cast<double>(t) * 1e-3;
}

/// Bandwidth helper: time to move `bytes` at `mb_per_s` (1 MB = 1e6 bytes,
/// matching how the paper quotes link and disk rates).
constexpr Time transfer_time(std::uint64_t bytes, double mb_per_s) {
  return seconds(static_cast<double>(bytes) / (mb_per_s * 1e6));
}

/// Inverse of transfer_time, for reporting aggregate bandwidth in MB/s.
constexpr double bandwidth_mbs(std::uint64_t bytes, Time elapsed) {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(bytes) / 1e6 / to_seconds(elapsed);
}

}  // namespace raidx::sim
