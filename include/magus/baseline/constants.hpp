#pragma once
// Settings every comparator baseline shares. Each comparator reproduces the
// fixed design of its paper, so these are constants, not config fields; the
// per-policy thresholds sit next to the code that reads them.

namespace magus::baseline {

/// Monitoring period of every comparator and of the static policies (s),
/// the same 0.2 s MAGUS samples at.
inline constexpr double kPeriodS = 0.2;

/// Capacity model of the bandwidth-utilisation comparators (DUF, EcoShift,
/// deadline, comppow): deliverable node MB/s per GHz of uncore, calibrated
/// once per platform. The deadline controller starts its learned
/// coefficient here.
inline constexpr double kCapacityMbpsPerGhz = 72'000.0;

}  // namespace magus::baseline
