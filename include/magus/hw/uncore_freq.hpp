#pragma once
// Uncore frequency ladder + the MSR-backed frequency controller.
//
// The ladder models what the silicon actually supports: a [min, max] range in
// 100 MHz ratio steps (0.8-2.2 GHz on Ice Lake SP, 0.8-2.5 GHz on Sapphire
// Rapids Max). The controller is the one place that touches MSR 0x620, and it
// only rewrites the MAX_RATIO field, leaving MIN_RATIO and reserved bits
// intact (paper section 4).

#include <algorithm>
#include <vector>

#include "magus/common/units.hpp"
#include "magus/hw/msr.hpp"

namespace magus::telemetry {
class Counter;
class MetricsRegistry;
}  // namespace magus::telemetry

namespace magus::hw {

class UncoreFreqLadder {
 public:
  /// Both bounds inclusive, in GHz, quantised to 100 MHz ratios.
  UncoreFreqLadder(double min_ghz, double max_ghz);

  [[nodiscard]] double min_ghz() const noexcept;
  [[nodiscard]] double max_ghz() const noexcept;
  [[nodiscard]] unsigned min_ratio() const noexcept { return min_ratio_; }
  [[nodiscard]] unsigned max_ratio() const noexcept { return max_ratio_; }

  /// Number of distinct ratio steps (inclusive range).
  [[nodiscard]] unsigned steps() const noexcept { return max_ratio_ - min_ratio_ + 1; }

  /// Clamp + quantise an arbitrary GHz request onto the ladder. Inline: the
  /// simulator's tick kernel clamps every socket's firmware cap every tick.
  [[nodiscard]] double clamp_ghz(double ghz) const noexcept {
    return common::ratio_to_ghz(clamp_ratio(common::ghz_to_ratio(ghz)));
  }
  [[nodiscard]] unsigned clamp_ratio(unsigned ratio) const noexcept {
    return std::clamp(ratio, min_ratio_, max_ratio_);
  }

  /// One ratio step down/up from `ghz`, saturating at the ladder bounds.
  [[nodiscard]] double step_down(double ghz) const noexcept;
  [[nodiscard]] double step_up(double ghz) const noexcept;

  /// All ladder frequencies, ascending, in GHz.
  [[nodiscard]] std::vector<double> frequencies() const;

  bool operator==(const UncoreFreqLadder&) const = default;

 private:
  unsigned min_ratio_;
  unsigned max_ratio_;
};

/// Writes uncore max-frequency requests through an IMsrDevice.
class UncoreFreqController {
 public:
  UncoreFreqController(IMsrDevice& msr, UncoreFreqLadder ladder);

  /// Set the max-ratio limit on every socket (clamped to the ladder).
  void set_max_ghz_all(double ghz);

  /// Set the max-ratio limit on one socket.
  void set_max_ghz(int socket, double ghz);

  /// Read back the currently programmed limit for a socket.
  [[nodiscard]] UncoreRatioLimit read_limit(int socket);

  [[nodiscard]] const UncoreFreqLadder& ladder() const noexcept { return ladder_; }
  [[nodiscard]] int socket_count() const { return msr_.socket_count(); }

  /// Number of MSR writes performed (for overhead accounting).
  [[nodiscard]] unsigned long long write_count() const noexcept { return writes_; }

  /// Mirror the write count into `magus_hw_msr_writes_total` on `reg`.
  void attach_telemetry(telemetry::MetricsRegistry& reg);

 private:
  IMsrDevice& msr_;
  UncoreFreqLadder ladder_;
  unsigned long long writes_ = 0;
  telemetry::Counter* m_writes_ = nullptr;
};

}  // namespace magus::hw
