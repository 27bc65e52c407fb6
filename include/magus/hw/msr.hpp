#pragma once
// Model-Specific Register definitions and the MSR 0x620 uncore-ratio codec.
//
// MAGUS controls the uncore by rewriting the MAX_RATIO field of
// MSR_UNCORE_RATIO_LIMIT (0x620) while preserving the MIN_RATIO field,
// exactly as described in section 4 of the paper. Ratios are in 100 MHz
// units: ratio 22 == 2.2 GHz.

#include <cstdint>

namespace magus::hw {

/// Registers used by MAGUS and the UPS baseline.
namespace msr {
inline constexpr std::uint32_t kUncoreRatioLimit = 0x620;  ///< RW: uncore min/max ratio
inline constexpr std::uint32_t kRaplPowerUnit = 0x606;     ///< RO: RAPL unit divisors
inline constexpr std::uint32_t kPkgEnergyStatus = 0x611;   ///< RO: pkg energy (32-bit wrap)
inline constexpr std::uint32_t kDramEnergyStatus = 0x619;  ///< RO: DRAM energy (32-bit wrap)
inline constexpr std::uint32_t kUncorePerfStatus = 0x621;  ///< RO: current uncore ratio
inline constexpr std::uint32_t kInstRetired = 0x309;       ///< RO: fixed ctr0, inst retired
inline constexpr std::uint32_t kCpuClkUnhalted = 0x30A;    ///< RO: fixed ctr1, core cycles
}  // namespace msr

/// Decoded view of MSR 0x620. Bits 6:0 hold the max ratio, bits 14:8 the min
/// ratio; all other bits are reserved and must be preserved on write.
struct UncoreRatioLimit {
  unsigned max_ratio = 0;  ///< 100 MHz units
  unsigned min_ratio = 0;  ///< 100 MHz units

  [[nodiscard]] static UncoreRatioLimit decode(std::uint64_t raw) noexcept;

  /// Re-encode on top of `previous_raw`, preserving reserved bits.
  [[nodiscard]] std::uint64_t encode(std::uint64_t previous_raw = 0) const noexcept;

  [[nodiscard]] double max_ghz() const noexcept;
  [[nodiscard]] double min_ghz() const noexcept;

  bool operator==(const UncoreRatioLimit&) const = default;
};

/// Abstract per-socket MSR device. Implementations: LaneMsrDevice (simulator)
/// and LinuxMsrDevice (/dev/cpu/*/msr).
class IMsrDevice {
 public:
  virtual ~IMsrDevice() = default;

  [[nodiscard]] virtual int socket_count() const = 0;

  /// Read a 64-bit MSR on `socket`. Throws common::DeviceError on failure.
  [[nodiscard]] virtual std::uint64_t read(int socket, std::uint32_t reg) = 0;

  /// Write a 64-bit MSR on `socket`. Throws common::DeviceError on failure.
  virtual void write(int socket, std::uint32_t reg, std::uint64_t value) = 0;
};

}  // namespace magus::hw
