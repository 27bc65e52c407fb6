#include "magus/hw/uncore_freq.hpp"


#include "magus/common/error.hpp"
#include "magus/common/units.hpp"
#include "magus/telemetry/registry.hpp"

namespace magus::hw {

UncoreFreqLadder::UncoreFreqLadder(double min_ghz, double max_ghz)
    : min_ratio_(common::ghz_to_ratio(min_ghz)), max_ratio_(common::ghz_to_ratio(max_ghz)) {
  if (min_ratio_ == 0 || max_ratio_ < min_ratio_) {
    throw common::ConfigError("UncoreFreqLadder: invalid range");
  }
}

double UncoreFreqLadder::min_ghz() const noexcept { return common::ratio_to_ghz(min_ratio_); }
double UncoreFreqLadder::max_ghz() const noexcept { return common::ratio_to_ghz(max_ratio_); }

double UncoreFreqLadder::step_down(double ghz) const noexcept {
  const unsigned r = clamp_ratio(common::ghz_to_ratio(ghz));
  return common::ratio_to_ghz(r > min_ratio_ ? r - 1 : min_ratio_);
}

double UncoreFreqLadder::step_up(double ghz) const noexcept {
  const unsigned r = clamp_ratio(common::ghz_to_ratio(ghz));
  return common::ratio_to_ghz(r < max_ratio_ ? r + 1 : max_ratio_);
}

std::vector<double> UncoreFreqLadder::frequencies() const {
  std::vector<double> fs;
  fs.reserve(steps());
  for (unsigned r = min_ratio_; r <= max_ratio_; ++r) fs.push_back(common::ratio_to_ghz(r));
  return fs;
}

UncoreFreqController::UncoreFreqController(IMsrDevice& msr, UncoreFreqLadder ladder)
    : msr_(msr), ladder_(ladder) {}

void UncoreFreqController::set_max_ghz_all(double ghz) {
  for (int s = 0; s < msr_.socket_count(); ++s) set_max_ghz(s, ghz);
}

void UncoreFreqController::set_max_ghz(int socket, double ghz) {
  const std::uint64_t raw = msr_.read(socket, msr::kUncoreRatioLimit);
  UncoreRatioLimit limit = UncoreRatioLimit::decode(raw);
  const unsigned target = ladder_.clamp_ratio(common::ghz_to_ratio(ghz));
  if (limit.max_ratio == target) return;  // already programmed; skip the write
  limit.max_ratio = target;
  // MIN_RATIO and reserved bits pass through untouched.
  msr_.write(socket, msr::kUncoreRatioLimit, limit.encode(raw));
  ++writes_;
  telemetry::inc(m_writes_);
}

void UncoreFreqController::attach_telemetry(telemetry::MetricsRegistry& reg) {
  m_writes_ = reg.counter("magus_hw_msr_writes_total",
                          "MSR 0x620 max-ratio writes issued by the uncore controller");
}

UncoreRatioLimit UncoreFreqController::read_limit(int socket) {
  return UncoreRatioLimit::decode(msr_.read(socket, msr::kUncoreRatioLimit));
}

}  // namespace magus::hw
