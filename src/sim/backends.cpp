#include "magus/sim/backends.hpp"

#include <stdexcept>
#include <string>

#include "magus/common/error.hpp"
#include "magus/common/quantity.hpp"
#include "magus/common/units.hpp"

namespace magus::sim {

const hw::RaplUnits& sim_rapl_units() noexcept {
  /// Typical server RAPL units: energy LSB = 1/2^14 J (61 uJ).
  static const hw::RaplUnits kSimRaplUnits{3, 14, 10};
  return kSimRaplUnits;
}

std::uint64_t sim_energy_status(double joules) noexcept {
  // 32-bit wrapping counter, exactly like MSR 0x611/0x619.
  const double lsb = sim_rapl_units().joules_per_lsb();
  const auto ticks = static_cast<std::uint64_t>(joules / lsb);
  return ticks & 0xFFFFFFFFull;
}

// --- MSR -------------------------------------------------------------------

int LaneMsrDevice::socket_count() const { return store_->params(lane_).sockets; }

void LaneMsrDevice::check_socket(int socket) const {
  if (socket < 0 || socket >= socket_count()) {
    throw common::ConfigError("LaneMsrDevice: socket out of range");
  }
}

std::uint64_t LaneMsrDevice::read(int socket, std::uint32_t reg) {
  check_socket(socket);
  ++store_->meter(lane_).msr_reads;
  switch (reg) {
    case hw::msr::kUncoreRatioLimit:
      return store_->raw_0x620(lane_, socket);
    case hw::msr::kUncorePerfStatus: {
      // First die of the socket (the socket's representative domain).
      const int die0 = socket * store_->params(lane_).dies_per_socket;
      return common::to_ratio(common::Ghz(store_->uncore(lane_, die0).freq_ghz)).value();
    }
    case hw::msr::kRaplPowerUnit:
      return sim_rapl_units().encode();
    case hw::msr::kPkgEnergyStatus:
      return sim_energy_status(store_->pkg_energy_j(lane_, socket));
    case hw::msr::kDramEnergyStatus:
      return sim_energy_status(store_->dram_energy_j(lane_, socket));
    default:
      throw common::DeviceError("LaneMsrDevice: unsupported MSR read 0x" +
                                std::to_string(reg));
  }
}

void LaneMsrDevice::write(int socket, std::uint32_t reg, std::uint64_t value) {
  check_socket(socket);
  ++store_->meter(lane_).msr_writes;
  if (reg != hw::msr::kUncoreRatioLimit) {
    throw common::DeviceError("LaneMsrDevice: unsupported MSR write 0x" + std::to_string(reg));
  }
  store_->raw_0x620(lane_, socket) = value;
  const auto limit = hw::UncoreRatioLimit::decode(value);
  // A socket-granular MSR write lands on every die in the package.
  const kern::NodeParams& p = store_->params(lane_);
  for (int die = 0; die < p.dies_per_socket; ++die) {
    kern::UncoreState& st = store_->uncore(lane_, socket * p.dies_per_socket + die);
    kern::uncore_set_policy_limit(st, p.ladder, limit.max_ghz());
  }
}

// --- PCM memory traffic ----------------------------------------------------

double LaneMemThroughputCounter::total_mb() {
  ++store_->meter(lane_).pcm_reads;
  return store_->traffic_mb(lane_);
}

double LaneMemThroughputCounter::domain_mb(int domain) {
  if (domain < 0 || domain >= store_->params(lane_).domains()) {
    throw common::ConfigError("LaneMemThroughputCounter: domain out of range");
  }
  ++store_->meter(lane_).pcm_reads;
  return store_->domain_traffic_mb(lane_, domain);
}

// --- uncore domains --------------------------------------------------------

int LaneUncoreDomainSet::domain_count() const { return store_->params(lane_).domains(); }

void LaneUncoreDomainSet::write_max_ghz(int domain, common::Ghz freq) {
  if (domain < 0 || domain >= domain_count()) {
    throw common::ConfigError("LaneUncoreDomainSet: domain out of range");
  }
  // Same access discipline as UncoreFreqController: read back the
  // programmed limit, skip the write when it is already in place.
  ++store_->meter(lane_).msr_reads;
  const hw::UncoreFreqLadder& ladder = store_->params(lane_).ladder;
  kern::UncoreState& st = store_->uncore(lane_, domain);
  const double target = ladder.clamp_ghz(freq.value());
  if (st.policy_limit_ghz == target) return;
  kern::uncore_set_policy_limit(st, ladder, target);
  ++store_->meter(lane_).msr_writes;
}

// --- RAPL energy -----------------------------------------------------------

int LaneEnergyCounter::socket_count() const { return store_->params(lane_).sockets; }

double LaneEnergyCounter::pkg_energy_j(int socket) {
  ++store_->meter(lane_).msr_reads;
  return store_->pkg_energy_j(lane_, socket);
}

double LaneEnergyCounter::dram_energy_j(int socket) {
  ++store_->meter(lane_).msr_reads;
  return store_->dram_energy_j(lane_, socket);
}

// --- per-core fixed counters -----------------------------------------------
// Symmetric workload split: all cores show the same cumulative counts,
// offset per core so values differ (as they would on real silicon).

int LaneCoreCounters::core_count() const { return store_->core_count(lane_); }

void LaneCoreCounters::check_core(int core) const {
  if (core < 0 || core >= core_count()) {
    throw std::out_of_range("LaneCoreCounters: core index out of range");
  }
}

std::uint64_t LaneCoreCounters::instructions_retired(int core) {
  check_core(core);
  ++store_->meter(lane_).msr_reads;
  return static_cast<std::uint64_t>(store_->core(lane_).instructions) +
         static_cast<std::uint64_t>(core) * 977u;
}

std::uint64_t LaneCoreCounters::cycles_unhalted(int core) {
  check_core(core);
  ++store_->meter(lane_).msr_reads;
  return static_cast<std::uint64_t>(store_->core(lane_).cycles) +
         static_cast<std::uint64_t>(core) * 1009u;
}

}  // namespace magus::sim
