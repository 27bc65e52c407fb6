#pragma once
// Simulator-backed implementations of the hw interfaces.
//
// Runtimes (MAGUS, UPS) are written against magus::hw only; binding them to
// these backends runs them against a simulated node, binding them to the
// Linux backends runs them against real silicon. Each backend is a view of
// one lane of a LaneStore and resolves its state on every call (the store's
// vectors reallocate while lanes are added, so nothing may cache a pointer
// into them). Every counter access is recorded in the lane's AccessMeter so
// the engines can charge invocation latency and monitor power emergently
// (Table 2).

#include <cstddef>
#include <cstdint>

#include "magus/hw/counters.hpp"
#include "magus/hw/msr.hpp"
#include "magus/hw/rapl.hpp"
#include "magus/hw/uncore_domain.hpp"
#include "magus/sim/node.hpp"

namespace magus::sim {

/// RAPL unit descriptor every simulated node advertises (typical server
/// values: energy LSB = 1/2^14 J).
[[nodiscard]] const hw::RaplUnits& sim_rapl_units() noexcept;

/// Encode cumulative joules as the wrapping 32-bit energy-status value MSR
/// 0x611/0x619 would report.
[[nodiscard]] std::uint64_t sim_energy_status(double joules) noexcept;

/// Shared state of every lane backend: the store and the lane it views.
class LaneRef {
 public:
  LaneRef(LaneStore& store, std::size_t lane) : store_(&store), lane_(lane) {}

 protected:
  LaneStore* store_;
  std::size_t lane_;
};

/// MSR device over a simulated node. Supports the registers MAGUS and UPS
/// touch; unknown registers throw common::DeviceError like real hardware
/// faults would surface.
class LaneMsrDevice final : public hw::IMsrDevice, LaneRef {
 public:
  using LaneRef::LaneRef;

  [[nodiscard]] int socket_count() const override;
  [[nodiscard]] std::uint64_t read(int socket, std::uint32_t reg) override;
  void write(int socket, std::uint32_t reg, std::uint64_t value) override;

 private:
  void check_socket(int socket) const;
};

/// PCM-style aggregated memory-traffic counter with per-domain resolution
/// (each domain read is its own PCM sweep for overhead accounting).
class LaneMemThroughputCounter final : public hw::IMemThroughputCounter, LaneRef {
 public:
  using LaneRef::LaneRef;

  [[nodiscard]] double total_mb() override;
  [[nodiscard]] double domain_mb(int domain) override;
};

/// Uncore-domain set over a simulated node. Mirrors the MSR 0x620 access
/// discipline (read, skip if already programmed, else write) so the meter
/// charges multi-domain policies the same way real-silicon control would.
class LaneUncoreDomainSet final : public hw::IUncoreDomainSet, LaneRef {
 public:
  using LaneRef::LaneRef;

  [[nodiscard]] int domain_count() const override;
  void write_max_ghz(int domain, common::Ghz freq) override;
};

/// RAPL-style energy counters (one MSR read per query).
class LaneEnergyCounter final : public hw::IEnergyCounter, LaneRef {
 public:
  using LaneRef::LaneRef;

  [[nodiscard]] int socket_count() const override;
  [[nodiscard]] double pkg_energy_j(int socket) override;
  [[nodiscard]] double dram_energy_j(int socket) override;
};

/// Per-core fixed counters (two MSR reads per core per sample for UPS).
class LaneCoreCounters final : public hw::ICoreCounters, LaneRef {
 public:
  using LaneRef::LaneRef;

  [[nodiscard]] int core_count() const override;
  [[nodiscard]] std::uint64_t instructions_retired(int core) override;
  [[nodiscard]] std::uint64_t cycles_unhalted(int core) override;

 private:
  void check_core(int core) const;
};

/// The five backends of one lane -- what an engine hands a policy.
struct LaneBackends {
  LaneBackends(LaneStore& store, std::size_t lane)
      : msr(store, lane),
        mem(store, lane),
        energy(store, lane),
        cores(store, lane),
        domains(store, lane) {}

  LaneMsrDevice msr;
  LaneMemThroughputCounter mem;
  LaneEnergyCounter energy;
  LaneCoreCounters cores;
  LaneUncoreDomainSet domains;
};

}  // namespace magus::sim
