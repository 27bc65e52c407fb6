#pragma once
// Real-hardware backends for Linux hosts.
//
// These bind the hw interfaces to the kernel facilities a physical Xeon node
// exposes: /dev/cpu/*/msr (msr module), the powercap intel-rapl sysfs tree,
// and the intel_uncore_frequency sysfs driver (SysfsUncoreDomainSet, in
// hw/sysfs_uncore.hpp). Everything probes before use and throws
// common::CapabilityError when the facility is absent, so the library
// degrades gracefully inside containers and on non-Intel machines (where the
// simulator backend is used instead).

#include <string>
#include <vector>

#include "magus/hw/counters.hpp"
#include "magus/hw/msr.hpp"
#include "magus/hw/rapl.hpp"

namespace magus::hw {

/// Probe results for the current host.
struct HostCapabilities {
  bool msr_dev = false;           ///< /dev/cpu/0/msr readable
  bool rapl_powercap = false;     ///< /sys/class/powercap/intel-rapl present
  bool uncore_freq_sysfs = false; ///< intel_uncore_frequency driver present
  int online_cpus = 0;
};

[[nodiscard]] HostCapabilities probe_host();

/// MSR device over /dev/cpu/<cpu>/msr. One representative CPU per socket.
class LinuxMsrDevice final : public IMsrDevice {
 public:
  /// `socket_cpus[i]` is the cpu id whose MSR file represents socket i.
  explicit LinuxMsrDevice(std::vector<int> socket_cpus);
  ~LinuxMsrDevice() override;

  LinuxMsrDevice(const LinuxMsrDevice&) = delete;
  LinuxMsrDevice& operator=(const LinuxMsrDevice&) = delete;

  [[nodiscard]] int socket_count() const override;
  [[nodiscard]] std::uint64_t read(int socket, std::uint32_t reg) override;
  void write(int socket, std::uint32_t reg, std::uint64_t value) override;

 private:
  std::vector<int> fds_;
};

/// RAPL energy counters via the powercap sysfs tree
/// (/sys/class/powercap/intel-rapl:N/energy_uj and dram subzones).
class PowercapEnergyCounter final : public IEnergyCounter {
 public:
  /// `root` overridable for tests; defaults to the system powercap tree.
  explicit PowercapEnergyCounter(std::string root = "/sys/class/powercap");

  [[nodiscard]] int socket_count() const override;
  [[nodiscard]] double pkg_energy_j(int socket) override;
  [[nodiscard]] double dram_energy_j(int socket) override;

 private:
  struct Zone {
    std::string pkg_path;   // .../energy_uj
    std::string dram_path;  // may be empty when the zone lacks a dram child
  };
  std::vector<Zone> zones_;
};

}  // namespace magus::hw
