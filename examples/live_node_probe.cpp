// Real-hardware path: probe this host for the facilities MAGUS needs
// (/dev/cpu/*/msr, the powercap RAPL tree, the intel_uncore_frequency
// driver) and, where available, read live values through the same hw
// interfaces the simulator implements. On machines without the facilities
// (containers, non-Intel hosts) every step degrades gracefully.
//
// On a root-privileged Intel Xeon node this prints the real uncore limits
// and RAPL energies -- the deployment mode the paper describes, where the
// administrator launches MAGUS once as a background runtime.

#include <iostream>

#include "magus/common/error.hpp"
#include "magus/hw/linux_backend.hpp"
#include "magus/hw/sysfs_uncore.hpp"
#include "magus/hw/uncore_freq.hpp"

int main() {
  using namespace magus;

  const hw::HostCapabilities caps = hw::probe_host();
  std::cout << "host capabilities:\n"
            << "  online cpus:             " << caps.online_cpus << "\n"
            << "  /dev/cpu/*/msr:          " << (caps.msr_dev ? "yes" : "no") << "\n"
            << "  powercap intel-rapl:     " << (caps.rapl_powercap ? "yes" : "no") << "\n"
            << "  intel_uncore_frequency:  " << (caps.uncore_freq_sysfs ? "yes" : "no")
            << "\n\n";

  if (caps.msr_dev) {
    try {
      hw::LinuxMsrDevice msr({0});
      const auto limit =
          hw::UncoreRatioLimit::decode(msr.read(0, hw::msr::kUncoreRatioLimit));
      std::cout << "MSR 0x620 (socket 0): max " << limit.max_ghz() << " GHz, min "
                << limit.min_ghz() << " GHz\n";
    } catch (const common::Error& e) {
      std::cout << "MSR access failed: " << e.what() << "\n";
    }
  }

  if (caps.rapl_powercap) {
    try {
      hw::PowercapEnergyCounter rapl;
      for (int s = 0; s < rapl.socket_count(); ++s) {
        std::cout << "RAPL socket " << s << ": pkg " << rapl.pkg_energy_j(s)
                  << " J, dram " << rapl.dram_energy_j(s) << " J (cumulative)\n";
      }
    } catch (const common::Error& e) {
      std::cout << "RAPL access failed: " << e.what() << "\n";
    }
  }

  if (caps.uncore_freq_sysfs) {
    try {
      hw::SysfsUncoreDomainSet uncore;
      for (int d = 0; d < uncore.domain_count(); ++d) {
        std::cout << "uncore " << hw::to_string(uncore.domain_id(d)) << ": max "
                  << uncore.max_ghz(d).value() << " GHz, current "
                  << uncore.current_ghz(d).value() << " GHz\n";
      }
    } catch (const common::Error& e) {
      std::cout << "uncore sysfs access failed: " << e.what() << "\n";
    }
  }

  if (!caps.msr_dev && !caps.rapl_powercap && !caps.uncore_freq_sysfs) {
    std::cout << "No privileged hardware facilities on this host -- use the\n"
                 "simulator backends (see quickstart) or run on a bare-metal\n"
                 "Intel node with the msr module loaded.\n";
  }
  return 0;
}
