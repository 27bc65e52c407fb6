#pragma once
// Counter interfaces the runtimes read each monitoring cycle.
//
// MAGUS reads exactly one of these (IMemThroughputCounter, the PCM-style
// aggregated system memory throughput). The UPS baseline additionally reads
// per-core fixed counters (ICoreCounters) and DRAM energy -- the source of
// its higher invocation and power overhead (paper Table 2).

#include <cstdint>

namespace magus::hw {

/// PCM-style system memory traffic counter (reads + writes, cumulative).
class IMemThroughputCounter {
 public:
  virtual ~IMemThroughputCounter() = default;

  /// Cumulative MB of DRAM traffic since an arbitrary epoch. Callers compute
  /// throughput as delta/interval, like PCM's before/after counter states.
  [[nodiscard]] virtual double total_mb() = 0;

  /// Cumulative MB attributed to one domain. The single-domain default
  /// delegates to total_mb(), so reading "domain 0" of an aggregate counter
  /// costs exactly one sweep, same as the legacy path.
  [[nodiscard]] virtual double domain_mb(int domain) {
    (void)domain;
    return total_mb();
  }
};

/// RAPL-style cumulative energy counters, per socket, in joules.
class IEnergyCounter {
 public:
  virtual ~IEnergyCounter() = default;

  [[nodiscard]] virtual int socket_count() const = 0;
  [[nodiscard]] virtual double pkg_energy_j(int socket) = 0;
  [[nodiscard]] virtual double dram_energy_j(int socket) = 0;
};

/// Per-core fixed counters (instructions retired / unhalted cycles), as read
/// through per-core MSRs. Only the UPS baseline uses these.
class ICoreCounters {
 public:
  virtual ~ICoreCounters() = default;

  [[nodiscard]] virtual int core_count() const = 0;
  [[nodiscard]] virtual std::uint64_t instructions_retired(int core) = 0;
  [[nodiscard]] virtual std::uint64_t cycles_unhalted(int core) = 0;
};

}  // namespace magus::hw
