#pragma once
// Uncore-domain model: the control-plane unit below the node.
//
// Real Xeon servers expose one uncore clock per (package, die) pair -- a
// single domain per socket on Ice Lake SP, several on multi-die Sapphire
// Rapids parts -- through the intel_uncore_frequency sysfs driver. This
// header defines the domain identity, the `IUncoreDomainSet` interface a
// multi-domain backend implements, and `UncoreDomains`, the one place a
// policy learns whether it controls the whole node (MSR 0x620) or each
// domain of a set.
//
// Implementations: SysfsUncoreDomainSet (hw/sysfs_uncore.hpp) and the
// simulator's LaneUncoreDomainSet (sim/backends.hpp).

#include <cstddef>
#include <string>
#include <vector>

#include "magus/common/quantity.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/msr.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::telemetry {
class MetricsRegistry;
}  // namespace magus::telemetry

namespace magus::hw {

/// Identity of one uncore frequency domain, mirroring the sysfs
/// `package_XX_die_YY` naming.
struct DomainId {
  int package = 0;
  int die = 0;

  bool operator==(const DomainId&) const = default;
};

/// "package_00_die_01" -- the sysfs directory spelling of a DomainId.
[[nodiscard]] std::string to_string(const DomainId& id);

/// A set of independently programmable uncore frequency domains, indexed
/// 0..domain_count()-1 in (package, die) lexicographic order. The max clamp
/// is the one knob every policy turns; writes may touch hardware and throw
/// common::DeviceError, and clamp to what the silicon supports.
class IUncoreDomainSet {
 public:
  virtual ~IUncoreDomainSet() = default;

  [[nodiscard]] virtual int domain_count() const = 0;
  virtual void write_max_ghz(int domain, common::Ghz freq) = 0;
};

/// The uncore domains one policy controls. A set with more than one domain
/// is controlled domain by domain; anything else (no set, or a one-domain
/// set) makes the whole node one domain, written as one MSR 0x620 burst
/// over every socket of the policy's own MSR device, so a single-domain run
/// keeps the paper's access sequence. Every policy runs one loop over
/// `size()` domains and asks this type, not the set, how to read and write
/// them.
class UncoreDomains {
 public:
  UncoreDomains(IUncoreDomainSet* domains, IMsrDevice& msr, const UncoreFreqLadder& ladder);
  UncoreDomains(const UncoreDomains&) = delete;
  UncoreDomains& operator=(const UncoreDomains&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool whole_node() const noexcept { return set_ == nullptr; }
  [[nodiscard]] const UncoreFreqLadder& ladder() const noexcept { return node_.ladder(); }

  /// Cumulative MB of one domain: the whole node reads the aggregate
  /// counter (total_mb), a domain of a set reads its share (domain_mb).
  [[nodiscard]] double read_mb(IMemThroughputCounter& counter, std::size_t domain) const {
    return whole_node() ? counter.total_mb() : counter.domain_mb(static_cast<int>(domain));
  }
  /// read_mb for every domain, in index order, into `out` (sized size()).
  void read_all_mb(IMemThroughputCounter& counter, std::vector<double>& out) const;

  void write_max_ghz(std::size_t domain, common::Ghz freq) {
    if (set_ != nullptr) {
      set_->write_max_ghz(static_cast<int>(domain), freq);
    } else {
      node_.set_max_ghz_all(freq.value());
    }
  }
  /// write_max_ghz on every domain, in index order.
  void write_all_max_ghz(common::Ghz freq);

  /// Best-effort release of every domain to the ladder maximum, one try per
  /// write: per socket for the whole node (a 0x620 burst stops at its first
  /// failing socket), per domain for a set. DeviceErrors are swallowed.
  void release_to_max();

  /// Mirror the whole-node MSR writes into `magus_hw_msr_writes_total`.
  void attach_telemetry(telemetry::MetricsRegistry& reg) { node_.attach_telemetry(reg); }

 private:
  UncoreFreqController node_;
  IUncoreDomainSet* set_;  ///< null: the whole node
  std::size_t size_;
};

}  // namespace magus::hw
