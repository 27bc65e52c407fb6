#pragma once
// Uncore-domain model: the control-plane unit below the node.
//
// Real Xeon servers expose one uncore clock per (package, die) pair -- a
// single domain per socket on Ice Lake SP, several on multi-die Sapphire
// Rapids parts -- through the intel_uncore_frequency sysfs driver. This
// header defines the domain identity and the `IUncoreDomainSet` interface
// policies program against, plus the MSR-backed adapter that presents
// today's whole-node 0x620 path as a degenerate one-domain set so legacy
// configs keep working unchanged.
//
// Implementations: MsrDomainSet (below), SysfsUncoreDomainSet
// (hw/sysfs_uncore.hpp) and the simulator's LaneUncoreDomainSet
// (sim/backends.hpp).

#include <string>

#include "magus/common/quantity.hpp"
#include "magus/hw/msr.hpp"
#include "magus/hw/uncore_freq.hpp"

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

/// A set of independently programmable uncore frequency domains. Domains are
/// indexed 0..domain_count()-1 in (package, die) lexicographic order. Reads
/// and writes may touch hardware and throw common::DeviceError; writes clamp
/// to what the silicon supports.
class IUncoreDomainSet {
 public:
  virtual ~IUncoreDomainSet() = default;

  [[nodiscard]] virtual int domain_count() const = 0;
  [[nodiscard]] virtual DomainId domain_id(int domain) const = 0;

  /// Currently programmed min/max frequency clamps.
  [[nodiscard]] virtual common::Ghz min_ghz(int domain) = 0;
  [[nodiscard]] virtual common::Ghz max_ghz(int domain) = 0;

  /// Live uncore frequency right now (perf-status style readback).
  [[nodiscard]] virtual common::Ghz current_ghz(int domain) = 0;

  virtual void write_max_ghz(int domain, common::Ghz freq) = 0;
  virtual void write_min_ghz(int domain, common::Ghz freq) = 0;
};

/// MSR 0x620 adapter: one logical domain spanning every socket, so a config
/// written against the per-node controller is a one-domain set. Max-limit
/// writes delegate to UncoreFreqController (same read/decode/skip-if-already
/// -programmed/encode/write sequence and therefore the same access counts);
/// min-limit writes rewrite the MIN_RATIO field with the same discipline.
class MsrDomainSet final : public IUncoreDomainSet {
 public:
  MsrDomainSet(IMsrDevice& msr, UncoreFreqLadder ladder);

  [[nodiscard]] int domain_count() const override { return 1; }
  [[nodiscard]] DomainId domain_id(int domain) const override;

  [[nodiscard]] common::Ghz min_ghz(int domain) override;
  [[nodiscard]] common::Ghz max_ghz(int domain) override;
  [[nodiscard]] common::Ghz current_ghz(int domain) override;

  void write_max_ghz(int domain, common::Ghz freq) override;
  void write_min_ghz(int domain, common::Ghz freq) override;

  /// MSR writes performed through this set (for overhead accounting).
  [[nodiscard]] unsigned long long write_count() const noexcept {
    return ctl_.write_count() + min_writes_;
  }

 private:
  void check_domain(int domain) const;

  IMsrDevice& msr_;
  UncoreFreqController ctl_;
  unsigned long long min_writes_ = 0;
};

}  // namespace magus::hw
