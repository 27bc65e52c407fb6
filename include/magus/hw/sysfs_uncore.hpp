#pragma once
// intel_uncore_frequency sysfs backend for uncore domains.
//
// Kernels with the intel_uncore_frequency driver (TPMI-backed on newer SoCs)
// expose one directory per (package, die) pair under the driver root:
//
//   package_00_die_00/
//     initial_max_freq_khz   initial_min_freq_khz   <- silicon limits (RO)
//     max_freq_khz           min_freq_khz           <- programmable clamps
//     current_freq_khz                              <- live frequency
//
// All attributes are integer kilohertz; the bridge to the model's GHz is
// common::to_ghz(Khz)/to_khz(Ghz). The backend takes the tree root as a
// constructor argument, so tests drive it against a generated fake tree on
// disk with no hardware (tests/hw/test_sysfs_uncore.cpp).

#include <string>
#include <vector>

#include "magus/hw/uncore_domain.hpp"

namespace magus::hw {

/// The canonical intel_uncore_frequency driver root. The one designated
/// path-builder: magus_lint's `naked-sysfs-path` rule rejects the raw
/// literal anywhere outside this component.
[[nodiscard]] const std::string& uncore_freq_sysfs_root();

/// Uncore domains discovered from an intel_uncore_frequency sysfs tree.
///
/// Discovery scans `root` for `package_XX_die_YY` directories and orders
/// domains by (package, die). Construction throws common::CapabilityError
/// when the root is missing or holds no domain directories; attribute reads
/// and writes throw common::DeviceError on missing or corrupt files. The
/// readbacks below are plain members: policies only write the max clamp.
class SysfsUncoreDomainSet final : public IUncoreDomainSet {
 public:
  explicit SysfsUncoreDomainSet(std::string root = uncore_freq_sysfs_root());

  [[nodiscard]] int domain_count() const override {
    return static_cast<int>(domains_.size());
  }
  void write_max_ghz(int domain, common::Ghz freq) override;

  [[nodiscard]] DomainId domain_id(int domain) const;

  /// Currently programmed min/max clamps and the live frequency.
  [[nodiscard]] common::Ghz min_ghz(int domain);
  [[nodiscard]] common::Ghz max_ghz(int domain);
  [[nodiscard]] common::Ghz current_ghz(int domain);

  /// Silicon limits the driver captured at module load (read-only files).
  [[nodiscard]] common::Ghz initial_min_ghz(int domain);
  [[nodiscard]] common::Ghz initial_max_ghz(int domain);

  /// Sysfs directory backing a domain (diagnostics / tests).
  [[nodiscard]] const std::string& domain_dir(int domain) const;

 private:
  struct Domain {
    DomainId id;
    std::string dir;
  };

  [[nodiscard]] const Domain& domain_at(int domain) const;
  [[nodiscard]] common::Ghz read_khz_attr(int domain, const char* attr);

  std::vector<Domain> domains_;
};

}  // namespace magus::hw
