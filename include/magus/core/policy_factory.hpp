#pragma once
// Policy construction by name.
//
// The built-in policies form one fixed table, sorted by name (defined in
// src/baseline/policy_table.cpp); callers (exp::run_policy, the tools, the
// fleet layer) construct policies by name. Unknown names fail with a
// common::ConfigError that lists every policy. Adding a policy means adding
// one row to that table.

#include <memory>
#include <string>
#include <vector>

#include "magus/common/quantity.hpp"
#include "magus/core/config.hpp"
#include "magus/core/policy.hpp"
#include "magus/core/power_cap.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/msr.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::baseline {
struct UpsConfig;
}  // namespace magus::baseline

namespace magus::hw {
class IUncoreDomainSet;
}  // namespace magus::hw

namespace magus::telemetry {
class EventLog;
class MetricsRegistry;
}  // namespace magus::telemetry

namespace magus::core {

/// Everything a maker may bind a policy to. Backends a policy does not read
/// may stay null; makers validate their own requirements and throw
/// common::ConfigError naming the missing backend. The config pointers are
/// borrowed for the duration of the make_policy call only (makers copy).
struct PolicyContext {
  hw::IMemThroughputCounter* mem_counter = nullptr;
  hw::IEnergyCounter* energy_counter = nullptr;
  hw::ICoreCounters* core_counters = nullptr;
  hw::IMsrDevice* msr = nullptr;
  const hw::UncoreFreqLadder* ladder = nullptr;

  /// Per-domain uncore control. The experiment/fleet layers wire this only
  /// for multi-domain nodes (dies_per_socket > 1 or NUMA-skewed). Every
  /// policy runs one loop over its domains (hw::UncoreDomains): the domains
  /// of this set when it has more than one, else the whole node as one
  /// domain on `msr`, with the paper's MSR 0x620 access sequence.
  hw::IUncoreDomainSet* domains = nullptr;

  const MagusConfig* magus = nullptr;            ///< "magus" maker (null = defaults)
  const baseline::UpsConfig* ups = nullptr;      ///< "ups" maker (null = defaults)
  common::Ghz static_ghz{0.0};                   ///< "static" maker pin target

  /// Per-node power-cap schedule for the cap-aware policies (ecoshift,
  /// comppow). Null or inactive means "uncapped": the makers copy the
  /// schedule, so like the config pointers it is borrowed only for the
  /// make_policy call.
  const PowerCapSchedule* power_cap = nullptr;

  /// When set, makers of instrumented policies attach their telemetry here.
  /// Telemetry never feeds back into a policy's decisions.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::EventLog* events = nullptr;
};

/// Read-only view of the built-in policy table. All operations are
/// thread-safe: the table is immutable.
class PolicyFactory {
 public:
  /// Construct the policy named `name`. Unknown names throw
  /// common::ConfigError listing all policies.
  [[nodiscard]] std::unique_ptr<IPolicy> make_policy(const std::string& name,
                                                     const PolicyContext& ctx) const;

  [[nodiscard]] bool has(const std::string& name) const;
  /// Whether the named policy is a runtime (does real per-sample work, so
  /// the engine charges it monitoring overhead; pinned / no-op policies are
  /// not runtimes). Unknown names throw the same error as make_policy.
  [[nodiscard]] bool is_runtime(const std::string& name) const;
  [[nodiscard]] std::string summary(const std::string& name) const;

  /// All policy names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const;

  /// The process-wide view of the table.
  [[nodiscard]] static const PolicyFactory& instance();
};

/// Maker helper: throw common::ConfigError("policy 'name' requires <what>")
/// when a required context member is null.
void require_backend(const void* backend, const std::string& policy, const char* what);

}  // namespace magus::core
