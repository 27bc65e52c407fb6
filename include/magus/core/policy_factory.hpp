#pragma once
// Policy construction by name.
//
// Each policy registers a maker under its canonical name from its own
// translation unit, and callers (exp::run_policy, the tools, the fleet layer)
// construct policies by name. Unknown names fail with a common::ConfigError that lists
// every registered policy.
//
// Self-registration and static archives: a policy's registrar lives in its
// .cpp, which the linker only pulls from a static library when something
// references it. Each policy header therefore declares a `register_*_policy`
// anchor whose call from an internal-linkage initializer forces that TU into
// any program that includes the header (see e.g. baseline/ups.hpp).

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "magus/common/quantity.hpp"
#include "magus/common/thread_annotations.hpp"
#include "magus/core/config.hpp"
#include "magus/core/policy.hpp"
#include "magus/core/power_cap.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/msr.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::baseline {
struct CompPowConfig;
struct DeadlineConfig;
struct DufConfig;
struct EcoShiftConfig;
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
  /// for multi-domain nodes (dies_per_socket > 1 or NUMA-skewed), so
  /// single-domain runs keep the exact legacy MSR-0x620 access sequence.
  /// Policies that find more than one domain here sample and decide per
  /// domain; null (or one domain) keeps the node-level loop.
  hw::IUncoreDomainSet* domains = nullptr;

  const MagusConfig* magus = nullptr;            ///< "magus" maker (null = defaults)
  const baseline::UpsConfig* ups = nullptr;      ///< "ups" maker (null = defaults)
  const baseline::DufConfig* duf = nullptr;      ///< "duf" maker (null = defaults)
  const baseline::EcoShiftConfig* ecoshift = nullptr;  ///< "ecoshift" (null = defaults)
  const baseline::DeadlineConfig* deadline = nullptr;  ///< "deadline" (null = defaults)
  const baseline::CompPowConfig* comppow = nullptr;    ///< "comppow" (null = defaults)
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

/// Name -> maker registry. `instance()` is the process-wide factory the
/// built-in policies self-register into; tests may build private instances.
/// All operations are thread-safe (fleet shards construct policies
/// concurrently).
class PolicyFactory {
 public:
  using Maker = std::function<std::unique_ptr<IPolicy>(const PolicyContext&)>;

  PolicyFactory() = default;
  PolicyFactory(const PolicyFactory&) = delete;
  PolicyFactory& operator=(const PolicyFactory&) = delete;

  /// Register `maker` under `name`. `is_runtime` marks policies that do real
  /// per-sample work (the engine charges them monitoring overhead; pinned /
  /// no-op policies are not runtimes). Throws common::ConfigError on an
  /// empty name, a null maker, or a duplicate registration.
  void register_policy(const std::string& name, Maker maker, const std::string& summary,
                       bool is_runtime) MAGUS_EXCLUDES(mutex_);

  /// Construct the policy registered under `name`. Unknown names throw
  /// common::ConfigError listing all registered policies. The maker runs
  /// with mutex_ released, so makers may re-enter the factory.
  [[nodiscard]] std::unique_ptr<IPolicy> make_policy(const std::string& name,
                                                     const PolicyContext& ctx) const
      MAGUS_EXCLUDES(mutex_);

  [[nodiscard]] bool has(const std::string& name) const MAGUS_EXCLUDES(mutex_);
  /// Whether the named policy was registered as a runtime; unknown names
  /// throw the same error as make_policy.
  [[nodiscard]] bool is_runtime(const std::string& name) const MAGUS_EXCLUDES(mutex_);
  [[nodiscard]] std::string summary(const std::string& name) const MAGUS_EXCLUDES(mutex_);

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const MAGUS_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const MAGUS_EXCLUDES(mutex_);

  /// The process-wide factory holding the self-registered built-ins.
  [[nodiscard]] static PolicyFactory& instance();

 private:
  struct Entry {
    Maker maker;
    std::string summary;
    bool is_runtime = false;
  };

  [[nodiscard]] const Entry& entry_or_throw(const std::string& name) const
      MAGUS_REQUIRES(mutex_);

  mutable common::AnnotatedMutex mutex_;
  std::map<std::string, Entry> entries_ MAGUS_GUARDED_BY(mutex_);
};

/// Maker helper: throw common::ConfigError("policy 'name' requires <what>")
/// when a required context member is null.
void require_backend(const void* backend, const std::string& policy, const char* what);

}  // namespace magus::core
