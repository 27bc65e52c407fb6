#pragma once
// Single-run experiment wiring: system preset x workload x policy -> result.
//
// Policies are constructed by name from the core::PolicyFactory table. This
// is the only place that binds those policies to the simulator backends;
// benches and tests go through here so every figure uses identical wiring.

#include <memory>
#include <string>

#include "magus/baseline/ups.hpp"
#include "magus/common/quantity.hpp"
#include "magus/core/config.hpp"
#include "magus/core/policy.hpp"
#include "magus/core/power_cap.hpp"
#include "magus/core/runtime.hpp"
#include "magus/fault/config.hpp"
#include "magus/fault/injectors.hpp"
#include "magus/fault/plan.hpp"
#include "magus/hw/uncore_freq.hpp"
#include "magus/sim/engine.hpp"
#include "magus/sim/system_preset.hpp"
#include "magus/trace/recorder.hpp"
#include "magus/wl/phase.hpp"

namespace magus::telemetry {
class EventLog;
class MetricsRegistry;
}  // namespace magus::telemetry

namespace magus::exp {

struct RunOptions {
  sim::EngineConfig engine;
  core::MagusConfig magus;
  baseline::UpsConfig ups;
  common::Ghz static_ghz{0.0};  ///< pin target for the "static" policy
  /// Per-node power-cap schedule the cap-aware policies (ecoshift, comppow)
  /// read; inactive (the default) means uncapped and those policies are
  /// inert at ladder max.
  core::PowerCapSchedule power_cap;
  /// When set, the engine, the MAGUS runtime, and the repetition protocol
  /// report into this registry. Telemetry never feeds back into the
  /// simulation: results are bit-identical with any registry (including
  /// telemetry::null_registry()) or none.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::EventLog* events = nullptr;  ///< optional decision event stream
  /// Fault weather applied to the hw backends the policy reads/writes. With
  /// rate 0 (the default) no decorators are constructed and the run is
  /// byte-identical to a build without the fault layer.
  fault::FaultConfig fault;
  /// Node identity for the fault schedule (fleet index; 0 standalone).
  std::uint64_t fault_node = 0;
};

struct RunOutput {
  sim::SimResult result;
  trace::TraceRecorder traces;
  /// Faults the decorators actually injected (all-zero when fault.rate == 0).
  fault::FaultStats faults;
  /// True when the policy entered its safe fallback (IPolicy::degraded).
  bool policy_degraded = false;
};

/// A factory-made policy bound to one node's hw backends, with the fault
/// decorators (when enabled) slotted in between. Holds what the policy's
/// PolicyContext points at, so it must stay at one address while the policy
/// runs.
struct PolicyBinding {
  hw::UncoreFreqLadder ladder{0.8, 2.2};
  std::unique_ptr<fault::FaultPlan> plan;
  std::unique_ptr<fault::FaultyMemThroughputCounter> faulty_mem;
  std::unique_ptr<fault::FaultyMsrDevice> faulty_msr;
  std::unique_ptr<core::IPolicy> policy;
};

/// Construct `policy` by name against `hw` for `system` under `opts` into
/// `binding` and return the engine hook that drives it. The one wiring path
/// for both engines: run_policy binds a SimEngine's backends, BatchRun each
/// lane's. Faults the decorators inject are counted into `faults`. Throws
/// common::ConfigError for an unknown policy name.
[[nodiscard]] sim::PolicyHook bind_policy(PolicyBinding& binding, sim::LaneBackends& hw,
                                          const sim::SystemSpec& system,
                                          const std::string& policy, const RunOptions& opts,
                                          fault::FaultStats& faults);

/// Run one workload under one named policy on one system. Policy names are
/// looked up in the core::PolicyFactory table; unknown names throw
/// common::ConfigError listing every policy.
[[nodiscard]] RunOutput run_policy(const sim::SystemSpec& system,
                                   const wl::PhaseProgram& workload,
                                   const std::string& policy, const RunOptions& opts = {});

/// The Table 2 protocol workload: an (almost) idle node for `duration_s`.
[[nodiscard]] wl::PhaseProgram idle_workload(double duration_s);

}  // namespace magus::exp
