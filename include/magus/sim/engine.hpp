#pragma once
// SimEngine: the discrete-time driver for one node.
//
// Executes a PhaseProgram on a NodeModel while periodically invoking a
// runtime policy. Invocation cost is *measured*, not assumed: the engine
// snapshots the lane's AccessMeter around each policy callback and charges
// per-read latency plus active monitor power for the duration -- the
// mechanism that makes Table 2's MAGUS/UPS overhead gap fall out of the
// number of counters each method reads. A lane's run and its control live
// in one type, LaneRun: SimEngine steps one at width 1 on its node with the
// trace recorder as observer; BatchEngine (sim/batch_engine.hpp) holds one
// per lane and steps its unpaired lanes through the same width-1 step. What
// SimEngine adds on top is trace recording.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "magus/common/quantity.hpp"
#include "magus/common/thread_annotations.hpp"
#include "magus/sim/backends.hpp"
#include "magus/sim/node.hpp"
#include "magus/sim/program_executor.hpp"
#include "magus/sim/system_preset.hpp"
#include "magus/trace/recorder.hpp"
#include "magus/wl/phase.hpp"

namespace magus::telemetry {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace magus::telemetry

namespace magus::sim {

/// A runtime policy bound into the engine. `on_sample` typically reads
/// counters through the engine's backends and may write MSR 0x620.
struct PolicyHook {
  std::string name = "default";
  double period_s = 0.2;
  std::function<void(common::Seconds now)> on_start;   ///< once, at t=0 (optional)
  std::function<void(common::Seconds now)> on_sample;  ///< every period (optional)
};

struct EngineConfig {
  double tick_s = 0.002;
  double max_sim_s = 0.0;      ///< 0 -> auto: 4x nominal duration + 30 s
  std::uint64_t seed = 42;
  bool record_traces = true;   ///< trace channels every 0.02 s, 4 core-frequency channels
};

/// The check both engines apply to a config at construction: tick_s must be
/// finite and positive (a NaN or infinite step would never advance the clock
/// to a boundary). Throws common::ConfigError naming the field; `engine`
/// prefixes the message.
void validate_engine_config(const EngineConfig& cfg, const char* engine);

struct SimResult {
  std::string policy_name;
  bool completed = false;
  double duration_s = 0.0;
  double pkg_energy_j = 0.0;
  double dram_energy_j = 0.0;
  double gpu_energy_j = 0.0;
  double avg_pkg_power_w = 0.0;
  double avg_dram_power_w = 0.0;
  double avg_gpu_power_w = 0.0;
  unsigned long long invocations = 0;
  double total_invocation_s = 0.0;
  unsigned long long ticks = 0;  ///< simulation steps executed
  AccessMeter accesses;  ///< cumulative over the whole run

  // Per-uncore-domain breakdown (size = sockets * dies_per_socket; one
  // entry per socket on single-die parts). Uncore energy feeds per-domain
  // joules-saved rollups; stretch-time / duration is the domain's average
  // memory stretch.
  std::vector<double> domain_uncore_energy_j;
  std::vector<double> domain_stretch_time_s;
  std::vector<double> domain_traffic_mb;

  /// CPU-side power metric the paper reports (package + DRAM).
  [[nodiscard]] double cpu_energy_j() const noexcept { return pkg_energy_j + dram_energy_j; }
  /// Total energy-to-solution (CPU package + DRAM + GPU boards).
  [[nodiscard]] double total_energy_j() const noexcept {
    return cpu_energy_j() + gpu_energy_j;
  }
  [[nodiscard]] double avg_cpu_power_w() const noexcept {
    return avg_pkg_power_w + avg_dram_power_w;
  }
  [[nodiscard]] double avg_invocation_s() const noexcept {
    return invocations ? total_invocation_s / static_cast<double>(invocations) : 0.0;
  }
};

/// The engine series on one registry: magus_sim_steps_total,
/// magus_sim_time_seconds, magus_sim_policy_invocations_total and
/// magus_sim_runs_total. Default-constructed, every handle is null and
/// counting is a no-op. Keyed on simulated time only; never feeds back.
struct EngineTelemetry {
  telemetry::Counter* steps = nullptr;
  telemetry::Counter* invocations = nullptr;
  telemetry::Counter* runs = nullptr;
  telemetry::Gauge* sim_time = nullptr;

  EngineTelemetry() = default;
  /// Register (or look up) the series on `reg`, which must outlive every
  /// run counted through these handles.
  explicit EngineTelemetry(telemetry::MetricsRegistry& reg);

  /// Count one finished run: its ticks, its policy invocations, the run
  /// itself, and its final simulated time. Both engines call this once per
  /// run that reaches its end; a run whose policy threw is not counted.
  /// (The gauge also follows each sample boundary live, LaneRun::sample.)
  void run_finished(const SimResult& result) const noexcept;
};

/// One lane's run -- its program walk, clock, policy hook and outcome -- and
/// the per-lane control both engines share. `start`, then `step` until one
/// returns false: the lane finished (`result` filled) or its policy threw
/// (`failed`; `exception` keeps the throw, type intact). No policy exception
/// escapes. SimEngine steps one on its node; BatchEngine holds one per lane,
/// and its lockstep pairs tick through the two-wide kernel and then use
/// `advance` and the boundary members below.
struct LaneRun {
  /// `error` of a lane whose policy threw something other than a
  /// std::exception.
  static constexpr const char* kNonStandardError = "policy threw a non-standard exception";

  LaneRun(const CpuSpec& cpu_spec, wl::PhaseProgram prog, const EngineConfig& config)
      : program(std::move(prog)), cfg(config), executor(program), cpu(cpu_spec) {}
  // `executor` points into `program`; pin the address.
  LaneRun(const LaneRun&) = delete;
  LaneRun& operator=(const LaneRun&) = delete;

  wl::PhaseProgram program;
  EngineConfig cfg;
  ProgramExecutor executor;  ///< walks `program`

  double t = 0.0;
  double max_sim = 0.0;          ///< safety cap on simulated time
  double next_sample_t = 0.0;    ///< infinity when the hook has no on_sample
  double monitor_busy_until = 0.0;
  double monitor_power_w = 0.0;  ///< charged to socket 0 while busy
  unsigned long long ticks = 0;

  /// Invocation-cost coefficients.
  CpuSpec cpu;
  PolicyHook hook;
  EngineTelemetry telemetry;  ///< all null unless attached

  bool failed = false;
  std::string error;  ///< what() of the throw, or kNonStandardError
  std::exception_ptr exception;
  SimResult result;

  /// Arm the clock (safety cap, first sample) and call hook.on_start. False
  /// when the lane is not running after it (its policy threw, or its run is
  /// already over).
  bool start(const LaneStore& store, std::size_t lane) MAGUS_LOCK_FREE;

  /// Tick the lane once on `jitter`, the tick's draw from its seed's noise
  /// stream. `observe(t, slice, out)` sees the tick before the clock moves
  /// past it; SimEngine records traces there, BatchEngine passes a no-op.
  /// False once the run is over.
  template <class F>
  bool step(LaneStore& store, std::size_t lane, double jitter, F&& observe) MAGUS_LOCK_FREE {
    // magus:hot-path-begin
    const WorkSlice slice = executor.slice();
    const TickOutput out = store.tick(lane, cfg.tick_s, slice, extra_w(), jitter);
    observe(t, slice, out);
    advance(out.progress_rate);
    if (sample_due() && !sample(store, lane)) return false;
    if (!over()) return true;
    finish(store, lane);
    return false;
    // magus:hot-path-end
  }

  /// Sample boundary: invoke hook.on_sample at `t`, then charge the accesses
  /// it made through the lane's backends (its AccessMeter delta) as latency
  /// and monitor power, and schedule the next sample `period` after the
  /// invocation returns (paper section 6.5: 0.1 s invocation + 0.2 s period
  /// = 0.3 s cadence); the live magus_sim_time_seconds gauge reads `t`.
  /// False, with nothing charged, when the policy threw.
  bool sample(const LaneStore& store, std::size_t lane) MAGUS_LOCK_FREE;

  /// Fill `result` from the lane's state at the end of the run.
  void finish(const LaneStore& store, std::size_t lane) MAGUS_LOCK_FREE;

  /// Advance the program and clock past one tick at progress rate `rate`;
  /// true when that moved the program past a phase.
  bool advance(double rate) {
    const bool moved = executor.advance(cfg.tick_s * rate);
    ++ticks;
    t += cfg.tick_s;
    return moved;
  }
  /// True once the program is done or the safety cap is hit.
  [[nodiscard]] bool over() const { return executor.done() || t >= max_sim; }
  [[nodiscard]] bool sample_due() const { return t >= next_sample_t; }
  /// Monitor power drawn during the tick that starts at t.
  [[nodiscard]] double extra_w() const noexcept {
    return t < monitor_busy_until ? monitor_power_w : 0.0;
  }

 private:
  /// Call a hook callback at `t`. False, with the throw recorded as the
  /// lane's failure, when it threw.
  bool call(const std::function<void(common::Seconds)>& callback);
};

class SimEngine {
 public:
  SimEngine(SystemSpec spec, wl::PhaseProgram program, EngineConfig cfg = {});
  // Backends point into node_; pin the address.
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Run to completion (or the safety cap) under `policy`. Each run goes on
  /// from the node's state and noise stream where the last one left them. A
  /// throw from a policy callback leaves run() as it was thrown.
  SimResult run(const PolicyHook& policy = {});

  /// Report into the engine series on `reg` (EngineTelemetry). Results stay
  /// bit-identical with or without telemetry. The registry must outlive the
  /// engine.
  void attach_telemetry(telemetry::MetricsRegistry& reg);

  // Backends a policy binds to. Valid for the engine's lifetime.
  [[nodiscard]] LaneBackends& backends() noexcept { return hw_; }
  [[nodiscard]] hw::IMsrDevice& msr() noexcept { return hw_.msr; }
  [[nodiscard]] hw::IMemThroughputCounter& mem_counter() noexcept { return hw_.mem; }
  [[nodiscard]] hw::IEnergyCounter& energy_counter() noexcept { return hw_.energy; }
  [[nodiscard]] hw::ICoreCounters& core_counters() noexcept { return hw_.cores; }
  [[nodiscard]] hw::IUncoreDomainSet& domains() noexcept { return hw_.domains; }

  /// The node the backends read; ticking it directly advances their state.
  [[nodiscard]] NodeModel& node() noexcept { return node_; }
  [[nodiscard]] const trace::TraceRecorder& recorder() const noexcept { return recorder_; }

 private:
  SystemSpec spec_;
  wl::PhaseProgram program_;
  EngineConfig cfg_;
  NodeModel node_;
  LaneBackends hw_;
  trace::TraceRecorder recorder_;

  EngineTelemetry telemetry_;  ///< all null until attach_telemetry
};

}  // namespace magus::sim
