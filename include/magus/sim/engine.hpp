#pragma once
// SimEngine: the discrete-time driver for one node.
//
// Executes a PhaseProgram on a NodeModel while periodically invoking a
// runtime policy. Invocation cost is *measured*, not assumed: the engine
// snapshots the lane's AccessMeter around each policy callback and charges
// per-read latency plus active monitor power for the duration -- the
// mechanism that makes Table 2's MAGUS/UPS overhead gap fall out of the
// number of counters each method reads. BatchEngine (sim/batch_engine.hpp)
// runs the same loop over many lanes; the two share the node storage, the
// backends, and the sample-boundary charge below, and differ only in what
// SimEngine adds on top: trace recording and engine telemetry.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "magus/common/quantity.hpp"
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
  double record_dt_s = 0.02;   ///< trace channel sampling
  double max_sim_s = 0.0;      ///< 0 -> auto: 4x nominal duration + 30 s
  std::uint64_t seed = 42;
  bool record_traces = true;
  int display_cores = 4;       ///< per-core frequency channels for Fig. 1
};

/// The checks both engines apply to a config at construction: tick_s and
/// record_dt_s must be finite and positive (a NaN or infinite step would
/// never advance the clock to a boundary). Throws common::ConfigError naming
/// the field; `engine` prefixes the message.
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
  void run_finished(const SimResult& result) const noexcept;
};

/// Loop state a run carries between ticks.
struct RunClock {
  double t = 0.0;
  double max_sim = 0.0;          ///< safety cap on simulated time
  double next_sample_t = 0.0;    ///< infinity when the hook has no on_sample
  double monitor_busy_until = 0.0;
  double monitor_power_w = 0.0;  ///< charged to socket 0 while busy
  unsigned long long ticks = 0;

  RunClock() = default;
  /// Clock at t = 0 for `program` under `cfg` and `hook`.
  RunClock(const EngineConfig& cfg, const wl::PhaseProgram& program, const PolicyHook& hook);

  /// Monitor power drawn during the tick that starts at t.
  [[nodiscard]] double extra_w() const noexcept {
    return t < monitor_busy_until ? monitor_power_w : 0.0;
  }
};

/// Why run_to_boundary returned.
enum class Stop {
  kSample,    ///< at the lane's next sample boundary
  kFinished,  ///< program done or safety cap hit
};

/// SimEngine's tick loop: advance `lane` tick by tick until its next sample
/// boundary or the end of its run, each tick's jitter drawn from the lane's
/// own noise stream. `observe(t, slice, out)` sees each tick before the clock
/// moves past it; SimEngine records traces there. BatchEngine runs the same
/// per-tick steps over a cohort of seed groups in lockstep
/// (sim/batch_engine.hpp).
template <class Observe>
Stop run_to_boundary(LaneStore& store, std::size_t lane, ProgramExecutor& exec, double dt,
                     RunClock& clock, Observe&& observe) {
  // magus:hot-path-begin
  common::Rng& noise = store.noise_rng(lane);
  for (;;) {
    if (exec.done() || clock.t >= clock.max_sim) return Stop::kFinished;
    const WorkSlice slice = exec.slice();
    const TickOutput out =
        store.tick(lane, dt, slice, clock.extra_w(), noise.jitter(kern::kTrafficNoiseRel));
    exec.advance(dt * out.progress_rate);
    ++clock.ticks;
    observe(clock.t, slice, out);
    clock.t += dt;
    if (clock.t >= clock.next_sample_t) return Stop::kSample;
  }
  // magus:hot-path-end
}

/// Sample boundary: invoke `hook.on_sample` at `clock.t`, then charge the
/// accesses it made through the lane's backends (the `meter` delta) as
/// latency and monitor power, and schedule the next sample `period` after
/// the invocation returns (paper section 6.5: 0.1 s invocation + 0.2 s
/// period = 0.3 s cadence). A throwing callback propagates with nothing
/// charged.
void sample_boundary(const PolicyHook& hook, const CpuSpec& cpu, const AccessMeter& meter,
                     RunClock& clock, SimResult& result);

/// Fill `result` from lane state at the end of a run: completion, duration,
/// ticks, energies, average powers, accesses, and the per-domain vectors.
void collect_result(const LaneStore& store, std::size_t lane, const RunClock& clock,
                    bool completed, SimResult& result);

class SimEngine {
 public:
  SimEngine(SystemSpec spec, wl::PhaseProgram program, EngineConfig cfg = {});
  // Backends point into node_; pin the address.
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Run to completion (or the safety cap) under `policy`.
  SimResult run(const PolicyHook& policy = {});

  /// Report into the engine series on `reg` (EngineTelemetry), plus a live
  /// magus_sim_time_seconds at every sample boundary. Results stay
  /// bit-identical with or without telemetry. The registry must outlive the
  /// engine.
  void attach_telemetry(telemetry::MetricsRegistry& reg);

  // Backends a policy binds to. Valid for the engine's lifetime.
  [[nodiscard]] LaneBackends& backends() noexcept { return hw_; }
  [[nodiscard]] hw::IMsrDevice& msr() noexcept { return hw_.msr; }
  [[nodiscard]] hw::IMemThroughputCounter& mem_counter() noexcept { return hw_.mem; }
  [[nodiscard]] hw::IEnergyCounter& energy_counter() noexcept { return hw_.energy; }
  [[nodiscard]] hw::IGpuPowerSensor& gpu_sensor() noexcept { return hw_.gpu; }
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
