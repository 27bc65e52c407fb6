#include "magus/sim/engine.hpp"

#include <cmath>
#include <exception>
#include <limits>
#include <string>
#include <utility>

#include "magus/common/error.hpp"
#include "magus/telemetry/registry.hpp"

namespace magus::sim {

namespace {
// Disabled sampling / recording is "scheduled at infinity": the hot loop then
// pays a single always-false double compare instead of re-testing
// std::function presence every tick.
constexpr double kNever = std::numeric_limits<double>::infinity();
constexpr double kRecordDtS = 0.02;  ///< trace channel sampling
constexpr int kDisplayCores = 4;     ///< per-core frequency channels for Fig. 1
}  // namespace

void validate_engine_config(const EngineConfig& cfg, const char* engine) {
  // A negated in-range test, so NaN fails it too.
  if (!(cfg.tick_s > 0.0 && std::isfinite(cfg.tick_s))) {
    throw common::ConfigError(std::string(engine) + ": tick_s must be finite and positive");
  }
}

bool LaneRun::start(const LaneStore& store, std::size_t lane) {
  result.policy_name = hook.name;
  max_sim = cfg.max_sim_s > 0.0 ? cfg.max_sim_s : 4.0 * program.nominal_duration_s() + 30.0;
  next_sample_t = hook.on_sample ? hook.period_s : kNever;
  if (hook.on_start && !call(hook.on_start)) return false;
  if (!over()) return true;
  finish(store, lane);
  return false;
}

bool LaneRun::sample(const LaneStore& store, std::size_t lane) {
  const AccessMeter& meter = store.meter(lane);
  const AccessMeter before = meter;
  if (!call(hook.on_sample)) return false;
  const auto msr_delta =
      (meter.msr_reads - before.msr_reads) + (meter.msr_writes - before.msr_writes);
  const auto pcm_delta = meter.pcm_reads - before.pcm_reads;
  const double cost = static_cast<double>(msr_delta) * cpu.msr_read_latency_s +
                      static_cast<double>(pcm_delta) * cpu.pcm_read_latency_s;
  const double equiv_reads = static_cast<double>(msr_delta) +
                             cpu.pcm_equivalent_reads * static_cast<double>(pcm_delta);
  monitor_power_w = cpu.monitor_base_power_w + cpu.monitor_per_read_power_w * equiv_reads;
  monitor_busy_until = t + cost;
  ++result.invocations;
  result.total_invocation_s += cost;
  next_sample_t = t + cost + hook.period_s;
  // Live progress for a scraping exporter, keyed on sim time only.
  telemetry::set(telemetry.sim_time, t);
  return true;
}

void LaneRun::finish(const LaneStore& store, std::size_t lane) {
  result.completed = executor.done();
  result.duration_s = t;
  result.ticks = ticks;
  result.pkg_energy_j = store.total_pkg_energy_j(lane);
  result.dram_energy_j = store.total_dram_energy_j(lane);
  result.gpu_energy_j = store.gpu(lane).energy_j;
  if (t > 0.0) {
    result.avg_pkg_power_w = result.pkg_energy_j / t;
    result.avg_dram_power_w = result.dram_energy_j / t;
    result.avg_gpu_power_w = result.gpu_energy_j / t;
  }
  result.accesses = store.meter(lane);
  const int domains = store.params(lane).domains();
  result.domain_uncore_energy_j.resize(static_cast<std::size_t>(domains));
  result.domain_stretch_time_s.resize(static_cast<std::size_t>(domains));
  result.domain_traffic_mb.resize(static_cast<std::size_t>(domains));
  for (int d = 0; d < domains; ++d) {
    const auto i = static_cast<std::size_t>(d);
    result.domain_uncore_energy_j[i] = store.domain_uncore_energy_j(lane, d);
    result.domain_stretch_time_s[i] = store.domain_stretch_time_s(lane, d);
    result.domain_traffic_mb[i] = store.domain_traffic_mb(lane, d);
  }
}

bool LaneRun::call(const std::function<void(common::Seconds)>& callback) {
  try {
    callback(common::Seconds(t));
    return true;
  } catch (const std::exception& e) {
    error = e.what();
    exception = std::current_exception();
  } catch (...) {
    error = kNonStandardError;
    exception = std::current_exception();
  }
  failed = true;
  return false;
}

SimEngine::SimEngine(SystemSpec spec, wl::PhaseProgram program, EngineConfig cfg)
    : spec_(std::move(spec)),
      program_(std::move(program)),
      cfg_(cfg),
      node_(spec_, cfg_.seed),
      hw_(node_.store(), 0) {
  program_.validate();
  validate_engine_config(cfg_, "SimEngine");
}

EngineTelemetry::EngineTelemetry(telemetry::MetricsRegistry& reg)
    : steps(reg.counter("magus_sim_steps_total", "Simulation ticks executed")),
      invocations(
          reg.counter("magus_sim_policy_invocations_total", "Policy on_sample invocations")),
      runs(reg.counter("magus_sim_runs_total", "Completed simulation runs")),
      sim_time(reg.gauge("magus_sim_time_seconds",
                         "Simulated time of the current/most recent run")) {}

void EngineTelemetry::run_finished(const SimResult& result) const noexcept {
  telemetry::inc(steps, result.ticks);
  telemetry::inc(invocations, result.invocations);
  telemetry::inc(runs);
  telemetry::set(sim_time, result.duration_s);
}

void SimEngine::attach_telemetry(telemetry::MetricsRegistry& reg) {
  telemetry_ = EngineTelemetry(reg);
}

SimResult SimEngine::run(const PolicyHook& policy) {
  LaneRun run(spec_.cpu, program_, cfg_);
  run.hook = policy;
  run.telemetry = telemetry_;
  LaneStore& store = node_.store();
  common::Rng& noise = node_.noise();
  const kern::CoreParams& core = node_.params().core;

  double next_record_t = cfg_.record_traces ? 0.0 : kNever;
  const auto record = [&](double t, const WorkSlice& slice, const TickOutput& out) {
    if (t < next_record_t) return;
    recorder_.record(trace::channel::kMemThroughput, t, out.delivered_mbps);
    recorder_.record(trace::channel::kMemDemand, t, slice.demand_mbps);
    recorder_.record(trace::channel::kUncoreFreq, t, out.uncore_freq_ghz);
    recorder_.record(trace::channel::kPkgPower, t, out.pkg_power_w);
    recorder_.record(trace::channel::kDramPower, t, out.dram_power_w);
    recorder_.record(trace::channel::kGpuPower, t, out.gpu_power_w);
    recorder_.record(trace::channel::kGpuClock, t, node_.gpu().clock_ghz);
    recorder_.record(trace::channel::kTotalPower, t,
                     out.pkg_power_w + out.dram_power_w + out.gpu_power_w);
    for (int c = 0; c < kDisplayCores; ++c) {
      recorder_.record(
          std::string(trace::channel::kCoreFreq) + "_" + std::to_string(c), t,
          kern::core_display_freq_ghz(node_.cores(), core, c, common::Seconds(t)));
    }
    next_record_t = t + kRecordDtS;
  };
  {
    const common::HotPathSection hot_section;
    bool running = run.start(store, 0);
    while (running) {
      running = run.step(store, 0, noise.jitter(kern::kTrafficNoiseRel), record);
    }
  }

  if (run.failed) std::rethrow_exception(run.exception);
  telemetry_.run_finished(run.result);
  return std::move(run.result);
}

}  // namespace magus::sim
