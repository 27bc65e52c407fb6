#include "magus/exp/experiment.hpp"

#include <memory>

#include "magus/common/error.hpp"
#include "magus/core/policy_factory.hpp"
#include "magus/fault/plan.hpp"

namespace magus::exp {

sim::PolicyHook bind_policy(PolicyBinding& binding, sim::LaneBackends& hw,
                            const sim::SystemSpec& system, const std::string& policy,
                            const RunOptions& opts, fault::FaultStats& faults) {
  binding.ladder = hw::UncoreFreqLadder(system.cpu.uncore_min_ghz, system.cpu.uncore_max_ghz);

  core::PolicyContext ctx;
  ctx.mem_counter = &hw.mem;
  ctx.energy_counter = &hw.energy;
  ctx.core_counters = &hw.cores;
  ctx.msr = &hw.msr;
  ctx.ladder = &binding.ladder;

  // Fault decorators slot in between the policy and the engine backends.
  // Constructed only when enabled so a rate-0 run takes the exact same code
  // path (and produces bit-identical results) as before the fault layer.
  if (opts.fault.enabled()) {
    binding.plan = std::make_unique<fault::FaultPlan>(opts.fault, opts.fault_node);
    binding.faulty_mem =
        std::make_unique<fault::FaultyMemThroughputCounter>(hw.mem, *binding.plan, faults);
    binding.faulty_msr =
        std::make_unique<fault::FaultyMsrDevice>(hw.msr, *binding.plan, faults);
    ctx.mem_counter = binding.faulty_mem.get();
    ctx.msr = binding.faulty_msr.get();
  }
  ctx.magus = &opts.magus;
  ctx.ups = &opts.ups;
  ctx.static_ghz = opts.static_ghz;
  ctx.power_cap = &opts.power_cap;
  ctx.metrics = opts.metrics;
  ctx.events = opts.events;
  // Per-domain control only on multi-domain nodes: a single-domain run is
  // the policies' one-domain case over `ctx.msr` (the paper's counter and
  // MSR access sequence).
  if (system.cpu.dies_per_socket > 1 || system.numa_skew != 0.0) {
    ctx.domains = &hw.domains;
  }

  const core::PolicyFactory& factory = core::PolicyFactory::instance();
  binding.policy = factory.make_policy(policy, ctx);

  sim::PolicyHook hook;
  hook.name = binding.policy->name();
  hook.period_s = binding.policy->period_s();
  core::IPolicy* bound = binding.policy.get();
  hook.on_start = [bound](common::Seconds now) { bound->on_start(now); };
  // Default and static policies do nothing per sample; skip the callback so
  // the engine charges them zero monitoring overhead (they are not runtimes).
  if (factory.is_runtime(policy)) {
    hook.on_sample = [bound](common::Seconds now) { bound->on_sample(now); };
  }
  return hook;
}

RunOutput run_policy(const sim::SystemSpec& system, const wl::PhaseProgram& workload,
                     const std::string& policy, const RunOptions& opts) {
  sim::SimEngine engine(system, workload, opts.engine);
  if (opts.metrics) engine.attach_telemetry(*opts.metrics);
  RunOutput out;
  PolicyBinding binding;
  const sim::PolicyHook hook =
      bind_policy(binding, engine.backends(), system, policy, opts, out.faults);
  out.result = engine.run(hook);
  out.traces = engine.recorder();
  out.policy_degraded = binding.policy->degraded();
  return out;
}

wl::PhaseProgram idle_workload(double duration_s) {
  // Background daemons only: negligible DRAM traffic, a whisper of CPU.
  wl::Phase idle{"idle", duration_s, 50.0, 0.0, 0.02, 0.0};
  return wl::PhaseProgram("idle", {idle});
}

}  // namespace magus::exp
