#include "layers.hpp"

#include <array>
#include <deque>
#include <iostream>

#include "magus/common/rng.hpp"
#include "magus/common/thread_pool.hpp"
#include "magus/core/policy_factory.hpp"
#include "magus/exp/batch.hpp"
#include "magus/exp/evaluation.hpp"
#include "magus/fleet/allocator.hpp"
#include "magus/fleet/runner.hpp"
#include "magus/sim/engine.hpp"
#include "magus/sim/kernel.hpp"
#include "magus/sim/node.hpp"
#include "magus/telemetry/event_log.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/catalog.hpp"
#include "magus/wl/jitter.hpp"
#include "host_speed.hpp"

namespace perfbench {

void OpTally::add(const std::string& what, const std::string& error) {
  ++attempted;
  if (!error.empty()) {
    ++failed;
    std::cerr << "perfbench: " << what << " failed: " << error << "\n";
  }
}

namespace {

using namespace magus;

/// Nodes (from the head of the workload's fleet) the wl/exp/sim replays walk.
constexpr std::size_t kSampleNodes = 96;
/// Fleet size and pair count of the interleaved telemetry on/off runs.
constexpr std::size_t kTelemetryNodes = 128;
constexpr int kTelemetryPairs = 8;
/// Allocator replay budget on fleets that carry none.
constexpr double kReplayBudgetWPerNode = 300.0;
/// Share of the run's seconds spent on interleaved traced/untraced ops.
constexpr double kSpannedShare = 0.5;
constexpr std::array<const char*, 6> kRuntimePolicies{"magus",    "ups",      "duf",
                                                      "ecoshift", "deadline", "comppow"};

template <class Fn>
double median_of(int passes, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < passes; ++i) v.push_back(fn());
  return median(v);
}

/// Host ns per call of body(i), median over five passes of `iters` calls.
template <class Body>
double ns_per_iter(int iters, Body&& body) {
  return median_of(5, [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) body(i);
    return 1e9 * seconds_since(t0) / iters;
  });
}

/// What FleetRunner derives for node `index` (preset with the node's domain
/// knobs, jittered program, run options), rebuilt through the same public
/// functions.
struct NodeInput {
  sim::SystemSpec system;
  wl::PhaseProgram program;
  exp::RunOptions opts;
  std::string policy;
};

NodeInput node_input(const fleet::FleetManifest& m, const fleet::NodeSpec& spec,
                     std::size_t index, double cap_w) {
  common::Rng rng = common::Rng(m.seed()).fork(index);
  wl::PhaseProgram program = wl::make_workload(spec.app());
  if (spec.gpus() > 1) program = wl::scale_for_gpus(program, spec.gpus());
  NodeInput in{sim::system_by_name(spec.system()), wl::apply_jitter(program, rng, m.jitter()),
               {}, spec.policy()};
  in.system.cpu.dies_per_socket = spec.dies();
  in.system.numa_skew = spec.numa_skew();
  in.opts.engine.seed = m.seed() * 1000003ull + index;
  in.opts.engine.record_traces = false;
  in.opts.static_ghz = spec.static_uncore();
  if (cap_w > 0.0) in.opts.power_cap.fixed_cap_w = cap_w;
  return in;
}

/// The first `n` nodes of `m` as a fleet of their own (same node indices,
/// so the same jitter streams); the budget scales with the node count.
fleet::FleetManifest head_fleet(const fleet::FleetManifest& m, std::size_t n) {
  const std::vector<fleet::NodeSpec> nodes = m.expand();
  n = std::min(n, nodes.size());
  fleet::FleetManifest sub;
  sub.seed(m.seed()).jitter(m.jitter()).budget_epoch_s(m.budget_epoch_s());
  sub.power_budget_w(m.power_budget_w() * static_cast<double>(n) /
                     static_cast<double>(nodes.size()));
  for (std::size_t i = 0; i < n; ++i) sub.add_node(nodes[i]);
  return sub;
}

struct FleetRun {
  double run_s = 0.0;
  fleet::FleetResult result;
};

FleetRun run_fleet(const fleet::FleetManifest& m, bool with_telemetry) {
  telemetry::MetricsRegistry registry;
  telemetry::EventLog events;
  fleet::FleetRunner runner(m);
  runner.set_engine(fleet::FleetEngine::kBatch);
  if (with_telemetry) runner.attach_telemetry(registry, &events);
  FleetRun out;
  const auto t0 = Clock::now();
  out.result = runner.run();
  out.run_s = seconds_since(t0);
  return out;
}

/// Per-tick work slices walked from a program's phases (50 ticks each).
std::vector<sim::WorkSlice> slices_of(const wl::PhaseProgram& program) {
  std::vector<sim::WorkSlice> out;
  for (const wl::Phase& ph : program.phases()) {
    out.push_back({ph.mem_demand_mbps, ph.mem_bound_frac, ph.cpu_util, ph.gpu_util});
  }
  return out;
}

double clock_pair_ns() {
  std::vector<double> v;
  for (int i = 0; i < 2001; ++i) {
    const auto t0 = Clock::now();
    const auto t1 = Clock::now();
    v.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  return median(v);
}

/// Mean host ns of IPolicy::on_sample on a SimEngine's backends, the node
/// ticked between samples as micro_runtime_costs does. Median of 5 blocks.
double on_sample_ns(const NodeInput& in, const std::string& name, double clock_ns) {
  sim::SimEngine engine(in.system, in.program, in.opts.engine);
  const hw::UncoreFreqLadder ladder(in.system.cpu.uncore_min_ghz,
                                    in.system.cpu.uncore_max_ghz);
  core::PolicyContext ctx;
  ctx.mem_counter = &engine.mem_counter();
  ctx.energy_counter = &engine.energy_counter();
  ctx.core_counters = &engine.core_counters();
  ctx.msr = &engine.msr();
  ctx.ladder = &ladder;
  ctx.power_cap = &in.opts.power_cap;
  if (in.system.cpu.dies_per_socket > 1 || in.system.numa_skew != 0.0) {
    ctx.domains = &engine.domains();
  }
  const std::unique_ptr<core::IPolicy> policy =
      core::PolicyFactory::instance().make_policy(name, ctx);
  policy->on_start(common::Seconds(0.0));

  const std::vector<sim::WorkSlice> slices = slices_of(in.program);
  const double dt = in.opts.engine.tick_s;
  const long ticks_per_sample = std::max(1L, std::lround(policy->period_s() / dt));
  constexpr int kSamples = 300;
  double t = 0.0;
  long tick = 0;
  return median_of(5, [&] {
    double sum_ns = 0.0;
    for (int s = 0; s < kSamples; ++s) {
      for (long k = 0; k < ticks_per_sample; ++k, ++tick) {
        t += dt;
        keep(engine.node().tick(common::Seconds(t), dt,
                                slices[static_cast<std::size_t>(tick / 50) % slices.size()],
                                0.0));
      }
      const auto t0 = Clock::now();
      policy->on_sample(common::Seconds(t));
      sum_ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    }
    return sum_ns / kSamples - clock_ns;
  });
}

struct BatchReplay {
  double add_us = 0.0;       ///< per lane
  double ns_per_tick = 0.0;  ///< run_all over total_ticks
};

/// One BatchRun over `inputs` laid out as FleetRunner lays out a shard: a
/// policy lane per node plus its default twin. `policy` overrides every
/// node's policy ("" keeps them); a "default" node has no twin.
BatchReplay batch_replay(const std::vector<NodeInput>& inputs, const std::string& policy) {
  exp::BatchRun batch;
  std::deque<exp::RunOptions> twin_opts;
  double add_s = 0.0;
  for (const NodeInput& in : inputs) {
    const std::string& name = policy.empty() ? in.policy : policy;
    const auto t0 = Clock::now();
    keep(batch.add(in.system, in.program, name, in.opts));
    if (name != "default") {
      twin_opts.push_back(in.opts);
      keep(batch.add(in.system, in.program, "default", twin_opts.back()));
    }
    add_s += seconds_since(t0);
  }
  const auto t0 = Clock::now();
  batch.run_all();
  const double run_s = seconds_since(t0);
  for (std::size_t j = 0; j < batch.job_count(); ++j) {
    if (batch.failed(j)) throw std::runtime_error("batch replay lane failed: " + batch.error(j));
  }
  return {1e6 * add_s / static_cast<double>(batch.job_count()),
          1e9 * run_s / static_cast<double>(batch.total_ticks())};
}

/// The FleetRunner node_result line for `n`, built the way to_jsonl builds it.
telemetry::Event node_result_event(const fleet::NodeResult& n) {
  auto join = [](const std::vector<double>& v) {
    std::string s;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += ",";
      s += telemetry::format_double(v[i]);
    }
    return s;
  };
  telemetry::Event line(0.0, "node_result");
  line.str("node", n.name)
      .str("system", n.system)
      .str("app", n.app)
      .str("policy", n.policy)
      .flag("completed", n.completed)
      .flag("degraded", n.degraded)
      .flag("failed", n.failed)
      .num("attempts", n.attempts)
      .num("faults_injected", static_cast<double>(n.faults_injected))
      .num("ticks", static_cast<double>(n.ticks))
      .num("control_latency_s", n.control_latency_s)
      .num("runtime_s", n.runtime_s)
      .num("baseline_runtime_s", n.baseline_runtime_s)
      .num("energy_j", n.energy_j)
      .num("baseline_energy_j", n.baseline_energy_j)
      .num("joules_saved", n.joules_saved)
      .num("slowdown_pct", n.slowdown_pct);
  if (n.power_cap_w > 0.0) line.num("power_cap_w", n.power_cap_w);
  line.num("domains", static_cast<double>(n.domains))
      .str("domain_joules_saved", join(n.domain_joules_saved))
      .str("domain_slowdown_pct", join(n.domain_slowdown_pct))
      .str("error", n.error);
  return line;
}

}  // namespace

void measure_layers(Workload& workload, double seconds, OpTally& tally, MetricSheet& sheet,
                    const std::string& trace_out) {
  Tracer tracer;
  const fleet::FleetManifest& fm = workload.fleet_manifest();
  const std::size_t fleet_nodes = fm.total_nodes();
  const double cap_w =
      fm.power_budget_w() > 0.0 ? fm.power_budget_w() / static_cast<double>(fleet_nodes) : 0.0;

  // --- A. The workload's own ops, traced and untraced in alternating order.
  // Both halves of a pair run the same input set.
  const std::size_t sets = workload.input_sets();
  DigestBook book(sets);
  std::vector<double> traced_rates;
  std::vector<double> untraced_rates;
  std::vector<double> host_speeds;
  OpOutput first;  // input set 0, untraced or traced
  std::uint64_t op_id = 0;
  const auto start = Clock::now();
  for (std::size_t pair = 0; pair < 2 || seconds_since(start) < kSpannedShare * seconds;
       ++pair) {
    const std::size_t set = pair % sets;
    host_speeds.push_back(host_speed(kJobs + 1));
    for (std::size_t half = 0; half < 2; ++half) {
      const bool traced = half == pair % 2;
      const OpOutput o = workload.op(traced ? &tracer : nullptr, op_id, set, kJobs);
      const std::string error = book.check(set, o);
      tally.add("op " + std::to_string(op_id++), error);
      if (pair == 0) first = o;
      if (!error.empty()) continue;
      (traced ? traced_rates : untraced_rates).push_back(o.nodes / o.timed_s);
    }
  }
  const std::vector<Span> spans = tracer.spans();
  const std::vector<double> self = self_times(spans);
  auto span_s = [&](const char* name) { return median_self_s(spans, self, name); };

  // --- B. Fleet layer: spans when the workload runs the fleet, else a
  // replay of the same calls on its replay fleet.
  const std::string fm_jsonl = fm.to_jsonl();
  double ctor_s = 0.0;
  double run_n_s = 0.0;
  double rollup_s = 0.0;
  std::uint64_t digest_n = 0;
  if (workload.runs_fleet()) {
    ctor_s = span_s("fleet.runner_ctor");
    run_n_s = span_s("fleet.run");
    rollup_s = span_s("fleet.rollup_jsonl");
    digest_n = first.digest;
  } else {
    std::vector<double> ctor, run, rollup;
    for (int i = 0; i < 3; ++i) {
      auto t0 = Clock::now();
      fleet::FleetRunner runner(fm);
      ctor.push_back(seconds_since(t0));
      runner.set_engine(fleet::FleetEngine::kBatch);
      t0 = Clock::now();
      const fleet::FleetResult r = runner.run();
      run.push_back(seconds_since(t0));
      t0 = Clock::now();
      const std::string text = r.to_jsonl();
      rollup.push_back(seconds_since(t0));
      digest_n = fnv1a(text);
    }
    ctor_s = median(ctor);
    run_n_s = median(run);
    rollup_s = median(rollup);
  }
  // Manifest parse: a span on fleet-service, a replay where the workload
  // hands over no JSONL.
  bool parse_spanned = false;
  for (const Span& s : spans) parse_spanned |= s.name == "fleet.manifest_parse";
  const double parse_s = parse_spanned ? span_s("fleet.manifest_parse") : median_of(5, [&] {
    const auto t0 = Clock::now();
    keep(fleet::FleetManifest::from_jsonl(fm_jsonl).total_nodes());
    return seconds_since(t0);
  });

  // One worker: the parallel efficiency baseline, and the same bytes.
  const std::string differs = "output at 1 worker differs from 2 workers";
  common::set_default_jobs(1);
  const FleetRun serial = run_fleet(fm, false);
  common::set_default_jobs(kJobs);
  tally.add("1-worker fleet", fnv1a(serial.result.to_jsonl()) == digest_n ? "" : differs);
  if (!workload.runs_fleet()) {
    const OpOutput one = workload.op(nullptr, op_id++, 0, 1);
    tally.add("1-worker op", !one.error.empty()           ? one.error
                             : one.digest != first.digest ? differs
                                                          : "");
  }

  // Allocator pre-pass, replayed stage by stage as the constructor runs it.
  const std::vector<fleet::NodeSpec> expanded = fm.expand();
  std::vector<sim::SystemSpec> systems;
  std::vector<wl::PhaseProgram> programs;
  double span_sim_s = 0.0;
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    NodeInput in = node_input(fm, expanded[i], i, 0.0);
    span_sim_s = std::max(span_sim_s, in.program.nominal_duration_s());
    systems.push_back(sim::system_by_name(expanded[i].system()));
    programs.push_back(std::move(in.program));
  }
  const double epoch_s = fm.budget_epoch_s();
  const std::size_t epochs =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(span_sim_s / epoch_s)));
  std::vector<std::vector<double>> demand(expanded.size());
  const double demand_s = median_of(3, [&] {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < expanded.size(); ++i) {
      demand[i] = fleet::estimate_epoch_demand_w(systems[i], programs[i], epoch_s, epochs);
    }
    return seconds_since(t0);
  });
  std::vector<fleet::NodeDemand> nodes(expanded.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    nodes[i].floor_w = fleet::node_floor_w(systems[i]);
    nodes[i].ceiling_w = fleet::node_ceiling_w(systems[i]);
  }
  const double budget_w = fm.power_budget_w() > 0.0
                              ? fm.power_budget_w()
                              : kReplayBudgetWPerNode * static_cast<double>(fleet_nodes);
  const double allocate_s = median_of(3, [&] {
    double total = 0.0;
    for (std::size_t e = 0; e < epochs; ++e) {
      for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i].demand_w = demand[i][e];
      const auto t0 = Clock::now();
      keep(fleet::PowerBudgetAllocator::allocate(nodes, budget_w).data());
      total += seconds_since(t0);
    }
    return total;
  });

  // --- C. wl / exp / sim replays on the head of the fleet.
  const std::size_t sample_n = std::min(kSampleNodes, expanded.size());
  const double node_inputs_us = median_of(5, [&] {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < sample_n; ++i) {
      const fleet::NodeSpec& spec = expanded[i];
      common::Rng rng = common::Rng(fm.seed()).fork(i);
      keep(sim::system_by_name(spec.system()).cpu.sockets);
      wl::PhaseProgram program = wl::make_workload(spec.app());
      if (spec.gpus() > 1) program = wl::scale_for_gpus(program, spec.gpus());
      keep(wl::apply_jitter(program, rng, fm.jitter()).size());
    }
    return 1e6 * seconds_since(t0) / static_cast<double>(sample_n);
  });
  std::vector<NodeInput> sample;
  for (std::size_t i = 0; i < sample_n; ++i) {
    sample.push_back(node_input(fm, expanded[i], i, cap_w));
  }
  std::vector<BatchReplay> mixed;
  for (int i = 0; i < 3; ++i) mixed.push_back(batch_replay(sample, ""));
  std::vector<double> add_us;
  std::vector<double> batch_ns;
  for (const BatchReplay& b : mixed) {
    add_us.push_back(b.add_us);
    batch_ns.push_back(b.ns_per_tick);
  }
  auto kernel_ns = [&](int dies, double skew) {
    std::vector<NodeInput> lanes = sample;
    for (NodeInput& in : lanes) {
      in.system.cpu.dies_per_socket = dies;
      in.system.numa_skew = skew;
    }
    return median_of(3, [&] { return batch_replay(lanes, "default").ns_per_tick; });
  };
  const double kernel_1die_ns = kernel_ns(1, 0.0);
  const double kernel_2die_ns = kernel_ns(2, 0.3);

  const std::size_t policy_nodes = std::min<std::size_t>(16, sample.size());
  const double run_policy_ns = median_of(3, [&] {
    double s = 0.0;
    double ticks = 0.0;
    for (std::size_t i = 0; i < policy_nodes; ++i) {
      const auto t0 = Clock::now();
      const exp::RunOutput r =
          exp::run_policy(sample[i].system, sample[i].program, sample[i].policy, sample[i].opts);
      s += seconds_since(t0);
      ticks += static_cast<double>(r.result.ticks);
    }
    return 1e9 * s / ticks;
  });

  double evaluate_app_ms = 0.0;
  if (workload.runs_fleet()) {
    exp::EvalSpec spec;
    spec.repeat.seed = fm.seed();
    evaluate_app_ms = 1e3 * median_of(3, [&] {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < 2; ++i) {
        spec.gpu_workload_scale = expanded[i].gpus();
        keep(exp::evaluate_app(sim::system_by_name(expanded[i].system()), expanded[i].app(),
                               spec)
                 .magus.runtime.value());
      }
      return seconds_since(t0) / 2.0;
    });
  } else {
    evaluate_app_ms = 1e3 * span_s("exp.evaluate_app");
  }

  // --- D. The node tick, whole and stage by stage, on the first node.
  const NodeInput& head = sample.front();
  const std::vector<sim::WorkSlice> slices = slices_of(head.program);
  const double dt = head.opts.engine.tick_s;
  sim::NodeModel model(head.system, head.opts.engine.seed);
  double model_t = 0.0;
  const double node_tick_ns = ns_per_iter(200000, [&](int i) {
    model_t += dt;
    keep(model.tick(common::Seconds(model_t), dt,
                    slices[static_cast<std::size_t>(i / 50) % slices.size()], 0.0));
  });
  const sim::kern::NodeParams p = sim::kern::NodeParams::from_spec(head.system);
  constexpr std::size_t kVals = 1024;
  std::array<double, kVals> pkg_w{}, cap_ghz{}, util{}, ipc{}, gpu_util{}, demand_mbps{},
      capacity_mbps{}, mem_bound{};
  common::Rng rng(fm.seed());
  for (std::size_t i = 0; i < kVals; ++i) {
    const sim::WorkSlice& sl = slices[(i / 8) % slices.size()];
    pkg_w[i] = p.fw.threshold_w * rng.uniform(0.8, 1.2);
    cap_ghz[i] = rng.uniform(p.fw.floor_ghz, p.fw.ceiling_ghz);
    util[i] = sl.cpu_util;
    ipc[i] = sim::kern::kBaseIpc / rng.uniform(1.0, 2.0);
    gpu_util[i] = sl.gpu_util;
    demand_mbps[i] = sl.demand_mbps + sim::kern::kBackgroundTrafficMbps;
    capacity_mbps[i] = static_cast<double>(p.sockets) *
                       sim::kern::uncore_capacity_at(p.uncore, cap_ghz[i]);
    mem_bound[i] = sl.mem_bound_frac;
  }
  constexpr int kStageIters = 1000000;
  auto at = [](int i) { return static_cast<std::size_t>(i) & (kVals - 1); };
  sim::kern::FirmwareState fw = sim::kern::init_firmware(p.fw);
  const double firmware_ns = ns_per_iter(kStageIters, [&](int i) {
    keep(sim::kern::firmware_update(fw, p.fw, dt, pkg_w[at(i)]));
  });
  sim::kern::UncoreState un = sim::kern::init_uncore(p.ladder);
  const double uncore_ns = ns_per_iter(kStageIters, [&](int i) {
    sim::kern::uncore_set_firmware_cap(un, p.ladder, cap_ghz[at(i)]);
    sim::kern::uncore_tick(un, dt);
    keep(un.freq_ghz);
  });
  sim::kern::CoreState core = sim::kern::init_core(p.core);
  const double core_ns = ns_per_iter(kStageIters, [&](int i) {
    sim::kern::core_tick(core, p.core, dt, util[at(i)], ipc[at(i)]);
    keep(core.cycles);
  });
  sim::kern::GpuState gpu = sim::kern::init_gpu(p.gpu);
  const double gpu_ns = ns_per_iter(kStageIters, [&](int i) {
    sim::kern::gpu_tick(gpu, p.gpu, dt, gpu_util[at(i)]);
    keep(gpu.energy_j);
  });
  const double memory_ns = ns_per_iter(kStageIters, [&](int i) {
    keep(sim::service_memory(common::Mbps(demand_mbps[at(i)]), common::Mbps(capacity_mbps[at(i)]),
                             mem_bound[at(i)])
             .stretch);
  });

  // --- E. Policies on the first node's backends.
  const double clock_ns = clock_pair_ns();
  for (const char* name : kRuntimePolicies) {
    const std::string base = std::string("policy.") + name;
    sheet.set(base + ".on_sample_ns", on_sample_ns(head, name, clock_ns), "ns");
    const exp::RunOutput r = exp::run_policy(head.system, head.program, name, head.opts);
    sheet.set(base + ".samples_per_run", static_cast<double>(r.result.invocations), "count");
  }

  // --- F. Telemetry: interleaved pairs with and without attach_telemetry.
  const fleet::FleetManifest tel_fleet = head_fleet(fm, kTelemetryNodes);
  std::vector<double> tel_pct;
  fleet::FleetResult tel_result;
  for (int pair = 0; pair < kTelemetryPairs; ++pair) {
    double with_s = 0.0;
    double without_s = 0.0;
    for (int half = 0; half < 2; ++half) {
      const bool with = half == pair % 2;
      FleetRun r = run_fleet(tel_fleet, with);
      (with ? with_s : without_s) = r.run_s;
      tel_result = std::move(r.result);
    }
    tel_pct.push_back(100.0 * (with_s - without_s) / without_s);
  }
  std::vector<telemetry::Event> done_events;
  for (const fleet::NodeResult& n : tel_result.nodes) {
    done_events.push_back(telemetry::Event(n.runtime_s, "fleet_node_done")
                              .str("node", n.name)
                              .str("policy", n.policy)
                              .num("joules_saved", n.joules_saved)
                              .num("slowdown_pct", n.slowdown_pct)
                              .flag("degraded", n.degraded)
                              .flag("failed", n.failed));
  }
  telemetry::EventLog log;
  const int kEventIters = 20000;
  const double emit_ns = median_of(5, [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < kEventIters; ++i) {
      log.emit(done_events[static_cast<std::size_t>(i) % done_events.size()]);
    }
    const double ns = 1e9 * seconds_since(t0) / kEventIters;
    keep(log.drain().size());
    return ns;
  });
  // A node_result line takes ~0.1-0.3 ms to build, so fewer iterations.
  const double to_json_ns = ns_per_iter(256, [&](int i) {
    const fleet::NodeResult& n =
        tel_result.nodes[static_cast<std::size_t>(i) % tel_result.nodes.size()];
    keep(node_result_event(n).to_json().size());
  });

  // --- G. Pool dispatch with an empty body.
  constexpr std::size_t kDispatch = 20000;
  const double dispatch_us = median_of(5, [&] {
    const auto t0 = Clock::now();
    common::default_pool().parallel_for_each(kDispatch, [](std::size_t i) { keep(i); });
    return 1e6 * seconds_since(t0) / static_cast<double>(kDispatch);
  });

  // --- Sheet.
  const double lanes = static_cast<double>(
      std::count_if(serial.result.nodes.begin(), serial.result.nodes.end(),
                    [](const fleet::NodeResult& n) { return n.policy != "default"; }) +
      static_cast<long>(serial.result.nodes.size()));
  const double replayed_s = static_cast<double>(fleet_nodes) * node_inputs_us * 1e-6 +
                            lanes * median(add_us) * 1e-6 +
                            static_cast<double>(serial.result.ticks_total) * median(batch_ns) *
                                1e-9;
  sheet.set("fleet.manifest_parse_ms", 1e3 * parse_s, "ms");
  sheet.set("fleet.runner_ctor_ms", 1e3 * ctor_s, "ms");
  sheet.set("fleet.demand_estimate_ms", 1e3 * demand_s, "ms");
  sheet.set("fleet.allocate_ms", 1e3 * allocate_s, "ms");
  sheet.set("fleet.run_s", run_n_s, "s");
  sheet.set("fleet.rollup_jsonl_ms", 1e3 * rollup_s, "ms");
  // parallel_for_each runs indices on the pool workers and the calling thread.
  const double threads = static_cast<double>(kJobs + 1);
  sheet.set("fleet.parallel_eff", serial.run_s / (threads * run_n_s), "frac");
  sheet.set("fleet.unattributed_frac", 1.0 - replayed_s / serial.run_s, "frac");
  sheet.set("wl.node_inputs_us", node_inputs_us, "us");
  sheet.set("exp.batch_add_us", median(add_us), "us");
  sheet.set("exp.batch_ns_per_tick", median(batch_ns), "ns");
  sheet.set("exp.run_policy_ns_per_tick", run_policy_ns, "ns");
  sheet.set("exp.evaluate_app_ms", evaluate_app_ms, "ms");
  sheet.set("sim.kernel_ns_per_tick.1die", kernel_1die_ns, "ns");
  sheet.set("sim.kernel_ns_per_tick.2die", kernel_2die_ns, "ns");
  sheet.set("sim.node_tick_ns", node_tick_ns, "ns");
  sheet.set("sim.stage.firmware_ns", firmware_ns, "ns");
  sheet.set("sim.stage.uncore_ns", uncore_ns, "ns");
  sheet.set("sim.stage.core_ns", core_ns, "ns");
  sheet.set("sim.stage.gpu_ns", gpu_ns, "ns");
  sheet.set("sim.stage.memory_ns", memory_ns, "ns");
  sheet.set("sim.ticks_per_s",
            workload.runs_fleet()
                ? static_cast<double>(first.ticks) / run_n_s
                : 1e9 / run_policy_ns,
            "1/s");
  sheet.set("telemetry.overhead_pct", median(tel_pct), "pct");
  sheet.set("telemetry.overhead_iqr_pct", quantile(tel_pct, 0.75) - quantile(tel_pct, 0.25),
            "pct");
  sheet.set("telemetry.emit_ns", emit_ns, "ns");
  sheet.set("telemetry.to_json_ns", to_json_ns, "ns");
  sheet.set("common.pool_dispatch_us", dispatch_us, "us");
  sheet.set("trace.op_self_ms", 1e3 * span_s("op"), "ms");
  sheet.set("host.probe_chunks_per_s", median(host_speeds), "1/s");
  sheet.set("host.nodes_per_s_raw", median(untraced_rates), "1/s");
  const double traced = median(traced_rates);
  const double untraced = median(untraced_rates);
  sheet.set("trace.nodes_per_s_delta", traced - untraced, "1/s");
  sheet.set("trace.overhead_pct", 100.0 * (untraced - traced) / untraced, "pct");

  if (!trace_out.empty()) tracer.write_jsonl(trace_out);
}

}  // namespace perfbench
