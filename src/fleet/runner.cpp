#include "magus/fleet/runner.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <string>
#include <utility>

#include "magus/common/error.hpp"
#include "magus/common/rng.hpp"
#include "magus/common/stats.hpp"
#include "magus/common/thread_pool.hpp"
#include "magus/exp/batch.hpp"
#include "magus/fleet/allocator.hpp"
#include "magus/telemetry/event_log.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/catalog.hpp"
#include "magus/wl/jitter.hpp"

namespace magus::fleet {

namespace {

/// Per-domain uncore-energy savings and memory stretch-time slowdown vs the
/// default twin (same system, so the same domain count). A default-policy
/// node is its own twin, so its deltas are exactly zero. Slowdown uses the
/// time each domain spent stretched by memory pressure -- the per-domain
/// analogue of the runtime ratio (per-domain wall clock does not exist;
/// domains of one node finish together).
void fill_domain_metrics(NodeResult& out, const sim::SimResult& run,
                         const sim::SimResult& baseline) {
  const std::size_t n = run.domain_uncore_energy_j.size();
  out.domains = static_cast<int>(n);
  out.domain_joules_saved.assign(n, 0.0);
  out.domain_slowdown_pct.assign(n, 0.0);
  for (std::size_t d = 0; d < n; ++d) {
    out.domain_joules_saved[d] =
        baseline.domain_uncore_energy_j[d] - run.domain_uncore_energy_j[d];
    const double base_stretch = baseline.domain_stretch_time_s[d];
    out.domain_slowdown_pct[d] =
        base_stretch > 0.0
            ? 100.0 * (run.domain_stretch_time_s[d] / base_stretch - 1.0)
            : 0.0;
  }
}

/// Comma-joined doubles in the registry's canonical format, so node lines
/// stay one flat JSON object per line (the parser has no array support).
std::string join_doubles(const std::vector<double>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    out += telemetry::format_double(values[i]);
  }
  return out;
}

}  // namespace

FleetRunner::FleetRunner(FleetManifest manifest) : manifest_(std::move(manifest)) {
  manifest_.validate_or_throw();
  expanded_ = manifest_.expand();
  bool any_node_cap = false;
  for (const NodeSpec& spec : expanded_) any_node_cap |= spec.power_cap_w() > 0.0;
  if (manifest_.power_budget_w() > 0.0 || any_node_cap) compute_power_caps();
}

void FleetRunner::compute_power_caps() {
  const std::size_t total = expanded_.size();
  caps_.assign(total, core::PowerCapSchedule{});
  for (std::size_t i = 0; i < total; ++i) {
    caps_[i].fixed_cap_w = expanded_[i].power_cap_w();
  }
  const double budget_w = manifest_.power_budget_w();
  if (budget_w <= 0.0) return;  // static per-node caps only, no allocation

  // Per-node demand profiles from the same jittered programs node_inputs
  // will later hand the runs (the fork is order-independent, so deriving
  // each program twice changes nothing).
  const double epoch_s = manifest_.budget_epoch_s();
  std::vector<sim::SystemSpec> systems;
  std::vector<wl::PhaseProgram> programs;
  systems.reserve(total);
  programs.reserve(total);
  double span_s = 0.0;
  for (std::size_t i = 0; i < total; ++i) {
    programs.push_back(jittered_program(i));
    systems.push_back(sim::system_by_name(expanded_[i].system()));
    span_s = std::max(span_s, programs.back().nominal_duration_s());
  }
  // An epoch so short that the run splits into more than kMaxBudgetEpochs
  // (or an uncountable number) would overflow the size_t cast below or
  // exhaust memory on the per-epoch tables.
  constexpr double kMaxBudgetEpochs = 1'000'000.0;
  const double epoch_count = std::ceil(span_s / epoch_s);
  if (!(epoch_count <= kMaxBudgetEpochs)) {
    throw common::ConfigError("budget_epoch_s " + std::to_string(epoch_s) + " splits the " +
                              std::to_string(span_s) + " s run into more than " +
                              std::to_string(static_cast<long>(kMaxBudgetEpochs)) +
                              " epochs");
  }
  const std::size_t epochs = std::max<std::size_t>(1, static_cast<std::size_t>(epoch_count));

  std::vector<std::vector<double>> demand(total);
  std::vector<NodeDemand> bounds(total);
  for (std::size_t i = 0; i < total; ++i) {
    demand[i] = estimate_epoch_demand_w(systems[i], programs[i], epoch_s, epochs);
    bounds[i].floor_w = node_floor_w(systems[i]);
    bounds[i].ceiling_w = node_ceiling_w(systems[i]);
    // A manifest-set node cap tightens the allocator's ceiling.
    if (expanded_[i].power_cap_w() > 0.0) {
      bounds[i].ceiling_w = std::min(bounds[i].ceiling_w, expanded_[i].power_cap_w());
      bounds[i].floor_w = std::min(bounds[i].floor_w, bounds[i].ceiling_w);
    }
    caps_[i].epoch_s = epoch_s;
    caps_[i].epoch_cap_w.reserve(epochs);
  }

  budget_epochs_.resize(epochs);
  std::vector<NodeDemand> epoch_nodes(total);
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t i = 0; i < total; ++i) {
      epoch_nodes[i] = bounds[i];
      epoch_nodes[i].demand_w = demand[i][e];
    }
    const std::vector<double> alloc =
        PowerBudgetAllocator::allocate(epoch_nodes, budget_w);
    BudgetEpochRollup& roll = budget_epochs_[e];
    roll.epoch = e;
    for (std::size_t i = 0; i < total; ++i) {
      caps_[i].epoch_cap_w.push_back(alloc[i]);
      roll.allocated_w += alloc[i];
      roll.clipped_w += std::max(0.0, demand[i][e] - alloc[i]);
    }
  }
}

void FleetRunner::attach_telemetry(telemetry::MetricsRegistry& reg,
                                   telemetry::EventLog* events) {
  events_ = events;
  m_nodes_total_ = reg.gauge("magus_fleet_nodes", "Nodes in the current fleet run");
  m_nodes_done_ =
      reg.counter("magus_fleet_nodes_completed_total", "Fleet nodes fully simulated");
  m_joules_saved_ = reg.gauge("magus_fleet_joules_saved_total",
                              "Fleet energy saved vs the all-default fleet (J)");
  m_degraded_nodes_ = reg.gauge("magus_fleet_degraded_nodes",
                                "Nodes that finished in policy-fallback mode or failed");
  m_failed_nodes_ = reg.gauge("magus_fleet_failed_nodes",
                              "Nodes whose every simulation attempt threw");
  m_power_budget_ = reg.gauge("magus_fleet_power_budget_w",
                              "Global fleet power budget (W; 0 = budgeting off)");
  m_power_allocated_ = reg.gauge(
      "magus_fleet_power_allocated_w",
      "Mean per-epoch Watts the budget allocator handed out across the fleet");
  m_power_clipped_ = reg.gauge(
      "magus_fleet_power_clipped_w",
      "Mean per-epoch Watts of estimated demand the budget could not fund");
}

/// The per-node inputs (system preset, jittered workload, run options) the
/// policy run and its twin consume.
struct FleetRunner::NodeInputs {
  sim::SystemSpec system;
  wl::PhaseProgram jittered;
  exp::RunOptions opts;
};

wl::PhaseProgram FleetRunner::jittered_program(std::size_t index) const {
  // Node identity drives all randomness: the jitter stream is forked from
  // the manifest seed by node index (fork is order-independent), so nothing
  // depends on scheduling.
  const NodeSpec& spec = expanded_[index];
  common::Rng node_rng = common::Rng(manifest_.seed()).fork(index);
  wl::PhaseProgram program = wl::make_workload(spec.app());
  if (spec.gpus() > 1) program = wl::scale_for_gpus(program, spec.gpus());
  return wl::apply_jitter(program, node_rng, manifest_.jitter());
}

FleetRunner::NodeInputs FleetRunner::node_inputs(std::size_t index) const {
  const NodeSpec& spec = expanded_[index];
  NodeInputs in{sim::system_by_name(spec.system()), jittered_program(index), {}};
  // Domain knobs override the preset. The defaults (1 die, zero skew) match
  // every preset, so legacy specs reproduce the pre-domain inputs exactly.
  in.system.cpu.dies_per_socket = spec.dies();
  in.system.numa_skew = spec.numa_skew();
  // The engine noise seed is derived the way exp::run_repeated derives
  // per-repetition seeds.
  in.opts.engine.seed = manifest_.seed() * 1000003ull + index;
  in.opts.engine.record_traces = false;
  in.opts.static_ghz = spec.static_uncore();
  in.opts.fault = manifest_.fault();
  in.opts.fault_node = index;
  // Cap schedules are fixed by the constructor (manifest-only inputs), so
  // handing them out here keeps any shard layout on the exact same caps.
  if (!caps_.empty()) in.opts.power_cap = caps_[index];
  return in;
}

void FleetRunner::run_shard(std::size_t begin, std::size_t end,
                            std::vector<NodeResult>& results) const {
  // Failure isolation: a node whose backend dies (a policy that does not
  // ride the degradation ladder, e.g. UPS hitting an injected MSR -EIO) is
  // retried, then recorded as failed -- never allowed to poison sibling
  // lanes or shards.
  constexpr int kNodeAttempts = 3;

  for (std::size_t i = begin; i < end; ++i) {
    const NodeSpec& spec = expanded_[i];
    NodeResult& out = results[i];
    out.index = i;
    out.name = spec.name();
    out.system = spec.system();
    out.app = spec.app();
    out.policy = spec.policy();
  }

  std::vector<std::size_t> pending;
  pending.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) pending.push_back(i);

  // Node inputs are identical per attempt, so the recorded outcome is
  // deterministic regardless of scheduling, and a retry round is literally a
  // fresh BatchRun over the still-unsettled nodes.
  for (int attempt = 1; attempt <= kNodeAttempts && !pending.empty(); ++attempt) {
    exp::BatchRun batch;
    // PolicyContext keeps pointers into RunOptions; deques pin the addresses
    // for the lifetime of the BatchRun.
    std::deque<NodeInputs> inputs;
    std::deque<exp::RunOptions> twin_opts;
    struct LaneMap {
      std::size_t node = 0;
      std::size_t run_lane = 0;
      std::size_t twin_lane = 0;
      bool has_twin = false;
    };
    std::vector<LaneMap> lanes;
    lanes.reserve(pending.size());
    std::vector<std::size_t> next_pending;

    for (const std::size_t node : pending) {
      results[node].attempts = attempt;
      inputs.push_back(node_inputs(node));
      const NodeInputs& in = inputs.back();
      const std::string& policy = expanded_[node].policy();
      LaneMap map{node, 0, 0, false};
      try {
        map.run_lane = batch.add(in.system, in.jittered, policy, in.opts);
        // The default-policy twin sees the identical jittered workload and
        // engine seed; a node that already runs "default" is its own twin.
        // The twin runs fault-free: "default" issues no backend calls, so
        // fault decorators could never reach it anyway -- skipping them just
        // saves the plan/decorator setup without changing a single byte.
        if (policy != "default") {
          twin_opts.push_back(in.opts);
          twin_opts.back().fault = {};
          map.twin_lane = batch.add(in.system, in.jittered, "default", twin_opts.back());
          map.has_twin = true;
        }
        lanes.push_back(map);
      } catch (const std::exception& e) {
        // make_policy (or option validation) threw -- deterministic, so it
        // consumes a retry like a throw inside the run.
        results[node].error = e.what();
        next_pending.push_back(node);
      }
    }

    batch.run_all();

    for (const LaneMap& map : lanes) {
      NodeResult& out = results[map.node];
      if (batch.failed(map.run_lane) || (map.has_twin && batch.failed(map.twin_lane))) {
        out.error = batch.failed(map.run_lane) ? batch.error(map.run_lane)
                                               : batch.error(map.twin_lane);
        next_pending.push_back(map.node);
        continue;
      }
      const exp::RunOutput& run = batch.output(map.run_lane);
      const sim::SimResult& baseline =
          map.has_twin ? batch.output(map.twin_lane).result : run.result;

      out.completed = run.result.completed;
      out.runtime_s = run.result.duration_s;
      out.baseline_runtime_s = baseline.duration_s;
      out.energy_j = run.result.total_energy_j();
      out.baseline_energy_j = baseline.total_energy_j();
      out.joules_saved = out.baseline_energy_j - out.energy_j;
      out.slowdown_pct = baseline.duration_s > 0.0
                             ? 100.0 * (run.result.duration_s / baseline.duration_s - 1.0)
                             : 0.0;
      out.degraded = run.policy_degraded;
      out.faults_injected =
          run.faults.injected() +
          (map.has_twin ? batch.output(map.twin_lane).faults.injected() : 0u);
      out.ticks = run.result.ticks +
                  (map.has_twin ? batch.output(map.twin_lane).result.ticks : 0u);
      out.control_latency_s = run.result.avg_invocation_s();
      fill_domain_metrics(out, run.result, baseline);
      out.error.clear();
    }
    // Keep node-index order so error strings and retry rounds are stable.
    std::sort(next_pending.begin(), next_pending.end());
    pending = std::move(next_pending);
  }

  // Every attempt threw: zeroed numerics, flagged, isolated.
  for (const std::size_t node : pending) {
    NodeResult& out = results[node];
    out.failed = true;
    out.degraded = true;
    out.completed = false;
  }
}

FleetResult FleetRunner::run() {
  const std::size_t total = expanded_.size();
  completed_.store(0, std::memory_order_relaxed);
  telemetry::set(m_nodes_total_, static_cast<double>(total));

  // Shards are contiguous index ranges; each shard simulates its nodes
  // serially into pre-sized slots. The shard fan-out decides only which
  // worker computes which slot, never the values, so any --jobs count (and
  // any shard size) yields bit-identical rollups. A shard size beyond the
  // fleet is clamped: one shard covering everything.
  const std::size_t shard_size =
      std::min(static_cast<std::size_t>(manifest_.shard_size()),
               std::max<std::size_t>(total, 1));
  const std::size_t shards = (total + shard_size - 1) / shard_size;
  std::vector<NodeResult> results(total);
  const auto report_node = [&](const NodeResult& r) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    telemetry::inc(m_nodes_done_);
    if (events_) {
      events_->emit(telemetry::Event(r.runtime_s, "fleet_node_done")
                        .str("node", r.name)
                        .str("policy", r.policy)
                        .num("joules_saved", r.joules_saved)
                        .num("slowdown_pct", r.slowdown_pct)
                        .flag("degraded", r.degraded)
                        .flag("failed", r.failed));
    }
  };
  common::default_pool().parallel_for_each(shards, [&](std::size_t shard) {
    const std::size_t begin = shard * shard_size;
    const std::size_t end = std::min(total, begin + shard_size);
    run_shard(begin, end, results);
    for (std::size_t i = begin; i < end; ++i) report_node(results[i]);
  });

  // Serial aggregation in node-index order: the accumulation order of every
  // double below is fixed, keeping rollups bit-identical across job counts.
  // magus:rollup-begin -- ordered containers only (unordered iteration would
  // break the byte-identical contract; enforced by the unordered-rollup rule)
  FleetResult fleet;
  fleet.seed = manifest_.seed();
  fleet.nodes_total = total;
  // Budget accounting: the allocated/clipped halves were fixed by the
  // constructor; the consumed half integrates each node's average draw over
  // the epochs its runtime overlaps. Serial, node-index order.
  if (manifest_.power_budget_w() > 0.0) {
    fleet.power_budget_w = manifest_.power_budget_w();
    fleet.budget_epoch_s = manifest_.budget_epoch_s();
    fleet.budget_epochs = budget_epochs_;
    const double epoch_s = manifest_.budget_epoch_s();
    for (const NodeResult& r : results) {
      if (r.failed || r.runtime_s <= 0.0) continue;
      const double avg_w = r.energy_j / r.runtime_s;
      for (BudgetEpochRollup& roll : fleet.budget_epochs) {
        const double begin_s = static_cast<double>(roll.epoch) * epoch_s;
        const double overlap =
            std::clamp(r.runtime_s - begin_s, 0.0, epoch_s) / epoch_s;
        roll.consumed_w += avg_w * overlap;
      }
    }
  }
  if (!caps_.empty()) {
    for (std::size_t i = 0; i < total; ++i) {
      const core::PowerCapSchedule& cap = caps_[i];
      if (!cap.epoch_cap_w.empty()) {
        double sum = 0.0;
        for (const double w : cap.epoch_cap_w) sum += w;
        results[i].power_cap_w = sum / static_cast<double>(cap.epoch_cap_w.size());
      } else {
        results[i].power_cap_w = cap.fixed_cap_w;
      }
    }
  }
  std::vector<double> slowdowns;
  slowdowns.reserve(total);
  struct PolicyAcc {
    std::vector<double> slowdowns;  ///< failed nodes excluded
    double joules = 0.0;
    std::size_t nodes = 0;
    std::size_t degraded = 0;
    std::size_t failed = 0;
  };
  std::map<std::string, PolicyAcc> by_policy;
  struct DomainAcc {
    std::vector<double> slowdowns;  ///< failed nodes excluded
    double joules = 0.0;
    std::size_t nodes = 0;
  };
  std::vector<DomainAcc> by_domain;
  for (const NodeResult& r : results) {
    // A failed node contributes its (zeroed) joules but is excluded from the
    // slowdown percentiles: its numerics are placeholders, not measurements.
    fleet.joules_saved_total += r.joules_saved;
    fleet.ticks_total += r.ticks;
    if (!r.failed) slowdowns.push_back(r.slowdown_pct);
    fleet.degraded_nodes += r.degraded ? 1u : 0u;
    fleet.failed_nodes += r.failed ? 1u : 0u;
    PolicyAcc& acc = by_policy[r.policy];
    ++acc.nodes;
    if (!r.failed) acc.slowdowns.push_back(r.slowdown_pct);
    acc.joules += r.joules_saved;
    acc.degraded += r.degraded ? 1u : 0u;
    acc.failed += r.failed ? 1u : 0u;
    // Per-domain rollup; a failed node's vectors are empty, so it simply
    // contributes to no domain (matching its zeroed node-level numerics).
    for (std::size_t d = 0; d < r.domain_joules_saved.size(); ++d) {
      if (by_domain.size() <= d) by_domain.resize(d + 1);
      DomainAcc& dacc = by_domain[d];
      ++dacc.nodes;
      dacc.joules += r.domain_joules_saved[d];
      if (!r.failed) dacc.slowdowns.push_back(r.domain_slowdown_pct[d]);
    }
  }
  fleet.slowdown_p50_pct = common::percentile(slowdowns, 50.0);
  fleet.slowdown_p95_pct = common::percentile(slowdowns, 95.0);
  fleet.slowdown_p99_pct = common::percentile(slowdowns, 99.0);
  for (const auto& [policy, acc] : by_policy) {
    PolicyRollup roll;
    roll.policy = policy;
    roll.nodes = acc.nodes;
    roll.degraded_nodes = acc.degraded;
    roll.failed_nodes = acc.failed;
    roll.joules_saved_total = acc.joules;
    roll.slowdown_p50_pct = common::percentile(acc.slowdowns, 50.0);
    roll.slowdown_p95_pct = common::percentile(acc.slowdowns, 95.0);
    roll.slowdown_p99_pct = common::percentile(acc.slowdowns, 99.0);
    fleet.per_policy.push_back(std::move(roll));
  }
  for (std::size_t d = 0; d < by_domain.size(); ++d) {
    DomainRollup roll;
    roll.domain = static_cast<int>(d);
    roll.nodes = by_domain[d].nodes;
    roll.joules_saved_total = by_domain[d].joules;
    roll.slowdown_p50_pct = common::percentile(by_domain[d].slowdowns, 50.0);
    roll.slowdown_p95_pct = common::percentile(by_domain[d].slowdowns, 95.0);
    roll.slowdown_p99_pct = common::percentile(by_domain[d].slowdowns, 99.0);
    fleet.per_domain.push_back(std::move(roll));
  }
  fleet.nodes = std::move(results);
  // magus:rollup-end

  telemetry::set(m_joules_saved_, fleet.joules_saved_total);
  telemetry::set(m_degraded_nodes_, static_cast<double>(fleet.degraded_nodes));
  telemetry::set(m_failed_nodes_, static_cast<double>(fleet.failed_nodes));
  telemetry::set(m_power_budget_, fleet.power_budget_w);
  if (!fleet.budget_epochs.empty()) {
    double allocated = 0.0;
    double clipped = 0.0;
    for (const BudgetEpochRollup& roll : fleet.budget_epochs) {
      allocated += roll.allocated_w;
      clipped += roll.clipped_w;
    }
    const auto epochs = static_cast<double>(fleet.budget_epochs.size());
    telemetry::set(m_power_allocated_, allocated / epochs);
    telemetry::set(m_power_clipped_, clipped / epochs);
  }
  if (events_) {
    events_->emit(telemetry::Event(0.0, "fleet_done")
                      .num("nodes", static_cast<double>(total))
                      .num("joules_saved_total", fleet.joules_saved_total)
                      .num("slowdown_p95_pct", fleet.slowdown_p95_pct)
                      .num("degraded_nodes", static_cast<double>(fleet.degraded_nodes))
                      .num("failed_nodes", static_cast<double>(fleet.failed_nodes)));
  }
  return fleet;
}

std::string FleetResult::header_jsonl() const {
  // magus:rollup-begin -- serialization region (through to_jsonl below):
  // iteration order here IS the byte-identity contract, so only ordered
  // containers may be walked.
  telemetry::Event head(0.0, "fleet_rollup");
  head.str("seed", std::to_string(seed))
      .num("nodes", static_cast<double>(nodes_total))
      .num("ticks_total", static_cast<double>(ticks_total))
      .num("degraded_nodes", static_cast<double>(degraded_nodes))
      .num("failed_nodes", static_cast<double>(failed_nodes))
      .num("joules_saved_total", joules_saved_total)
      .num("slowdown_p50_pct", slowdown_p50_pct)
      .num("slowdown_p95_pct", slowdown_p95_pct)
      .num("slowdown_p99_pct", slowdown_p99_pct);
  // Budget fields and budget_rollup lines appear only on budgeted fleets, so
  // an unbudgeted run's dump is byte-identical to the pre-budget format.
  if (power_budget_w > 0.0) {
    head.num("power_budget_w", power_budget_w).num("budget_epoch_s", budget_epoch_s);
  }
  return head.to_json() + "\n";
}

std::string FleetResult::to_jsonl() const {
  std::string out = header_jsonl();
  for (const PolicyRollup& roll : per_policy) {
    out += telemetry::Event(0.0, "policy_rollup")
               .str("policy", roll.policy)
               .num("nodes", static_cast<double>(roll.nodes))
               .num("degraded_nodes", static_cast<double>(roll.degraded_nodes))
               .num("failed_nodes", static_cast<double>(roll.failed_nodes))
               .num("joules_saved_total", roll.joules_saved_total)
               .num("slowdown_p50_pct", roll.slowdown_p50_pct)
               .num("slowdown_p95_pct", roll.slowdown_p95_pct)
               .num("slowdown_p99_pct", roll.slowdown_p99_pct)
               .to_json() +
           "\n";
  }
  for (const DomainRollup& roll : per_domain) {
    out += telemetry::Event(0.0, "domain_rollup")
               .num("domain", static_cast<double>(roll.domain))
               .num("nodes", static_cast<double>(roll.nodes))
               .num("joules_saved_total", roll.joules_saved_total)
               .num("slowdown_p50_pct", roll.slowdown_p50_pct)
               .num("slowdown_p95_pct", roll.slowdown_p95_pct)
               .num("slowdown_p99_pct", roll.slowdown_p99_pct)
               .to_json() +
           "\n";
  }
  for (const BudgetEpochRollup& roll : budget_epochs) {
    out += telemetry::Event(0.0, "budget_rollup")
               .num("epoch", static_cast<double>(roll.epoch))
               .num("allocated_w", roll.allocated_w)
               .num("consumed_w", roll.consumed_w)
               .num("clipped_w", roll.clipped_w)
               .to_json() +
           "\n";
  }
  for (const NodeResult& r : nodes) {
    telemetry::Event line(0.0, "node_result");
    line.str("node", r.name)
        .str("system", r.system)
        .str("app", r.app)
        .str("policy", r.policy)
        .flag("completed", r.completed)
        .flag("degraded", r.degraded)
        .flag("failed", r.failed)
        .num("attempts", r.attempts)
        .num("faults_injected", static_cast<double>(r.faults_injected))
        .num("ticks", static_cast<double>(r.ticks))
        .num("control_latency_s", r.control_latency_s)
        .num("runtime_s", r.runtime_s)
        .num("baseline_runtime_s", r.baseline_runtime_s)
        .num("energy_j", r.energy_j)
        .num("baseline_energy_j", r.baseline_energy_j)
        .num("joules_saved", r.joules_saved)
        .num("slowdown_pct", r.slowdown_pct);
    // Caps postdate the v1 node lines; capped nodes only.
    if (r.power_cap_w > 0.0) line.num("power_cap_w", r.power_cap_w);
    line.num("domains", static_cast<double>(r.domains))
        .str("domain_joules_saved", join_doubles(r.domain_joules_saved))
        .str("domain_slowdown_pct", join_doubles(r.domain_slowdown_pct))
        .str("error", r.error);
    out += line.to_json() + "\n";
  }
  return out;
  // magus:rollup-end
}

}  // namespace magus::fleet
