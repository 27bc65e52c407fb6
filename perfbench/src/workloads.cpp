#include "workloads.hpp"

#include <array>
#include <cstdio>
#include <stdexcept>

#include "magus/common/thread_pool.hpp"
#include "magus/exp/evaluation.hpp"
#include "magus/fleet/runner.hpp"
#include "magus/sim/system_preset.hpp"
#include "magus/telemetry/event_log.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/catalog.hpp"

namespace perfbench {

namespace {

using namespace magus;

constexpr std::uint64_t kMixSeed = 2025;
constexpr int kServiceNodes = 500;
constexpr int kBudgetNodes = 400;
/// Fleet budget per node: below the cap-aware mix's estimated demand, so
/// every epoch clips.
constexpr double kBudgetWPerNode = 300.0;
/// Short epochs make the allocator pre-pass a visible share of set-up.
constexpr double kBudgetEpochS = 0.25;
constexpr int kFig4Repetitions = 7;
/// Input sets per workload: enough pooled nodes (or apps) that the p95
/// slowdown is steady across seeds, few enough that one pass fits a run.
constexpr std::size_t kServiceSets = 12;
constexpr std::size_t kBudgetSets = 6;
constexpr std::size_t kFig4Sets = 16;

/// Appends ",<v>" with every digit of v.
void append_field(std::string& row, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, ",%.17g", v);
  row += buf;
}

/// Internal consistency of a fault-free fleet rollup; "" when it holds.
std::string check_fleet(const fleet::FleetResult& r, const fleet::FleetManifest& m) {
  if (r.nodes_total != m.total_nodes() || r.nodes.size() != r.nodes_total) {
    return "rollup covers " + std::to_string(r.nodes_total) + " of " +
           std::to_string(m.total_nodes()) + " nodes";
  }
  if (r.failed_nodes != 0) return std::to_string(r.failed_nodes) + " nodes failed";
  double joules = 0.0;
  for (const fleet::NodeResult& n : r.nodes) {
    if (!n.completed) return "node " + n.name + " hit the engine cap";
    joules += n.joules_saved;
  }
  if (joules != r.joules_saved_total) return "joules_saved_total != sum over nodes";
  std::size_t policy_nodes = 0;
  for (const fleet::PolicyRollup& p : r.per_policy) policy_nodes += p.nodes;
  if (policy_nodes != r.nodes_total) return "per-policy node counts do not add up";
  for (const fleet::BudgetEpochRollup& e : r.budget_epochs) {
    if (e.allocated_w > r.power_budget_w * (1.0 + 1e-9)) {
      return "epoch " + std::to_string(e.epoch) + " allocates beyond the budget";
    }
  }
  if (m.power_budget_w() > 0.0 && r.budget_epochs.empty()) return "budget rollup missing";
  return "";
}

struct FleetShape {
  bool jsonl_input;   ///< the program receives manifest JSONL (parsed in set-up)
  bool telemetry;     ///< MetricsRegistry + EventLog attached
  bool rollup_timed;  ///< to_jsonl inside the timed region
};

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::vector<fleet::FleetManifest> manifests, FleetShape shape)
      : manifests_(std::move(manifests)), shape_(shape) {
    for (const fleet::FleetManifest& m : manifests_) {
      jsonl_.push_back(shape.jsonl_input ? m.to_jsonl() : std::string());
    }
  }

  [[nodiscard]] std::size_t input_sets() const override { return manifests_.size(); }

  OpOutput op(Tracer* tracer, std::uint64_t op_id, std::size_t set,
              std::size_t jobs) override {
    const fleet::FleetManifest& input = manifests_.at(set);
    OpOutput out;
    common::set_default_jobs(jobs);
    ScopedSpan op_span(tracer, "op", -1, op_id);
    const std::int64_t parent = op_span.id();
    try {
      const auto t0 = Clock::now();
      fleet::FleetManifest manifest;
      if (shape_.jsonl_input) {
        ScopedSpan s(tracer, "fleet.manifest_parse", parent, op_id);
        manifest = fleet::FleetManifest::from_jsonl(jsonl_[set]);
      } else {
        ScopedSpan s(tracer, "fleet.manifest_build", parent, op_id);
        manifest = input;
      }
      // Declared before the runner, which keeps pointers to them.
      telemetry::MetricsRegistry registry;
      telemetry::EventLog events;
      std::unique_ptr<fleet::FleetRunner> runner;
      {
        ScopedSpan s(tracer, "fleet.runner_ctor", parent, op_id);
        runner = std::make_unique<fleet::FleetRunner>(std::move(manifest));
      }
      runner->set_engine(fleet::FleetEngine::kBatch);
      if (shape_.telemetry) runner->attach_telemetry(registry, &events);
      out.setup_s = seconds_since(t0);

      const auto t1 = Clock::now();
      fleet::FleetResult result;
      {
        ScopedSpan s(tracer, "fleet.run", parent, op_id);
        result = runner->run();
      }
      std::string rollup;
      if (shape_.rollup_timed) {
        ScopedSpan s(tracer, "fleet.rollup_jsonl", parent, op_id);
        rollup = result.to_jsonl();
      }
      out.timed_s = seconds_since(t1);
      if (!shape_.rollup_timed) {
        ScopedSpan s(tracer, "fleet.rollup_jsonl", parent, op_id);
        rollup = result.to_jsonl();
      }

      ScopedSpan s(tracer, "bench.check", parent, op_id);
      out.digest = fnv1a(rollup);
      out.error = check_fleet(result, input);
      out.nodes = static_cast<double>(result.nodes_total);
      out.ticks = result.ticks_total;
      for (const fleet::NodeResult& n : result.nodes) {
        out.reference += n.baseline_energy_j;
        out.slowdowns_pct.push_back(n.slowdown_pct);
      }
      out.saved = result.joules_saved_total;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    return out;
  }

  [[nodiscard]] const fleet::FleetManifest& fleet_manifest() const override {
    return manifests_.front();
  }
  [[nodiscard]] bool runs_fleet() const override { return true; }

 private:
  std::vector<fleet::FleetManifest> manifests_;
  FleetShape shape_;
  std::vector<std::string> jsonl_;
};

struct Fig4Job {
  std::string system;
  std::string app;
  int gpu_scale = 1;
};

class Fig4Workload final : public Workload {
 public:
  Fig4Workload(std::vector<Fig4Job> jobs, std::vector<std::uint64_t> seeds)
      : jobs_(std::move(jobs)), seeds_(std::move(seeds)) {
    // Replay fleet: one node per (system, app) job, cycling the three
    // evaluated policies.
    const std::array<const char*, 3> policies{"magus", "ups", "default"};
    replay_.seed(seeds_.front());
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      fleet::NodeSpec node;
      node.name("fig4/" + std::to_string(i))
          .system(jobs_[i].system)
          .app(jobs_[i].app)
          .gpus(jobs_[i].gpu_scale)
          .policy(policies[i % policies.size()]);
      replay_.add_node(std::move(node));
    }
  }

  [[nodiscard]] std::size_t input_sets() const override { return seeds_.size(); }

  OpOutput op(Tracer* tracer, std::uint64_t op_id, std::size_t set,
              std::size_t jobs) override {
    const std::uint64_t seed = seeds_.at(set);
    OpOutput out;
    // Pool start is set-up work: shrink the pool outside the timed region so
    // the set-up below starts it again.
    common::set_default_jobs(1);
    ScopedSpan op_span(tracer, "op", -1, op_id);
    const std::int64_t parent = op_span.id();
    try {
      const auto t0 = Clock::now();
      std::vector<sim::SystemSpec> systems;
      std::vector<exp::EvalSpec> specs;
      {
        ScopedSpan s(tracer, "fig4.setup", parent, op_id);
        common::set_default_jobs(jobs);
        keep(common::default_pool().size());
        std::vector<wl::PhaseProgram> programs;
        for (const Fig4Job& job : jobs_) {
          systems.push_back(sim::system_by_name(job.system));
          keep(wl::app_info(job.app));
          wl::PhaseProgram program = wl::make_workload(job.app);
          if (job.gpu_scale > 1) program = wl::scale_for_gpus(program, job.gpu_scale);
          programs.push_back(std::move(program));
          exp::EvalSpec spec;
          spec.repeat.repetitions = kFig4Repetitions;
          spec.repeat.seed = seed;
          spec.gpu_workload_scale = job.gpu_scale;
          specs.push_back(spec);
        }
        keep(programs.data());
      }
      out.setup_s = seconds_since(t0);

      const auto t1 = Clock::now();
      std::vector<exp::AppEvaluation> evals(jobs_.size());
      common::default_pool().parallel_for_each(jobs_.size(), [&](std::size_t i) {
        ScopedSpan s(tracer, "exp.evaluate_app", parent, op_id);
        evals[i] = exp::evaluate_app(systems[i], jobs_[i].app, specs[i]);
      });
      out.timed_s = seconds_since(t1);

      ScopedSpan s(tracer, "bench.check", parent, op_id);
      std::string rows;
      for (std::size_t i = 0; i < evals.size(); ++i) {
        const exp::AppEvaluation& ev = evals[i];
        rows += jobs_[i].system + "," + ev.app;
        for (const exp::AggregateResult* a : {&ev.baseline, &ev.magus, &ev.ups}) {
          if (a->reps_total != kFig4Repetitions || a->reps_used < 1 ||
              !(a->runtime.value() > 0.0)) {
            out.error = "bad aggregate for " + ev.app;
          }
          for (const double v : {a->runtime.value(), a->pkg_energy.value(),
                                 a->dram_energy.value(), a->gpu_energy.value(),
                                 a->avg_cpu_power.value(), a->avg_gpu_power.value(),
                                 a->avg_invocation.value()}) {
            append_field(rows, v);
          }
          append_field(rows, a->reps_used);
        }
        for (const exp::Comparison* c : {&ev.magus_vs_base, &ev.ups_vs_base}) {
          append_field(rows, c->perf_loss_pct);
          append_field(rows, c->cpu_power_saving_pct);
          append_field(rows, c->energy_saving_pct);
        }
        rows += "\n";
        out.slowdowns_pct.push_back(ev.magus_vs_base.perf_loss_pct);
        out.saved += ev.magus_vs_base.energy_saving_pct / 100.0;
        out.reference += 1.0;
      }
      out.digest = fnv1a(rows);
      out.nodes = static_cast<double>(jobs_.size() * 3 * kFig4Repetitions);
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    return out;
  }

  [[nodiscard]] const fleet::FleetManifest& fleet_manifest() const override {
    return replay_;
  }
  [[nodiscard]] bool runs_fleet() const override { return false; }

 private:
  std::vector<Fig4Job> jobs_;
  std::vector<std::uint64_t> seeds_;
  fleet::FleetManifest replay_;
};

fleet::FleetManifest service_manifest(std::uint64_t seed) {
  fleet::FleetManifest m = fleet::synth_fleet(kServiceNodes, kMixSeed);
  m.seed(seed);
  return m;
}

fleet::FleetManifest budget_manifest(std::uint64_t seed) {
  fleet::FleetManifest m = fleet::synth_fleet(kBudgetNodes, kMixSeed);
  const std::array<const char*, 3> cap_aware{"ecoshift", "deadline", "comppow"};
  std::size_t i = 0;
  m.mutate_nodes([&](fleet::NodeSpec& node) {
    node.policy(cap_aware[i++ % cap_aware.size()]).dies(2).numa_skew(0.3);
  });
  m.seed(seed)
      .power_budget_w(kBudgetWPerNode * kBudgetNodes)
      .budget_epoch_s(kBudgetEpochS);
  return m;
}

std::vector<Fig4Job> fig4_jobs() {
  std::vector<Fig4Job> jobs;
  for (const std::string& app : wl::apps_for_a100()) jobs.push_back({"intel_a100", app, 1});
  for (const std::string& app : wl::apps_for_max1550()) {
    jobs.push_back({"intel_max1550", app, 1});
  }
  for (const std::string& app : wl::apps_for_4a100()) jobs.push_back({"intel_4a100", app, 4});
  return jobs;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fleet-service", "fleet-budget", "paper-fig4"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  auto seeds = [seed](std::size_t sets) {
    std::vector<std::uint64_t> out;
    for (std::size_t j = 0; j < sets; ++j) out.push_back(seed + j * 1000003ull);
    return out;
  };
  auto manifests = [&](auto build, std::size_t sets) {
    std::vector<fleet::FleetManifest> out;
    for (const std::uint64_t s : seeds(sets)) out.push_back(build(s));
    return out;
  };
  if (name == "fleet-service") {
    return std::make_unique<FleetWorkload>(manifests(service_manifest, kServiceSets),
                                           FleetShape{true, true, true});
  }
  if (name == "fleet-budget") {
    return std::make_unique<FleetWorkload>(manifests(budget_manifest, kBudgetSets),
                                           FleetShape{false, false, false});
  }
  if (name == "paper-fig4") {
    return std::make_unique<Fig4Workload>(fig4_jobs(), seeds(kFig4Sets));
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
