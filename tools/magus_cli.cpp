// magus-cli: command-line driver for the MAGUS reproduction.
//
//   magus-cli list
//       Enumerate system presets and modelled applications.
//   magus-cli run --system intel_a100 --app unet --policy magus
//                 [--reps 7] [--seed 2025] [--gpus N] [--jobs N] [--trace out.csv]
//       Run one workload under one policy; print the paper's metrics vs the
//       default baseline. Each repetition runs the default and the chosen
//       policy as lanes of one batch; repetitions fan out across --jobs
//       worker threads (default: MAGUS_JOBS env var, else hardware
//       concurrency; at most common::kMaxWorkers); results are bit-identical
//       for any job count. --reps takes at most exp::kMaxRepetitions.
//   magus-cli overhead --system intel_a100 [--duration 600]
//       Table 2 protocol on one system.
//   magus-cli fleet [--nodes 256] [--seed 2025] [--jobs N] [--shard-size 16]
//                   [--manifest in.jsonl] [--save-manifest out.jsonl]
//                   [--out rollup.jsonl|-]
//                   [--fault-rate P] [--fault-seed S]
//                   [--dies N] [--numa-skew X] [--policy NAME] [--power-cap W]
//                   [--power-budget W] [--budget-epoch S]
//       Simulate a whole fleet of independently-configured nodes and print
//       per-policy rollups (Joules saved vs an all-default fleet, slowdown
//       percentiles). Without --manifest a deterministic synthetic fleet of
//       --nodes nodes is generated. Rollups are bit-identical for any
//       --jobs count and shard size; --out writes the canonical JSONL dump
//       ("-" streams it to stdout with all human output on stderr). --power-budget water-fills
//       a global Watts budget across nodes per --budget-epoch of simulated
//       time; --policy/--power-cap rewrite every node, so a saved fleet can
//       be replayed under a cap-aware comparator.
//
// A flag the subcommand does not read, or a trailing flag without a value,
// is an error naming the flag (exit 2).
//
// Exit codes: 0 ok, 1 usage error, 2 runtime error.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <string_view>

#include "magus/common/error.hpp"
#include "magus/common/parse.hpp"
#include "magus/core/policy_factory.hpp"
#include "magus/common/table.hpp"
#include "magus/common/thread_pool.hpp"
#include "magus/exp/evaluation.hpp"
#include "magus/fleet/runner.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/catalog.hpp"
#include "magus/wl/io.hpp"

namespace {

using namespace magus;

int usage() {
  std::cerr << "usage:\n"
            << "  magus-cli list\n"
            << "  magus-cli run --system <name> --app <name|file.csv> --policy <name>\n"
            << "                (policy names come from the policy table; `magus-cli list` "
               "shows them)\n"
            << "                [--reps N] [--seed S] [--gpus N] [--jobs N] "
               "[--trace out.csv]\n"
            << "                [--metrics-out metrics.prom]\n"
            << "  magus-cli overhead --system <name> [--duration seconds]\n"
            << "  magus-cli fleet [--nodes N] [--seed S] [--jobs N] [--shard-size N]\n"
            << "                  [--manifest in.jsonl] [--save-manifest out.jsonl] "
               "[--out rollup.jsonl|-]\n"
            << "                  [--fault-rate P] [--fault-seed S]   (deterministic "
               "backend fault injection)\n"
            << "                  [--dies N] [--numa-skew X]   (multi-die uncore "
               "domains on every node)\n"
            << "                  [--policy NAME] [--power-cap W]   (rewrite every "
               "node's policy / static cap)\n"
            << "                  [--power-budget W] [--budget-epoch S]   (global "
               "budget, water-filled per epoch)\n"
            << "\n"
            << "  --jobs N (or the MAGUS_JOBS env var) sets the worker-thread "
               "count for the\n"
            << "  repetition fan-out, at most " << common::kMaxWorkers
            << "; results are identical for any job count.\n"
            << "  --reps N takes at most " << exp::kMaxRepetitions << " repetitions.\n"
            << "  --metrics-out writes a Prometheus text snapshot of the run's "
               "telemetry\n"
            << "  (never changes the results).\n";
  return 1;
}

using Flags = std::map<std::string, std::string>;

/// `--name value` pairs from argv[from..]. A flag outside `known` (the flags
/// the subcommand reads) or one missing its value is a ConfigError naming it.
Flags parse_flags(int argc, char** argv, int from,
                  std::initializer_list<std::string_view> known) {
  Flags flags;
  for (int i = from; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw common::ConfigError(std::string("expected flag, got '") + argv[i] + "'");
    }
    const std::string name = argv[i] + 2;
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw common::ConfigError("--" + name + ": unknown flag for magus-cli " + argv[1]);
    }
    if (i + 1 == argc) throw common::ConfigError("--" + name + ": missing value");
    flags[name] = argv[i + 1];
  }
  return flags;
}

// Numeric flags go through the strict parsers; a bad value is a ConfigError
// naming the flag ("--seed: invalid unsigned 64-bit integer 'abc'").
std::uint64_t u64_flag(const Flags& flags, const std::string& name) {
  return common::parse_named("--" + name, flags.at(name), common::parse_u64);
}

double real_flag(const Flags& flags, const std::string& name) {
  return common::parse_named("--" + name, flags.at(name), common::parse_finite_double);
}

/// A count: an integer in [1, hi].
int count_flag(const Flags& flags, const std::string& name,
               int hi = std::numeric_limits<int>::max()) {
  return common::parse_named("--" + name, flags.at(name), [hi](const std::string& v) {
    return common::parse_int_in_range(v, 1, hi);
  });
}

int cmd_list() {
  std::cout << "systems:\n";
  for (const char* s : {"intel_a100", "intel_4a100", "intel_max1550", "amd_mi250"}) {
    const auto spec = sim::system_by_name(s);
    std::cout << "  " << spec.name << "  (" << spec.cpu.model << " + " << spec.gpu.count
              << "x " << spec.gpu.model << ", uncore " << spec.cpu.uncore_min_ghz << "-"
              << spec.cpu.uncore_max_ghz << " GHz)\n";
  }
  std::cout << "\npolicies:\n";
  const auto& factory = core::PolicyFactory::instance();
  for (const std::string& name : factory.names()) {
    std::cout << "  " << name << (factory.is_runtime(name) ? "  [runtime]" : "")
              << "  -- " << factory.summary(name) << "\n";
  }
  std::cout << "\napplications:\n";
  for (const auto& info : wl::app_catalog()) {
    std::cout << "  " << info.name << "  [" << wl::suite_name(info.suite) << "]"
              << (info.multi_gpu ? " multi-gpu" : "") << (info.sycl_available ? " sycl" : "")
              << "\n";
  }
  return 0;
}

/// Apply --jobs (CLI wins over the MAGUS_JOBS env var, which default_pool
/// honors on its own) and report the effective worker count.
std::size_t configure_jobs(const Flags& flags) {
  if (flags.count("jobs")) {
    common::set_default_jobs(static_cast<std::size_t>(
        count_flag(flags, "jobs", static_cast<int>(common::kMaxWorkers))));
  }
  return common::default_pool().size();
}

int cmd_run(const Flags& flags) {
  const auto system = sim::system_by_name(flags.at("system"));
  const std::string app = flags.at("app");
  const std::string policy = flags.at("policy");
  if (!core::PolicyFactory::instance().has(policy)) {
    // Fail before the (long) baseline run, with the same error make_policy gives.
    (void)core::PolicyFactory::instance().is_runtime(policy);
  }
  const std::size_t workers = configure_jobs(flags);

  exp::RepeatSpec reps;
  if (flags.count("reps")) reps.repetitions = count_flag(flags, "reps", exp::kMaxRepetitions);
  if (flags.count("seed")) reps.seed = u64_flag(flags, "seed");

  wl::PhaseProgram program = app.size() > 4 && app.substr(app.size() - 4) == ".csv"
                                  ? wl::load_program_csv(app)
                                  : wl::make_workload(app);
  if (flags.count("gpus")) {
    program = wl::scale_for_gpus(program, count_flag(flags, "gpus"));
  }

  std::cout << "running " << app << " on " << system.name << " (policy "
            << flags.at("policy") << ", " << reps.repetitions << " reps, " << workers
            << " worker" << (workers == 1 ? "" : "s") << ")\n\n";

  // Observability is opt-in and inert: attaching the registry never changes
  // the computed results (see tests/exp/test_telemetry_determinism.cpp).
  // The shared pool outlives `registry`, so detach on every exit path.
  telemetry::MetricsRegistry registry;
  struct PoolDetach {
    bool armed = false;
    ~PoolDetach() {
      if (armed) common::default_pool().attach_telemetry(telemetry::null_registry());
    }
  } pool_detach;
  exp::RunOptions run_opts;
  if (flags.count("metrics-out")) {
    common::default_pool().attach_telemetry(registry);
    pool_detach.armed = true;
    run_opts.metrics = &registry;
  }

  const auto agg =
      exp::run_repeated(system, program, {{"default", run_opts}, {policy, run_opts}}, reps);
  const exp::AggregateResult& base = agg[0];
  const exp::AggregateResult& cand = agg[1];
  const auto cmp = exp::compare(cand, base);

  common::TextTable table({"policy", "runtime (s)", "CPU power (W)", "GPU power (W)",
                           "total energy (kJ)"});
  auto add = [&table](const std::string& name, const exp::AggregateResult& r) {
    table.add_row({name, common::TextTable::num(r.runtime.value()),
                   common::TextTable::num(r.avg_cpu_power.value(), 1),
                   common::TextTable::num(r.avg_gpu_power.value(), 1),
                   common::TextTable::num(r.total_energy().value() / 1000.0)});
  };
  add("default", base);
  add(flags.at("policy"), cand);
  table.print(std::cout);
  std::cout << "\nvs default: perf loss " << common::TextTable::num(cmp.perf_loss_pct)
            << " %, CPU power saving " << common::TextTable::num(cmp.cpu_power_saving_pct)
            << " %, energy saving " << common::TextTable::num(cmp.energy_saving_pct)
            << " %  (" << reps.repetitions << " reps, seed " << reps.seed << ")\n";

  if (flags.count("trace")) {
    exp::RunOptions opts = run_opts;
    opts.engine.record_traces = true;
    const auto out = exp::run_policy(system, program, policy, opts);
    out.traces.write_csv(flags.at("trace"));
    std::cout << "trace written to " << flags.at("trace") << "\n";
  }

  if (flags.count("metrics-out")) {
    const std::string& path = flags.at("metrics-out");
    std::ofstream os(path);
    if (!os) throw common::ConfigError("cannot open --metrics-out file " + path);
    os << registry.render_prometheus();
    os.flush();
    if (os.fail()) throw common::ConfigError("write failed for --metrics-out " + path);
    std::cout << "metrics written to " << path << "\n";
  }
  return 0;
}

int cmd_fleet(const Flags& flags) {
  const std::size_t workers = configure_jobs(flags);
  // `--out -` streams the canonical rollup JSONL to stdout; every human
  // line (banner, tables, summary, warnings) then goes to stderr so the
  // stream stays machine-parseable end to end.
  const bool stream = flags.count("out") && flags.at("out") == "-";
  std::ostream& info = stream ? std::cerr : std::cout;

  fleet::FleetManifest manifest;
  if (flags.count("manifest")) {
    manifest = fleet::FleetManifest::load(flags.at("manifest"));
  } else {
    const int nodes = flags.count("nodes") ? count_flag(flags, "nodes") : 256;
    const std::uint64_t seed = flags.count("seed") ? u64_flag(flags, "seed") : 2025ull;
    manifest = fleet::synth_fleet(nodes, seed);
  }
  if (flags.count("shard-size")) manifest.shard_size(count_flag(flags, "shard-size"));
  // Fault flags override whatever the manifest carries, so a saved fleet can
  // be replayed under different fault weather.
  if (flags.count("fault-rate")) manifest.fault_rate(real_flag(flags, "fault-rate"));
  if (flags.count("fault-seed")) manifest.fault_seed(u64_flag(flags, "fault-seed"));
  // Fleet power budgeting: a global Watts budget water-filled across nodes
  // per epoch of simulated time (fleet/allocator.hpp).
  if (flags.count("power-budget")) manifest.power_budget_w(real_flag(flags, "power-budget"));
  if (flags.count("budget-epoch")) manifest.budget_epoch_s(real_flag(flags, "budget-epoch"));
  // Node knobs rewrite every node, same override semantics as the fault
  // flags: a saved manifest can be replayed under a different policy, a
  // per-node cap, more dies per socket, or a NUMA-skewed traffic split
  // without editing the file.
  if (flags.count("policy") || flags.count("power-cap") || flags.count("dies") ||
      flags.count("numa-skew")) {
    manifest.mutate_nodes([&flags](fleet::NodeSpec& node) {
      if (flags.count("policy")) node.policy(flags.at("policy"));
      if (flags.count("power-cap")) node.power_cap_w(real_flag(flags, "power-cap"));
      if (flags.count("dies")) node.dies(count_flag(flags, "dies"));
      if (flags.count("numa-skew")) node.numa_skew(real_flag(flags, "numa-skew"));
    });
  }
  if (flags.count("save-manifest")) manifest.save(flags.at("save-manifest"));

  fleet::FleetRunner runner(manifest);
  if (static_cast<std::size_t>(manifest.shard_size()) > runner.nodes_total()) {
    std::cerr << "warning: --shard-size " << manifest.shard_size() << " exceeds the fleet ("
              << runner.nodes_total() << " nodes); clamping to one full-fleet shard\n";
  }
  info << "simulating fleet: " << runner.nodes_total() << " nodes (seed "
       << manifest.seed() << ", shard size " << manifest.shard_size() << ", " << workers
       << " worker" << (workers == 1 ? "" : "s");
  if (manifest.fault().enabled()) {
    info << ", fault rate " << manifest.fault().rate << " seed "
         << manifest.fault().seed;
  }
  if (manifest.power_budget_w() > 0.0) {
    info << ", power budget " << manifest.power_budget_w() << " W / "
         << manifest.budget_epoch_s() << " s epochs";
  }
  info << ")\n\n";
  const fleet::FleetResult result = runner.run();

  common::TextTable table({"policy", "nodes", "degraded", "failed", "Joules saved",
                           "slowdown p50 (%)", "p95 (%)", "p99 (%)"});
  for (const fleet::PolicyRollup& roll : result.per_policy) {
    table.add_row({roll.policy, std::to_string(roll.nodes),
                   std::to_string(roll.degraded_nodes), std::to_string(roll.failed_nodes),
                   common::TextTable::num(roll.joules_saved_total, 1),
                   common::TextTable::num(roll.slowdown_p50_pct),
                   common::TextTable::num(roll.slowdown_p95_pct),
                   common::TextTable::num(roll.slowdown_p99_pct)});
  }
  table.print(info);

  // Per-uncore-domain breakdown (socket-major; legacy nodes have one domain
  // per socket, multi-die nodes sockets * dies).
  if (result.per_domain.size() > 1) {
    info << "\n";
    common::TextTable domain_table({"domain", "nodes", "uncore J saved",
                                    "mem slowdown p50 (%)", "p95 (%)", "p99 (%)"});
    for (const fleet::DomainRollup& roll : result.per_domain) {
      domain_table.add_row({std::to_string(roll.domain), std::to_string(roll.nodes),
                            common::TextTable::num(roll.joules_saved_total, 1),
                            common::TextTable::num(roll.slowdown_p50_pct),
                            common::TextTable::num(roll.slowdown_p95_pct),
                            common::TextTable::num(roll.slowdown_p99_pct)});
    }
    domain_table.print(info);
  }

  // Power-budget accounting (only when the allocator actually ran).
  if (!result.budget_epochs.empty()) {
    double allocated = 0.0;
    double consumed = 0.0;
    double clipped = 0.0;
    for (const fleet::BudgetEpochRollup& epoch : result.budget_epochs) {
      allocated += epoch.allocated_w;
      consumed += epoch.consumed_w;
      clipped += epoch.clipped_w;
    }
    const double n = static_cast<double>(result.budget_epochs.size());
    info << "\npower budget: " << common::TextTable::num(result.power_budget_w, 1)
         << " W global; mean per epoch: allocated "
         << common::TextTable::num(allocated / n, 1) << " W, consumed "
         << common::TextTable::num(consumed / n, 1) << " W, clipped demand "
         << common::TextTable::num(clipped / n, 1) << " W ("
         << result.budget_epochs.size() << " epochs of "
         << common::TextTable::num(result.budget_epoch_s) << " s)\n";
  }

  info << "\nfleet total: " << common::TextTable::num(result.joules_saved_total, 1)
       << " J saved vs all-default fleet; slowdown p50 "
       << common::TextTable::num(result.slowdown_p50_pct) << " %, p95 "
       << common::TextTable::num(result.slowdown_p95_pct) << " %, p99 "
       << common::TextTable::num(result.slowdown_p99_pct) << " %\n";
  if (result.degraded_nodes > 0 || result.failed_nodes > 0) {
    info << "fault weather: " << result.degraded_nodes << " degraded node"
         << (result.degraded_nodes == 1 ? "" : "s") << " (" << result.failed_nodes
         << " failed outright)\n";
  }

  if (flags.count("out")) {
    const std::string& path = flags.at("out");
    if (stream) {
      std::cout << result.to_jsonl();
      std::cout.flush();
      if (std::cout.fail()) throw common::ConfigError("write failed for --out -");
    } else {
      std::ofstream os(path);
      if (!os) throw common::ConfigError("cannot open --out file " + path);
      os << result.to_jsonl();
      os.flush();
      if (os.fail()) throw common::ConfigError("write failed for --out " + path);
      info << "rollup written to " << path << "\n";
    }
  }
  return 0;
}

int cmd_overhead(const Flags& flags) {
  const auto system = sim::system_by_name(flags.at("system"));
  const double duration = flags.count("duration") ? real_flag(flags, "duration") : 600.0;
  const auto r = exp::measure_overhead(system, duration);
  std::cout << "system " << r.system << " (idle " << common::TextTable::num(r.idle_power_w, 1)
            << " W)\n"
            << "  MAGUS: +" << common::TextTable::num(r.magus_power_overhead_pct)
            << " % power, " << common::TextTable::num(r.magus_invocation_s)
            << " s/invocation\n"
            << "  UPS:   +" << common::TextTable::num(r.ups_power_overhead_pct)
            << " % power, " << common::TextTable::num(r.ups_invocation_s)
            << " s/invocation\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") {
      (void)parse_flags(argc, argv, 2, {});
      return cmd_list();
    }
    if (cmd == "run") {
      const auto flags = parse_flags(argc, argv, 2,
                                     {"system", "app", "policy", "reps", "seed", "gpus",
                                      "jobs", "trace", "metrics-out"});
      if (!flags.count("system") || !flags.count("app") || !flags.count("policy")) {
        return usage();
      }
      return cmd_run(flags);
    }
    if (cmd == "fleet") {
      const auto flags = parse_flags(argc, argv, 2,
                                     {"nodes", "seed", "jobs", "shard-size", "manifest",
                                      "save-manifest", "out", "fault-rate", "fault-seed",
                                      "dies", "numa-skew", "policy", "power-cap",
                                      "power-budget", "budget-epoch"});
      return cmd_fleet(flags);
    }
    if (cmd == "overhead") {
      const auto flags = parse_flags(argc, argv, 2, {"system", "duration"});
      if (!flags.count("system")) return usage();
      return cmd_overhead(flags);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
