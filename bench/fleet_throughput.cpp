// fleet_throughput: the perf-trajectory benchmark for the fleet path.
//
// Measures fleet simulation throughput (nodes/sec, simulation ticks/sec) on
// a synthetic fleet, plus the p99 control-loop latency (a node's average
// monitoring invocation, in simulated seconds), the wall-clock overhead of
// attaching fleet telemetry, and the throughput of a power-budgeted fleet
// (the water-filling allocator plus cap-aware policies). Output semantics
// are pinned elsewhere: the rollup goldens in tests/fleet/golden/.
//
// Output: a human table plus BENCH_fleet.json (schema magus.bench.fleet.v4,
// which records the max per-node uncore-domain count and carries a
// `budgeted` section for the allocator path) in MAGUS_BENCH_OUT (default
// ./bench_out). The node count scales with MAGUS_BENCH_FLEET_NODES (default
// 10000) so CI can trade runtime for resolution without a rebuild.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "magus/common/stats.hpp"
#include "magus/fleet/manifest.hpp"
#include "magus/fleet/runner.hpp"
#include "magus/telemetry/event_log.hpp"
#include "magus/telemetry/registry.hpp"

namespace {

using namespace magus;

int env_nodes(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (!env) return fallback;
  const int value = std::atoi(env);
  return value > 0 ? value : fallback;
}

struct Timing {
  std::size_t nodes = 0;
  double wall_s = 0.0;
  double nodes_per_sec = 0.0;
  double ticks_per_sec = 0.0;
  double p99_latency_s = 0.0;
  int domains_max = 0;  ///< largest per-node uncore-domain count in the fleet
};

/// The synthetic fleet under a global power budget tight enough that the
/// allocator genuinely clips: every node runs a cap-aware comparator policy
/// so the caps feed real control loops, not no-ops.
fleet::FleetManifest synth_budget_fleet(int nodes, std::uint64_t seed) {
  fleet::FleetManifest manifest = fleet::synth_fleet(nodes, seed);
  const std::vector<std::string> cap_aware = {"ecoshift", "deadline", "comppow"};
  int index = 0;
  manifest.mutate_nodes([&cap_aware, &index](fleet::NodeSpec& node) {
    node.policy(cap_aware[static_cast<std::size_t>(index++) % cap_aware.size()]);
  });
  manifest.power_budget_w(220.0 * nodes).budget_epoch_s(1.0);
  return manifest;
}

Timing time_manifest(fleet::FleetManifest manifest, telemetry::MetricsRegistry* registry,
                     telemetry::EventLog* events) {
  fleet::FleetRunner runner(std::move(manifest));
  if (registry) runner.attach_telemetry(*registry, events);

  const auto start = std::chrono::steady_clock::now();
  const fleet::FleetResult result = runner.run();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;

  Timing t;
  t.nodes = result.nodes_total;
  t.wall_s = wall.count();
  if (t.wall_s > 0.0) {
    t.nodes_per_sec = static_cast<double>(result.nodes_total) / t.wall_s;
    t.ticks_per_sec = static_cast<double>(result.ticks_total) / t.wall_s;
  }
  std::vector<double> latencies;
  latencies.reserve(result.nodes.size());
  for (const fleet::NodeResult& node : result.nodes) {
    // Only runtime policies have a control loop; static/default report 0.
    if (node.control_latency_s > 0.0) latencies.push_back(node.control_latency_s);
    t.domains_max = std::max(t.domains_max, node.domains);
  }
  t.p99_latency_s = common::percentile(latencies, 99.0);
  return t;
}

Timing time_fleet(int nodes, std::uint64_t seed, telemetry::MetricsRegistry* registry,
                  telemetry::EventLog* events) {
  return time_manifest(fleet::synth_fleet(nodes, seed), registry, events);
}

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes =
      argc > 1 ? std::atoi(argv[1]) : env_nodes("MAGUS_BENCH_FLEET_NODES", 10000);
  const std::uint64_t seed = 2025;

  bench::banner("fleet_throughput: fleet simulation throughput",
                "perf trajectory (not a paper figure)");

  std::cout << "timing fleet on " << nodes << " nodes...\n";
  const Timing batch = time_fleet(nodes, seed, nullptr, nullptr);
  std::cout << "timing budgeted fleet on " << nodes << " nodes...\n";
  const Timing budgeted = time_manifest(synth_budget_fleet(nodes, seed), nullptr, nullptr);

  // Telemetry cost. Progress gauges and per-node events must stay off the
  // tick path; re-run the fleet with telemetry attached.
  telemetry::MetricsRegistry registry;
  telemetry::EventLog events;
  const Timing with_telemetry = time_fleet(nodes, seed, &registry, &events);
  const double telemetry_overhead_pct =
      batch.wall_s > 0.0 ? 100.0 * (with_telemetry.wall_s / batch.wall_s - 1.0) : 0.0;
  const double budget_overhead_pct =
      batch.wall_s > 0.0 ? 100.0 * (budgeted.wall_s / batch.wall_s - 1.0) : 0.0;

  common::TextTable table(
      {"fleet", "nodes", "wall (s)", "nodes/s", "ticks/s", "p99 loop lat (s)"});
  const auto add_row = [&table](const char* name, const Timing& t) {
    table.add_row({name, std::to_string(t.nodes), common::TextTable::num(t.wall_s),
                   common::TextTable::num(t.nodes_per_sec, 1),
                   common::TextTable::num(t.ticks_per_sec, 0),
                   common::TextTable::num(t.p99_latency_s, 6)});
  };
  add_row("synth", batch);
  add_row("synth+budget", budgeted);
  table.print(std::cout);
  std::cout << "\ntelemetry overhead " << common::TextTable::num(telemetry_overhead_pct)
            << " % of wall time; power-budget overhead "
            << common::TextTable::num(budget_overhead_pct) << " %\n";

  const std::string path = bench::out_dir() + "/BENCH_fleet.json";
  std::ofstream os(path);
  os << "{\n"
     << "  \"schema\": \"magus.bench.fleet.v4\",\n"
     << "  \"batch\": {\n"
     << "    \"nodes\": " << batch.nodes << ",\n"
     << "    \"domains_per_node_max\": " << batch.domains_max << ",\n"
     << "    \"wall_s\": " << json_num(batch.wall_s) << ",\n"
     << "    \"nodes_per_sec\": " << json_num(batch.nodes_per_sec) << ",\n"
     << "    \"ticks_per_sec\": " << json_num(batch.ticks_per_sec) << ",\n"
     << "    \"p99_control_loop_latency_s\": " << json_num(batch.p99_latency_s) << "\n"
     << "  },\n"
     << "  \"budgeted\": {\n"
     << "    \"power_budget_w_per_node\": 220,\n"
     << "    \"budget_epoch_s\": 1,\n"
     << "    \"nodes\": " << budgeted.nodes << ",\n"
     << "    \"domains_per_node_max\": " << budgeted.domains_max << ",\n"
     << "    \"wall_s\": " << json_num(budgeted.wall_s) << ",\n"
     << "    \"nodes_per_sec\": " << json_num(budgeted.nodes_per_sec) << ",\n"
     << "    \"ticks_per_sec\": " << json_num(budgeted.ticks_per_sec) << ",\n"
     << "    \"p99_control_loop_latency_s\": " << json_num(budgeted.p99_latency_s) << "\n"
     << "  },\n"
     << "  \"budget_overhead_pct\": " << json_num(budget_overhead_pct) << ",\n"
     << "  \"telemetry_overhead_pct\": " << json_num(telemetry_overhead_pct) << "\n"
     << "}\n";
  os.flush();
  if (os.fail()) {
    std::cerr << "FAIL: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "JSON: " << path << "\n";
  return 0;
}
