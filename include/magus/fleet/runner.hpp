#pragma once
// Sharded fleet execution.
//
// FleetRunner turns a FleetManifest into per-node results and fleet rollups.
// Every node is simulated twice on identical inputs -- once under its
// configured policy and once under the stock-firmware "default" policy -- so
// savings are measured against the Intel-default fleet the paper compares to.
//
// Determinism contract (same as exp::run_repeated): node inputs depend only
// on (manifest seed, node index) -- the jitter stream is Rng(seed).fork(i)
// and the engine seed is seed * 1000003 + i -- nodes land in pre-sized slots
// by index, and aggregation walks the slots serially in index order. Shards
// only decide which worker simulates which node, so rollups are bit-identical
// for any job count and any shard size.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "magus/core/power_cap.hpp"
#include "magus/fleet/manifest.hpp"

namespace magus::telemetry {
class Counter;
class EventLog;
class Gauge;
class MetricsRegistry;
}  // namespace magus::telemetry

namespace magus::fleet {

/// Outcome of one node: its policy run against its default-policy twin.
struct NodeResult {
  std::size_t index = 0;  ///< position in FleetManifest::expand()
  std::string name;
  std::string system;
  std::string app;
  std::string policy;
  bool completed = false;          ///< policy run finished before the engine cap
  double runtime_s = 0.0;          ///< policy run
  double baseline_runtime_s = 0.0; ///< default-policy twin
  double energy_j = 0.0;           ///< policy run, CPU+DRAM+GPU
  double baseline_energy_j = 0.0;
  double joules_saved = 0.0;       ///< baseline_energy_j - energy_j
  double slowdown_pct = 0.0;       ///< runtime vs twin, positive = slower
  std::uint64_t ticks = 0;         ///< simulation steps, policy run + twin
  double control_latency_s = 0.0;  ///< policy run's avg monitoring invocation

  // Per-uncore-domain breakdown (socket-major: domain = socket * dies + die).
  // Always filled; a legacy single-die node has one domain per socket.
  int domains = 1;                           ///< sockets * dies_per_socket
  std::vector<double> domain_joules_saved;   ///< twin uncore J - run uncore J
  std::vector<double> domain_slowdown_pct;   ///< memory stretch time vs twin

  // Fault-weather outcome (all defaults when the fleet runs fault-free).
  bool degraded = false;            ///< policy fell back / node gave up actuating
  bool failed = false;              ///< every attempt threw; numerics are zeroed
  int attempts = 1;                 ///< simulation attempts consumed (1 = clean)
  std::uint64_t faults_injected = 0;  ///< faults the decorators delivered
  std::string error;                ///< last failure message ("" on success)

  /// Mean power cap the node ran under (0 = uncapped; fleet budgeting off
  /// and no manifest cap). Filled during the serial rollup.
  double power_cap_w = 0.0;
};

/// Budget accounting for one allocation epoch (only present when the
/// manifest sets a fleet power budget).
struct BudgetEpochRollup {
  std::size_t epoch = 0;
  double allocated_w = 0.0;  ///< sum of per-node allocations this epoch
  double consumed_w = 0.0;   ///< estimated fleet draw (node avg power x overlap)
  double clipped_w = 0.0;    ///< demand the allocator could not fund
};

/// Rollup over one uncore-domain index across every node that has it (a
/// domain-2 rollup covers only nodes with at least three domains). Failed
/// nodes are excluded exactly as in the fleet-wide percentiles.
struct DomainRollup {
  int domain = 0;  ///< socket-major domain index
  std::size_t nodes = 0;
  double joules_saved_total = 0.0;  ///< uncore-side savings vs the twins
  double slowdown_p50_pct = 0.0;    ///< memory stretch-time percentiles
  double slowdown_p95_pct = 0.0;
  double slowdown_p99_pct = 0.0;
};

/// Rollup over all nodes sharing one policy name.
struct PolicyRollup {
  std::string policy;
  std::size_t nodes = 0;
  std::size_t degraded_nodes = 0;  ///< ran to completion in fallback mode
  std::size_t failed_nodes = 0;    ///< excluded from the percentile vectors
  double joules_saved_total = 0.0;
  double slowdown_p50_pct = 0.0;
  double slowdown_p95_pct = 0.0;
  double slowdown_p99_pct = 0.0;
};

struct FleetResult {
  std::uint64_t seed = 0;
  std::size_t nodes_total = 0;
  std::uint64_t ticks_total = 0;  ///< simulation steps across all node runs
  std::size_t degraded_nodes = 0;
  std::size_t failed_nodes = 0;
  double joules_saved_total = 0.0;  ///< fleet vs the all-default fleet
  double slowdown_p50_pct = 0.0;
  double slowdown_p95_pct = 0.0;
  double slowdown_p99_pct = 0.0;
  std::vector<PolicyRollup> per_policy;  ///< sorted by policy name
  std::vector<DomainRollup> per_domain;  ///< by domain index, 0 first
  std::vector<NodeResult> nodes;         ///< fleet order

  // Fleet power budgeting (all zero / empty when the manifest has none --
  // the JSONL dump then carries no budget fields at all, so unbudgeted
  // rollups stay byte-identical to the pre-budget format).
  double power_budget_w = 0.0;
  double budget_epoch_s = 0.0;
  std::vector<BudgetEpochRollup> budget_epochs;  ///< by epoch, 0 first

  /// Canonical JSONL dump: one `fleet_rollup` line, one `policy_rollup` line
  /// per policy, one `domain_rollup` line per uncore-domain index, one
  /// `budget_rollup` line per allocation epoch (budgeted fleets only), one
  /// `node_result` line per node, all with deterministically formatted
  /// numbers -- two runs are bit-identical iff these strings match.
  [[nodiscard]] std::string to_jsonl() const;

  /// The `fleet_rollup` line alone (the first line of to_jsonl()).
  [[nodiscard]] std::string header_jsonl() const;
};

/// The tick path that simulates each shard: there is one, exp::BatchRun.
/// The enum and FleetRunner::set_engine stay solely so the benchmark harness
/// under perfbench/ keeps compiling unchanged.
enum class FleetEngine {
  kBatch,
};

/// Runs a validated manifest. Thread-safe progress accessors make live
/// /fleet/status reporting possible while run() executes on another thread.
class FleetRunner {
 public:
  /// Validates eagerly: throws common::ConfigError listing every manifest
  /// problem, so a daemon can reject a bad job at submit time.
  explicit FleetRunner(FleetManifest manifest);

  /// Progress gauges/counters land in `reg` ("magus_fleet_*"); per-node
  /// completion events go to `events` when non-null. Telemetry never feeds
  /// back into the simulation: results are bit-identical with or without it.
  void attach_telemetry(telemetry::MetricsRegistry& reg,
                        telemetry::EventLog* events = nullptr);

  /// No-op: kBatch is the only tick path (kept for perfbench, see FleetEngine).
  void set_engine(FleetEngine /*engine*/) noexcept {}

  /// Simulate the whole fleet. Deterministic for any job count (see file
  /// header). Call at most once per runner.
  [[nodiscard]] FleetResult run();

  [[nodiscard]] const FleetManifest& manifest() const noexcept { return manifest_; }
  [[nodiscard]] std::size_t nodes_total() const noexcept { return expanded_.size(); }
  /// Live count of finished nodes; safe to read from any thread.
  [[nodiscard]] std::size_t nodes_completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }

 private:
  /// The exact inputs a node's runs consume; built only from (manifest seed,
  /// node index), so any shard layout sees the same inputs.
  struct NodeInputs;
  [[nodiscard]] NodeInputs node_inputs(std::size_t index) const;
  /// Node `index`'s workload, GPU-scaled and jittered from Rng(seed).fork(index);
  /// the budget pre-pass and node_inputs both take the program from here.
  [[nodiscard]] wl::PhaseProgram jittered_program(std::size_t index) const;

  /// Budget pre-pass (constructor only, serial): estimate per-epoch demand
  /// for every node from its jittered phase program, water-fill the global
  /// budget epoch by epoch, and fix each node's PowerCapSchedule plus the
  /// allocated/clipped halves of the epoch accounting. Manifest-only inputs
  /// walked in node-index order, so the schedules are identical at any
  /// --jobs count and shard size.
  void compute_power_caps();

  /// Simulate nodes [begin, end) into `results`: one BatchRun per retry
  /// round, each node's policy run paired with its default-policy twin.
  void run_shard(std::size_t begin, std::size_t end, std::vector<NodeResult>& results) const;

  // Concurrency model (audited under -Wthread-safety, DESIGN.md §14): the
  // runner holds NO mutex of its own. `completed_` is the only field workers
  // write concurrently — a relaxed atomic progress counter (monotonic count,
  // no ordering to protect). Everything else is init-then-read:
  // manifest_/expanded_ are fixed by the constructor, and the telemetry
  // handles must be set before run() starts (attach_telemetry contract),
  // after which workers only read them.
  // Events emitted through events_ are serialized by EventLog's own lock.
  FleetManifest manifest_;
  std::vector<NodeSpec> expanded_;
  std::atomic<std::size_t> completed_{0};

  // Budget state: computed once by the constructor (init-then-read, like
  // expanded_), empty when the manifest sets no budget and no node caps.
  std::vector<core::PowerCapSchedule> caps_;      ///< per node, fleet order
  std::vector<BudgetEpochRollup> budget_epochs_;  ///< allocated/clipped halves

  telemetry::EventLog* events_ = nullptr;
  telemetry::Gauge* m_nodes_total_ = nullptr;
  telemetry::Counter* m_nodes_done_ = nullptr;
  telemetry::Gauge* m_joules_saved_ = nullptr;
  telemetry::Gauge* m_degraded_nodes_ = nullptr;
  telemetry::Gauge* m_failed_nodes_ = nullptr;
  telemetry::Gauge* m_power_budget_ = nullptr;
  telemetry::Gauge* m_power_allocated_ = nullptr;
  telemetry::Gauge* m_power_clipped_ = nullptr;
};

}  // namespace magus::fleet
