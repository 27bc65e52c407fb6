#pragma once
// Fleet description: which simulated nodes exist, what each one runs, and
// under which uncore policy.
//
// A FleetManifest is the submit-side API of magus::fleet -- a builder-style
// config object (fluent setters, whole-manifest validation that reports every
// problem at once) with a JSONL wire format shared with the telemetry event
// tooling: line one is a `fleet_manifest` header, followed by one
// `fleet_node` line per NodeSpec. Seeds are serialized as strings so 64-bit
// values survive the double-typed JSON number path.

#include <cstdint>
#include <string>
#include <vector>

#include "magus/common/quantity.hpp"
#include "magus/fault/config.hpp"
#include "magus/wl/jitter.hpp"

namespace magus::fleet {

/// One node template: a system preset running one workload under one policy.
/// `count` stamps out that many independent nodes (each still gets its own
/// RNG stream and engine seed from its fleet-wide node index).
class NodeSpec {
 public:
  NodeSpec& name(std::string v) {
    name_ = std::move(v);
    return *this;
  }
  NodeSpec& system(std::string v) {
    system_ = std::move(v);
    return *this;
  }
  NodeSpec& app(std::string v) {
    app_ = std::move(v);
    return *this;
  }
  NodeSpec& policy(std::string v) {
    policy_ = std::move(v);
    return *this;
  }
  NodeSpec& gpus(int v) {
    gpus_ = v;
    return *this;
  }
  NodeSpec& static_uncore(common::Ghz v) {
    static_uncore_ = v;
    return *this;
  }
  /// Uncore dies per socket. 1 (the default) keeps the node on the legacy
  /// single-domain control path; >1 activates per-domain decisions.
  NodeSpec& dies(int v) {
    dies_ = v;
    return *this;
  }
  /// Extra memory-traffic share [0, 1) pinned on the first die of each
  /// socket; the remainder spreads evenly over all dies.
  NodeSpec& numa_skew(double v) {
    numa_skew_ = v;
    return *this;
  }
  /// Static per-node power cap in Watts (0 = uncapped). Feeds the cap-aware
  /// policies directly; under a fleet power budget it also tightens the
  /// allocator's ceiling for this node.
  NodeSpec& power_cap_w(double v) {
    power_cap_w_ = v;
    return *this;
  }
  NodeSpec& count(int v) {
    count_ = v;
    return *this;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& system() const noexcept { return system_; }
  [[nodiscard]] const std::string& app() const noexcept { return app_; }
  [[nodiscard]] const std::string& policy() const noexcept { return policy_; }
  [[nodiscard]] int gpus() const noexcept { return gpus_; }
  [[nodiscard]] common::Ghz static_uncore() const noexcept { return static_uncore_; }
  [[nodiscard]] int dies() const noexcept { return dies_; }
  [[nodiscard]] double numa_skew() const noexcept { return numa_skew_; }
  [[nodiscard]] double power_cap_w() const noexcept { return power_cap_w_; }
  [[nodiscard]] int count() const noexcept { return count_; }

  /// Every problem with this spec (empty = valid). `prefix` labels the spec
  /// in the messages (e.g. "node[3] 'web'").
  [[nodiscard]] std::vector<std::string> validate(const std::string& prefix = "") const;

 private:
  std::string name_ = "node";
  std::string system_ = "intel_a100";
  std::string app_ = "unet";
  std::string policy_ = "magus";
  int gpus_ = 1;
  common::Ghz static_uncore_{0.0};
  int dies_ = 1;
  double numa_skew_ = 0.0;
  double power_cap_w_ = 0.0;
  int count_ = 1;
};

/// The whole fleet: node templates plus the fleet-wide determinism inputs
/// (master seed, workload jitter, shard size).
class FleetManifest {
 public:
  FleetManifest& seed(std::uint64_t v) {
    seed_ = v;
    return *this;
  }
  FleetManifest& shard_size(int v) {
    shard_size_ = v;
    return *this;
  }
  FleetManifest& jitter(const wl::JitterConfig& v) {
    jitter_ = v;
    return *this;
  }
  FleetManifest& fault(const fault::FaultConfig& v) {
    fault_ = v;
    return *this;
  }
  FleetManifest& fault_rate(double v) {
    fault_.rate = v;
    return *this;
  }
  FleetManifest& fault_seed(std::uint64_t v) {
    fault_.seed = v;
    return *this;
  }
  /// Global fleet power budget in Watts (0 = budgeting off). When active,
  /// the FleetRunner water-fills this across nodes per `budget_epoch_s` of
  /// simulated time (fleet/allocator.hpp) and each node's cap-aware policy
  /// receives its slice as a PowerCapSchedule.
  FleetManifest& power_budget_w(double v) {
    power_budget_w_ = v;
    return *this;
  }
  FleetManifest& budget_epoch_s(double v) {
    budget_epoch_s_ = v;
    return *this;
  }
  FleetManifest& add_node(NodeSpec spec) {
    nodes_.push_back(std::move(spec));
    return *this;
  }
  /// Apply `fn` to every node template in place (the CLI/daemon override
  /// loops: replay a saved fleet under a different policy, cap, or die
  /// count without editing the file).
  template <typename Fn>
  FleetManifest& mutate_nodes(Fn&& fn) {
    for (NodeSpec& node : nodes_) fn(node);
    return *this;
  }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] int shard_size() const noexcept { return shard_size_; }
  [[nodiscard]] const wl::JitterConfig& jitter() const noexcept { return jitter_; }
  [[nodiscard]] const fault::FaultConfig& fault() const noexcept { return fault_; }
  [[nodiscard]] double power_budget_w() const noexcept { return power_budget_w_; }
  [[nodiscard]] double budget_epoch_s() const noexcept { return budget_epoch_s_; }
  [[nodiscard]] const std::vector<NodeSpec>& nodes() const noexcept { return nodes_; }

  /// All validation problems at once (empty = valid): unknown systems, apps,
  /// and policies; non-positive counts/gpus/shard size; a "static" policy
  /// without a pin frequency; an empty fleet.
  [[nodiscard]] std::vector<std::string> validate() const;
  /// Throws common::ConfigError joining every validate() message.
  void validate_or_throw() const;

  /// Count-expanded per-node specs, in fleet order: template order, replicas
  /// adjacent, each replica renamed "<name>/<i>" when count > 1. The index
  /// into this vector is the node's identity for seeding and results.
  [[nodiscard]] std::vector<NodeSpec> expand() const;
  /// Total node count after count expansion.
  [[nodiscard]] std::size_t total_nodes() const;

  /// JSONL round-trip (see file header for the line format).
  [[nodiscard]] std::string to_jsonl() const;
  [[nodiscard]] static FleetManifest from_jsonl(const std::string& text);
  void save(const std::string& path) const;
  [[nodiscard]] static FleetManifest load(const std::string& path);

 private:
  std::uint64_t seed_ = 2025;
  int shard_size_ = 16;
  wl::JitterConfig jitter_;
  fault::FaultConfig fault_;
  double power_budget_w_ = 0.0;
  double budget_epoch_s_ = 1.0;
  std::vector<NodeSpec> nodes_;
};

/// Deterministic synthetic fleet for demos, smoke tests, and benchmarks:
/// `nodes` nodes drawn round-robin over the system presets, the Table 1
/// workload catalog, and the runtime rows of the policy table (plus a slice of
/// default-policy nodes so rollups always have an in-fleet reference).
/// Same (nodes, seed) always yields the same manifest.
[[nodiscard]] FleetManifest synth_fleet(int nodes, std::uint64_t seed);

}  // namespace magus::fleet
