// The batch-engine oracle contract: every lane BatchEngine advances is
// bit-identical to SimEngine::run on the same inputs -- every policy kind,
// any seed, with or without fault weather -- and the fleet rollup built from
// those lanes is byte-identical at any job count or shard size.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "engine_oracle.hpp"
#include "magus/common/quantity.hpp"
#include "magus/common/thread_pool.hpp"
#include "magus/fleet/manifest.hpp"
#include "magus/fleet/runner.hpp"

namespace mc = magus::common;
namespace mf = magus::fleet;

namespace {

struct JobsGuard {
  explicit JobsGuard(std::size_t jobs) { mc::set_default_jobs(jobs); }
  ~JobsGuard() { mc::set_default_jobs(0); }
};

/// One node per policy kind, so every hook shape (runtime, static pin,
/// default self-twin) crosses the batch kernel.
mf::FleetManifest policy_matrix_fleet(std::uint64_t seed, double fault_rate) {
  mf::FleetManifest manifest;
  manifest.seed(seed).shard_size(3).fault_rate(fault_rate).fault_seed(seed * 7 + 1);
  manifest.add_node(mf::NodeSpec{}.name("m").app("unet").policy("magus"));
  manifest.add_node(mf::NodeSpec{}.name("u").app("srad").policy("ups"));
  manifest.add_node(mf::NodeSpec{}.name("d").app("bfs").policy("duf"));
  manifest.add_node(
      mf::NodeSpec{}.name("s").app("unet").policy("static").static_uncore(mc::Ghz(1.4)));
  manifest.add_node(mf::NodeSpec{}.name("ref").app("bfs").policy("default"));
  return manifest;
}

std::string run_with(mf::FleetManifest manifest) {
  mf::FleetRunner runner(std::move(manifest));
  return runner.run().to_jsonl();
}

}  // namespace

TEST(BatchOracle, GoldenMatchAcrossSeedsPoliciesAndFaultRates) {
  // Every job of the policy matrix, with and without fault weather, agrees
  // bit for bit between SimEngine::run and BatchEngine. The multi-die and
  // budgeted matrices run the same oracle in MultiDomainOracle.* and
  // BudgetOracle.*.
  for (std::uint64_t seed : {3ull, 11ull, 29ull}) {
    for (double rate : {0.0, 0.05}) {
      SCOPED_TRACE("fault_rate " + std::to_string(rate));
      magus::test::expect_engines_agree(policy_matrix_fleet(seed, rate), {});
    }
  }
}

TEST(BatchOracle, BatchBitIdenticalAcrossJobsAndShardSizes) {
  std::string reference;
  {
    JobsGuard jobs(1);
    mf::FleetManifest manifest = policy_matrix_fleet(11, 0.05);
    manifest.shard_size(1);
    reference = run_with(std::move(manifest));
  }
  for (int shard : {2, 5, 64}) {
    JobsGuard jobs(8);
    mf::FleetManifest manifest = policy_matrix_fleet(11, 0.05);
    manifest.shard_size(shard);
    EXPECT_EQ(reference, run_with(std::move(manifest))) << "shard_size=" << shard;
  }
}

TEST(BatchOracle, FailedNodeAccountingMatchesUnderHeavyFaults) {
  // UPS does not ride the degradation ladder: injected MSR -EIOs make it
  // throw, consuming all three attempts. Failed nodes carry their attempt
  // count and error string, and the accounting is job-count invariant.
  mf::FleetManifest manifest;
  manifest.seed(11).shard_size(4).fault_rate(0.35).fault_seed(9);
  manifest.add_node(mf::NodeSpec{}.name("burst").app("srad").policy("ups").count(4));
  manifest.add_node(mf::NodeSpec{}.name("train").app("unet").policy("magus").count(2));

  mf::FleetResult serial;
  {
    JobsGuard jobs(1);
    serial = mf::FleetRunner(manifest).run();
  }
  JobsGuard jobs(2);
  const mf::FleetResult parallel = mf::FleetRunner(manifest).run();
  EXPECT_EQ(serial.to_jsonl(), parallel.to_jsonl());
  // The scenario must actually exercise the retry/failure path.
  EXPECT_GT(serial.degraded_nodes + serial.failed_nodes, 0u);
  for (const mf::NodeResult& node : serial.nodes) {
    EXPECT_EQ(node.failed, node.attempts == 3 && !node.error.empty()) << node.name;
  }
}

TEST(BatchOracle, ShardSizeBeyondFleetClamps) {
  // Regression: --shard-size larger than the fleet used to be accepted
  // as-is; it must clamp to one full-fleet shard with unchanged results.
  JobsGuard jobs(4);
  mf::FleetManifest exact = policy_matrix_fleet(3, 0.0);
  exact.shard_size(5);  // the fleet has exactly 5 nodes
  mf::FleetManifest oversized = policy_matrix_fleet(3, 0.0);
  oversized.shard_size(100000);
  EXPECT_EQ(run_with(std::move(exact)), run_with(std::move(oversized)));
}
