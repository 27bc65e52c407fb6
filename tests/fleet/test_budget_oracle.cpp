// The budgeted fleet path: under a clipping cap schedule every cap-aware
// policy family runs bit-identically on SimEngine and BatchEngine across
// seeds, die counts and fault weather; with a fleet power budget active, the
// rollup is invariant to job count and shard size, the budget accounting is
// populated and conservative, and the cap-aware policies actually react to
// the caps.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "engine_oracle.hpp"
#include "magus/common/thread_pool.hpp"
#include "magus/core/power_cap.hpp"
#include "magus/fleet/manifest.hpp"
#include "magus/fleet/runner.hpp"

namespace mc = magus::common;
namespace mf = magus::fleet;
namespace mcore = magus::core;

namespace {

struct JobsGuard {
  explicit JobsGuard(std::size_t jobs) { mc::set_default_jobs(jobs); }
  ~JobsGuard() { mc::set_default_jobs(0); }
};

/// A small budgeted fleet of one comparator policy: two systems, two apps,
/// a manifest-level node cap on one template, and a global budget tight
/// enough that the allocator genuinely clips (the policies see real caps).
mf::FleetManifest budget_fleet(const std::string& policy, std::uint64_t seed, int dies,
                               double fault_rate) {
  mf::FleetManifest manifest;
  manifest.seed(seed)
      .shard_size(3)
      .fault_rate(fault_rate)
      .fault_seed(seed * 13 + 5)
      .power_budget_w(2'500.0)
      .budget_epoch_s(1.0);
  manifest.add_node(
      mf::NodeSpec{}.name("a").app("unet").policy(policy).dies(dies).count(2));
  manifest.add_node(mf::NodeSpec{}
                        .name("b")
                        .system("intel_max1550")
                        .app("srad")
                        .policy(policy)
                        .dies(dies)
                        .power_cap_w(600.0)
                        .count(2));
  manifest.add_node(mf::NodeSpec{}.name("ref").app("bfs").policy("default"));
  return manifest;
}

std::string run_with(mf::FleetManifest manifest) {
  mf::FleetRunner runner(std::move(manifest));
  return runner.run().to_jsonl();
}

}  // namespace

TEST(BudgetOracle, GoldenMatchAcrossPoliciesSeedsDiesAndFaults) {
  // Per-epoch caps around the fleet's 500 W-per-node share, tightened to
  // 600 W on template "b" by its manifest cap, so the policies see real
  // clipping and cap changes mid-run.
  mcore::PowerCapSchedule caps;
  caps.epoch_s = 1.0;
  caps.epoch_cap_w = {650.0, 430.0, 520.0, 380.0};
  for (const char* policy : {"ecoshift", "deadline", "comppow"}) {
    for (std::uint64_t seed : {5ull, 17ull, 41ull}) {
      for (int dies : {1, 2, 4}) {
        for (double rate : {0.0, 0.05}) {
          SCOPED_TRACE(std::string("policy ") + policy + " dies " + std::to_string(dies) +
                       " fault_rate " + std::to_string(rate));
          magus::test::expect_engines_agree(budget_fleet(policy, seed, dies, rate), caps);
        }
      }
    }
  }
}

TEST(BudgetOracle, RollupInvariantToJobCountUnderActiveBudget) {
  for (const char* policy : {"ecoshift", "deadline", "comppow"}) {
    std::string serial;
    {
      JobsGuard jobs(1);
      serial = run_with(budget_fleet(policy, 17, 2, 0.05));
    }
    {
      JobsGuard jobs(8);
      EXPECT_EQ(serial, run_with(budget_fleet(policy, 17, 2, 0.05))) << "policy=" << policy;
    }
  }
}

TEST(BudgetOracle, RollupInvariantToShardSizeUnderActiveBudget) {
  JobsGuard jobs(8);
  std::string reference;
  {
    mf::FleetManifest manifest = budget_fleet("ecoshift", 41, 2, 0.05);
    manifest.shard_size(1);
    reference = run_with(std::move(manifest));
  }
  for (int shard : {2, 4, 64}) {
    mf::FleetManifest manifest = budget_fleet("ecoshift", 41, 2, 0.05);
    manifest.shard_size(shard);
    EXPECT_EQ(reference, run_with(std::move(manifest))) << "shard_size=" << shard;
  }
}

TEST(BudgetOracle, BudgetAccountingIsPopulatedAndConservative) {
  JobsGuard jobs(2);
  mf::FleetRunner runner(budget_fleet("comppow", 5, 1, 0.0));
  const mf::FleetResult result = runner.run();
  EXPECT_DOUBLE_EQ(result.power_budget_w, 2'500.0);
  EXPECT_DOUBLE_EQ(result.budget_epoch_s, 1.0);
  ASSERT_FALSE(result.budget_epochs.empty());
  for (const mf::BudgetEpochRollup& epoch : result.budget_epochs) {
    EXPECT_LE(epoch.allocated_w, 2'500.0 + 1e-6);
    EXPECT_GE(epoch.allocated_w, 0.0);
    EXPECT_GE(epoch.clipped_w, 0.0);
  }
  // Every node under the budget reports the cap it ran under; the manifest
  // cap tightens template "b" below the fleet-wide ceiling.
  for (const mf::NodeResult& node : result.nodes) {
    EXPECT_GT(node.power_cap_w, 0.0) << node.name;
    if (node.name.rfind("b/", 0) == 0) {
      EXPECT_LE(node.power_cap_w, 600.0 + 1e-9);
    }
  }
}

TEST(BudgetOracle, CapAwarePoliciesReactToTheBudget) {
  // The budget must actually change behaviour: the same ecoshift fleet
  // uncapped vs tightly budgeted cannot produce identical rollups.
  JobsGuard jobs(2);
  mf::FleetManifest capped = budget_fleet("ecoshift", 5, 1, 0.0);
  mf::FleetManifest uncapped = budget_fleet("ecoshift", 5, 1, 0.0);
  uncapped.power_budget_w(0.0);
  uncapped.mutate_nodes([](mf::NodeSpec& node) { node.power_cap_w(0.0); });
  EXPECT_NE(run_with(std::move(capped)), run_with(std::move(uncapped)));
}
