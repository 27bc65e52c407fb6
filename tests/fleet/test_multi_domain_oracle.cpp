// The multi-domain contract: with nodes reshaped to multiple uncore dies per
// socket (and NUMA-skewed traffic), every job runs bit-identically on
// SimEngine and BatchEngine across seeds, the runtime policy matrix and
// domain counts {1, 2, 4}; fleet rollups stay byte-identical at any job
// count; and the per-domain surface -- domain rollups and per-node domain
// vectors -- is present and coherent.

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

/// One node per runtime policy, all multi-die, half of them NUMA-skewed, so
/// every per-domain decision loop (MAGUS per-domain MDFS, UPS per-package,
/// DUF per-domain ladder) is exercised.
mf::FleetManifest domain_fleet(std::uint64_t seed, int dies, double skew) {
  mf::FleetManifest manifest;
  manifest.seed(seed).shard_size(3);
  manifest.add_node(mf::NodeSpec{}.name("m").app("unet").policy("magus").dies(dies));
  manifest.add_node(
      mf::NodeSpec{}.name("ms").app("srad").policy("magus").dies(dies).numa_skew(skew));
  manifest.add_node(
      mf::NodeSpec{}.name("u").app("srad").policy("ups").dies(dies).numa_skew(skew));
  manifest.add_node(mf::NodeSpec{}.name("d").app("bfs").policy("duf").dies(dies));
  manifest.add_node(
      mf::NodeSpec{}.name("ds").app("unet").policy("duf").dies(dies).numa_skew(skew));
  manifest.add_node(mf::NodeSpec{}.name("ref").app("bfs").policy("default").dies(dies));
  return manifest;
}

std::string run_with(mf::FleetManifest manifest) {
  mf::FleetRunner runner(std::move(manifest));
  return runner.run().to_jsonl();
}

}  // namespace

TEST(MultiDomainOracle, GoldenMatchAcrossSeedsPoliciesAndDomainCounts) {
  for (std::uint64_t seed : {3ull, 11ull, 29ull}) {
    for (int dies : {1, 2, 4}) {
      SCOPED_TRACE("dies " + std::to_string(dies));
      magus::test::expect_engines_agree(domain_fleet(seed, dies, 0.4), {});
    }
  }
}

TEST(MultiDomainOracle, BitIdenticalAtJobs1And8) {
  std::string reference;
  {
    JobsGuard jobs(1);
    reference = run_with(domain_fleet(11, 4, 0.4));
  }
  JobsGuard jobs(8);
  EXPECT_EQ(reference, run_with(domain_fleet(11, 4, 0.4)));
}

TEST(MultiDomainOracle, PerDomainMetricsAreCoherent) {
  JobsGuard jobs(2);
  mf::FleetRunner runner(domain_fleet(11, 4, 0.4));
  const mf::FleetResult result = runner.run();

  // Every preset is 2 sockets, so 4 dies per socket means 8 domains/node and
  // exactly 8 domain rollups, each covering the whole fleet.
  ASSERT_EQ(result.per_domain.size(), 8u);
  for (std::size_t d = 0; d < result.per_domain.size(); ++d) {
    EXPECT_EQ(result.per_domain[d].domain, static_cast<int>(d));
    EXPECT_EQ(result.per_domain[d].nodes, result.nodes_total);
  }

  double rollup_joules = 0.0;
  for (const mf::DomainRollup& roll : result.per_domain) {
    rollup_joules += roll.joules_saved_total;
  }
  double node_joules = 0.0;
  for (const mf::NodeResult& node : result.nodes) {
    ASSERT_EQ(node.domains, 8) << node.name;
    ASSERT_EQ(node.domain_joules_saved.size(), 8u) << node.name;
    ASSERT_EQ(node.domain_slowdown_pct.size(), 8u) << node.name;
    for (double j : node.domain_joules_saved) node_joules += j;
    if (node.policy == "default") {
      // A default node is its own twin: per-domain deltas exactly zero.
      for (double j : node.domain_joules_saved) EXPECT_EQ(j, 0.0);
      for (double s : node.domain_slowdown_pct) EXPECT_EQ(s, 0.0);
    }
  }
  // The domain rollup is a re-bucketing of the same per-node vectors.
  EXPECT_DOUBLE_EQ(rollup_joules, node_joules);
  // The runtime policies actually save uncore energy somewhere.
  EXPECT_GT(node_joules, 0.0);

  // The canonical JSONL carries the per-domain surface.
  const std::string jsonl = result.to_jsonl();
  EXPECT_NE(jsonl.find("\"type\":\"domain_rollup\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"domains\":8"), std::string::npos);
  EXPECT_NE(jsonl.find("\"domain_joules_saved\":\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"domain_slowdown_pct\":\""), std::string::npos);
}

TEST(MultiDomainOracle, NumaSkewShiftsSavingsAcrossDies) {
  // With a heavily skewed traffic split, die 0 of each socket stays hot while
  // the other dies idle; a per-domain policy should therefore save a
  // different amount on die 0 than on its siblings. This is the whole point
  // of per-domain control -- a node-level policy cannot tell them apart.
  JobsGuard jobs(2);
  mf::FleetManifest manifest;
  manifest.seed(7).shard_size(2);
  manifest.add_node(
      mf::NodeSpec{}.name("skewed").app("srad").policy("magus").dies(4).numa_skew(0.6));
  mf::FleetRunner runner(std::move(manifest));
  const mf::FleetResult result = runner.run();

  ASSERT_EQ(result.nodes.size(), 1u);
  const mf::NodeResult& node = result.nodes[0];
  ASSERT_EQ(node.domain_joules_saved.size(), 8u);
  // Socket 0: die 0 (domain 0) vs die 1 (domain 1).
  EXPECT_NE(node.domain_joules_saved[0], node.domain_joules_saved[1]);
}
