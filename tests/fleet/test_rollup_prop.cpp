// Rollup accounting properties over random synthetic fleets.
//
// Whatever the fleet -- dies per socket, NUMA skew, a fleet power budget,
// fault weather that fails some nodes -- its rollups must account for its
// nodes exactly:
//   joules       -- the fleet's joules_saved_total is the in-index-order sum
//                   of its nodes' joules_saved, and each policy rollup's is
//                   the in-order sum over that policy's nodes, bit for bit;
//   node counts  -- per-policy node counts sum to nodes_total, and each
//                   per_domain[d].nodes counts the non-failed nodes with more
//                   than d domains;
//   fault counts -- degraded and failed counts agree between the nodes, the
//                   fleet and the policy rollups, and a failed node is also
//                   degraded.
// Budget conservation is the allocator's (test_allocator_prop.cpp). Cases
// are drawn from magus::test::Gen, so a failing index replays from the seed.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "magus/common/thread_pool.hpp"
#include "magus/fleet/manifest.hpp"
#include "magus/fleet/runner.hpp"
#include "prop.hpp"

namespace mf = magus::fleet;

namespace {

constexpr int kCases = 24;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A synth fleet under random domain knobs, budget and fault weather.
mf::FleetManifest draw_fleet(magus::test::Gen& gen) {
  mf::FleetManifest manifest = mf::synth_fleet(gen.int_in(8, 20), gen.u64());
  const int dies = gen.int_in(1, 4);
  const double skew = gen.int_in(0, 1) == 0 ? 0.0 : 0.5 * gen.uniform();
  manifest.mutate_nodes([&](mf::NodeSpec& node) { node.dies(dies).numa_skew(skew); });
  manifest.shard_size(gen.int_in(1, 8));
  if (gen.int_in(0, 1) == 0) {
    manifest.power_budget_w(2'000.0 + 8'000.0 * gen.uniform());
    manifest.budget_epoch_s(0.25 + gen.uniform());
  }
  if (gen.int_in(0, 2) != 0) {
    manifest.fault_rate(0.02 + 0.1 * gen.uniform());
    manifest.fault_seed(gen.u64());
  }
  return manifest;
}

}  // namespace

TEST(RollupProp, RollupsAccountForEveryNode) {
  magus::common::set_default_jobs(2);
  magus::test::Gen gen(0x5011'0bull);
  std::size_t failed_seen = 0;
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const mf::FleetResult fleet = mf::FleetRunner(draw_fleet(gen)).run();
    ASSERT_EQ(fleet.nodes.size(), fleet.nodes_total);

    // What the rollups must equal, accumulated here in node-index order.
    double joules = 0.0;
    std::size_t degraded = 0;
    std::size_t failed = 0;
    struct Acc {
      std::size_t nodes = 0;
      std::size_t degraded = 0;
      std::size_t failed = 0;
      double joules = 0.0;
    };
    std::map<std::string, Acc> by_policy;
    std::map<int, std::size_t> with_domain;  ///< non-failed nodes with > d domains
    for (const mf::NodeResult& n : fleet.nodes) {
      joules += n.joules_saved;
      degraded += n.degraded ? 1u : 0u;
      failed += n.failed ? 1u : 0u;
      EXPECT_TRUE(!n.failed || n.degraded) << n.name;
      Acc& acc = by_policy[n.policy];
      ++acc.nodes;
      acc.degraded += n.degraded ? 1u : 0u;
      acc.failed += n.failed ? 1u : 0u;
      acc.joules += n.joules_saved;
      if (!n.failed) {
        for (int d = 0; d < n.domains; ++d) ++with_domain[d];
      }
    }
    failed_seen += failed;

    EXPECT_EQ(bits(fleet.joules_saved_total), bits(joules));
    EXPECT_EQ(fleet.degraded_nodes, degraded);
    EXPECT_EQ(fleet.failed_nodes, failed);

    ASSERT_EQ(fleet.per_policy.size(), by_policy.size());
    std::size_t policy_nodes = 0;
    for (const mf::PolicyRollup& roll : fleet.per_policy) {
      SCOPED_TRACE(roll.policy);
      const Acc& acc = by_policy.at(roll.policy);
      EXPECT_EQ(roll.nodes, acc.nodes);
      EXPECT_EQ(roll.degraded_nodes, acc.degraded);
      EXPECT_EQ(roll.failed_nodes, acc.failed);
      EXPECT_EQ(bits(roll.joules_saved_total), bits(acc.joules));
      policy_nodes += roll.nodes;
    }
    EXPECT_EQ(policy_nodes, fleet.nodes_total);

    ASSERT_EQ(fleet.per_domain.size(), with_domain.size());
    for (const mf::DomainRollup& roll : fleet.per_domain) {
      EXPECT_EQ(roll.nodes, with_domain.at(roll.domain)) << "domain " << roll.domain;
    }
  }
  magus::common::set_default_jobs(0);
  // The fault weather must have failed some nodes, or the failed-node
  // branches above went unchecked.
  EXPECT_GT(failed_seen, 0u);
}
