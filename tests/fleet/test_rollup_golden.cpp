// Committed rollup goldens: FleetResult::to_jsonl() must match the files in
// tests/fleet/golden/ byte for byte. The engine-oracle tests compare two
// adapters over the same tick kernel, so a drift inside the kernel (or the
// number formatter) moves both sides together; these files pin the absolute
// output, across the 1-die, multi-die, NUMA-skew, fault and budgeted paths.
//
// Each golden is the output of one magus-cli command, run from the repo root:
//
//   magus-cli fleet --nodes 24 --seed 7 --out tests/fleet/golden/synth_1die.jsonl
//   magus-cli fleet --nodes 24 --seed 11 --dies 2 --numa-skew 0.3
//             --out tests/fleet/golden/synth_2die_skew.jsonl
//   magus-cli fleet --nodes 24 --seed 17 --dies 4 --out tests/fleet/golden/synth_4die.jsonl
//   magus-cli fleet --nodes 24 --seed 13 --fault-rate 0.05 --fault-seed 7
//             --out tests/fleet/golden/synth_faults.jsonl
//   magus-cli fleet --nodes 16 --seed 5 --policy P --dies 2 --power-budget 4800
//             --budget-epoch 0.25 --out tests/fleet/golden/budget_P.jsonl
//             (P = ecoshift, deadline, comppow)
//
// Regenerate only for a deliberate output change, and say why in the commit.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

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

std::string read_golden(const std::string& name) {
  const std::string path = std::string(MAGUS_FLEET_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Runs `manifest` on the default (batch) engine and compares line by line,
/// so a failure names the first differing line instead of two 30 kB blobs.
void expect_golden(mf::FleetManifest manifest, const std::string& name) {
  JobsGuard jobs(2);
  const mf::FleetResult result = mf::FleetRunner(std::move(manifest)).run();
  const std::string got = result.to_jsonl();
  const std::string want = read_golden(name);
  // The daemon's /fleet/status keeps only the header line.
  EXPECT_EQ(result.header_jsonl(), want.substr(0, want.find('\n') + 1)) << name;
  std::istringstream got_lines(got);
  std::istringstream want_lines(want);
  std::string g;
  std::string w;
  for (int line = 1; std::getline(want_lines, w); ++line) {
    ASSERT_TRUE(std::getline(got_lines, g)) << name << ": output ends before line " << line;
    ASSERT_EQ(g, w) << name << ": line " << line;
  }
  EXPECT_FALSE(std::getline(got_lines, g)) << name << ": output has extra lines";
  EXPECT_EQ(got, want) << name;
}

mf::FleetManifest budgeted(const std::string& policy) {
  mf::FleetManifest manifest = mf::synth_fleet(16, 5);
  manifest.power_budget_w(4800.0).budget_epoch_s(0.25);
  manifest.mutate_nodes([&policy](mf::NodeSpec& node) { node.policy(policy).dies(2); });
  return manifest;
}

}  // namespace

TEST(RollupGolden, SingleDieSynthFleet) {
  expect_golden(mf::synth_fleet(24, 7), "synth_1die.jsonl");
}

TEST(RollupGolden, TwoDieNumaSkewedSynthFleet) {
  mf::FleetManifest manifest = mf::synth_fleet(24, 11);
  manifest.mutate_nodes([](mf::NodeSpec& node) { node.dies(2).numa_skew(0.3); });
  expect_golden(std::move(manifest), "synth_2die_skew.jsonl");
}

TEST(RollupGolden, FourDieSynthFleet) {
  mf::FleetManifest manifest = mf::synth_fleet(24, 17);
  manifest.mutate_nodes([](mf::NodeSpec& node) { node.dies(4); });
  expect_golden(std::move(manifest), "synth_4die.jsonl");
}

TEST(RollupGolden, FaultInjectedSynthFleet) {
  mf::FleetManifest manifest = mf::synth_fleet(24, 13);
  manifest.fault_rate(0.05).fault_seed(7);
  expect_golden(std::move(manifest), "synth_faults.jsonl");
}

TEST(RollupGolden, BudgetedEcoshift) {
  expect_golden(budgeted("ecoshift"), "budget_ecoshift.jsonl");
}

TEST(RollupGolden, BudgetedDeadline) {
  expect_golden(budgeted("deadline"), "budget_deadline.jsonl");
}

TEST(RollupGolden, BudgetedComppow) {
  expect_golden(budgeted("comppow"), "budget_comppow.jsonl");
}
