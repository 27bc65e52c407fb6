#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "magus/common/error.hpp"
#include "magus/fleet/manifest.hpp"

namespace mf = magus::fleet;

TEST(NodeSpec, FluentBuilderChains) {
  mf::NodeSpec node;
  node.name("web").system("amd_mi250").app("srad").policy("ups").gpus(4).count(3);
  node.dies(4).numa_skew(0.25);
  EXPECT_EQ(node.name(), "web");
  EXPECT_EQ(node.system(), "amd_mi250");
  EXPECT_EQ(node.app(), "srad");
  EXPECT_EQ(node.policy(), "ups");
  EXPECT_EQ(node.gpus(), 4);
  EXPECT_EQ(node.dies(), 4);
  EXPECT_DOUBLE_EQ(node.numa_skew(), 0.25);
  EXPECT_EQ(node.count(), 3);
  EXPECT_TRUE(node.validate().empty());
}

TEST(NodeSpec, ValidateReportsEveryProblemAtOnce) {
  mf::NodeSpec node;
  node.name("").system("no_such_system").app("no_such_app").policy("no_such_policy");
  node.gpus(0).count(-1);
  const auto errors = node.validate("node[0] ''");
  ASSERT_EQ(errors.size(), 6u);  // name, system, app, policy, gpus, count
  for (const std::string& e : errors) {
    EXPECT_EQ(e.rfind("node[0] '':", 0), 0u) << e;
  }
}

TEST(NodeSpec, ValidatesDomainKnobs) {
  mf::NodeSpec node;
  node.dies(0).numa_skew(1.0);
  const auto errors = node.validate();
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("dies"), std::string::npos);
  EXPECT_NE(errors[1].find("numa_skew"), std::string::npos);
  node.dies(2).numa_skew(0.5);
  EXPECT_TRUE(node.validate().empty());
  // 2 sockets x 33 dies overflows the 64-domain kernel cap.
  node.dies(33);
  const auto overflow = node.validate();
  ASSERT_EQ(overflow.size(), 1u);
  EXPECT_NE(overflow[0].find("exceeds"), std::string::npos);
}

TEST(NodeSpec, NonFiniteKnobsRejected) {
  // The builder API bypasses the strict JSONL parser, so validate() itself
  // must reject NaN (which fails every ordered comparison) and infinities.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    mf::NodeSpec node;
    node.numa_skew(bad).power_cap_w(bad);
    const auto errors = node.validate();
    ASSERT_EQ(errors.size(), 2u) << bad;
    EXPECT_NE(errors[0].find("numa_skew"), std::string::npos) << errors[0];
    EXPECT_NE(errors[1].find("power_cap_w"), std::string::npos) << errors[1];
  }
}

TEST(NodeSpec, StaticPolicyNeedsPinFrequency) {
  mf::NodeSpec node;
  node.policy("static");
  const auto errors = node.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("static_uncore"), std::string::npos);
  node.static_uncore(magus::common::Ghz(1.4));
  EXPECT_TRUE(node.validate().empty());
}

TEST(FleetManifest, ValidateCollectsAcrossNodes) {
  mf::FleetManifest manifest;
  manifest.shard_size(0);
  manifest.add_node(mf::NodeSpec{}.name("a").app("no_such_app"));
  manifest.add_node(mf::NodeSpec{}.name("a"));  // duplicate name
  const auto errors = manifest.validate();
  ASSERT_EQ(errors.size(), 3u);  // shard_size, unknown app, duplicate name
  EXPECT_THROW(manifest.validate_or_throw(), magus::common::ConfigError);
}

TEST(FleetManifest, NonFiniteBudgetRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    mf::FleetManifest manifest;
    manifest.add_node(mf::NodeSpec{}.name("a"));
    manifest.power_budget_w(bad).budget_epoch_s(bad);
    const auto errors = manifest.validate();
    ASSERT_EQ(errors.size(), 2u) << bad;
    EXPECT_NE(errors[0].find("power_budget_w"), std::string::npos) << errors[0];
    EXPECT_NE(errors[1].find("budget_epoch_s"), std::string::npos) << errors[1];
    EXPECT_THROW(manifest.validate_or_throw(), magus::common::ConfigError);
  }
}

TEST(FleetManifest, JitterOutOfRangeRejected) {
  // At rel >= 1/3 the clamp 1 - 3 rel reaches zero; a negative rel is no
  // spread at all. Both are config errors, not failed nodes.
  for (const double bad : {0.5, 1.0 / 3.0, -0.1, 2.0, 1e300,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    mf::FleetManifest manifest;
    manifest.add_node(mf::NodeSpec{}.name("a"));
    magus::wl::JitterConfig jitter;
    jitter.duration_rel = bad;
    jitter.demand_rel = bad;
    manifest.jitter(jitter);
    const auto errors = manifest.validate();
    ASSERT_EQ(errors.size(), 2u) << bad;
    EXPECT_NE(errors[0].find("jitter_duration_rel"), std::string::npos) << errors[0];
    EXPECT_NE(errors[1].find("jitter_demand_rel"), std::string::npos) << errors[1];
    EXPECT_THROW(manifest.validate_or_throw(), magus::common::ConfigError);
  }
}

TEST(FleetManifest, JitterInRangeAcceptedAndRoundTrips) {
  for (const double ok : {0.0, 0.3}) {
    mf::FleetManifest manifest;
    manifest.add_node(mf::NodeSpec{}.name("a"));
    magus::wl::JitterConfig jitter;
    jitter.duration_rel = ok;
    jitter.demand_rel = ok;
    manifest.jitter(jitter);
    EXPECT_TRUE(manifest.validate().empty()) << ok;
    const mf::FleetManifest back = mf::FleetManifest::from_jsonl(manifest.to_jsonl());
    EXPECT_EQ(back.jitter().duration_rel, ok);
    EXPECT_EQ(back.jitter().demand_rel, ok);
    EXPECT_TRUE(back.validate().empty()) << ok;
    EXPECT_EQ(back.to_jsonl(), manifest.to_jsonl());
  }
}

TEST(FleetManifest, EmptyFleetRejected) {
  const auto errors = mf::FleetManifest{}.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("no nodes"), std::string::npos);
}

TEST(FleetManifest, ExpandReplicatesAndRenames) {
  mf::FleetManifest manifest;
  manifest.add_node(mf::NodeSpec{}.name("solo"));
  manifest.add_node(mf::NodeSpec{}.name("web").count(3));
  const auto nodes = manifest.expand();
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(manifest.total_nodes(), 4u);
  EXPECT_EQ(nodes[0].name(), "solo");  // count==1 keeps its name
  EXPECT_EQ(nodes[1].name(), "web/0");
  EXPECT_EQ(nodes[3].name(), "web/2");
  for (const auto& n : nodes) EXPECT_EQ(n.count(), 1);
}

TEST(FleetManifest, JsonlRoundTripPreservesEverything) {
  mf::FleetManifest manifest;
  manifest.seed(0xDEADBEEFCAFEF00Dull).shard_size(9);
  magus::wl::JitterConfig jitter;
  jitter.duration_rel = 0.05;
  jitter.demand_rel = 0.01;
  manifest.jitter(jitter);
  manifest.add_node(mf::NodeSpec{}
                        .name("pin \"quoted\"")
                        .system("intel_4a100")
                        .app("resnet50")
                        .policy("static")
                        .static_uncore(magus::common::Ghz(1.6))
                        .gpus(4)
                        .dies(4)
                        .numa_skew(0.3)
                        .count(2));

  const mf::FleetManifest back = mf::FleetManifest::from_jsonl(manifest.to_jsonl());
  // 64-bit seeds ride as strings, so no double rounding.
  EXPECT_EQ(back.seed(), 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(back.shard_size(), 9);
  EXPECT_DOUBLE_EQ(back.jitter().duration_rel, 0.05);
  EXPECT_DOUBLE_EQ(back.jitter().demand_rel, 0.01);
  ASSERT_EQ(back.nodes().size(), 1u);
  const mf::NodeSpec& node = back.nodes()[0];
  EXPECT_EQ(node.name(), "pin \"quoted\"");
  EXPECT_EQ(node.system(), "intel_4a100");
  EXPECT_EQ(node.app(), "resnet50");
  EXPECT_EQ(node.policy(), "static");
  EXPECT_DOUBLE_EQ(node.static_uncore().value(), 1.6);
  EXPECT_EQ(node.gpus(), 4);
  EXPECT_EQ(node.dies(), 4);
  EXPECT_DOUBLE_EQ(node.numa_skew(), 0.3);
  EXPECT_EQ(node.count(), 2);
  // Canonical form is a fixed point.
  EXPECT_EQ(back.to_jsonl(), manifest.to_jsonl());
}

TEST(FleetManifest, DomainlessManifestParsesAsSingleDomainNodes) {
  // Backward compat: a v1 manifest saved before the multi-die fields existed
  // carries no "dies"/"numa_skew" keys. It must load as a fleet of
  // single-domain, skew-free nodes -- the exact pre-domain semantics.
  const std::string v1 =
      "{\"t\":0,\"type\":\"fleet_manifest\",\"seed\":\"2025\",\"shard_size\":16,"
      "\"jitter_duration_rel\":0,\"jitter_demand_rel\":0,\"fault_rate\":0,"
      "\"fault_seed\":\"0\"}\n"
      "{\"t\":0,\"type\":\"fleet_node\",\"name\":\"old\",\"system\":\"intel_a100\","
      "\"app\":\"unet\",\"policy\":\"magus\",\"gpus\":1,\"static_uncore_ghz\":0,"
      "\"count\":2}\n";
  const mf::FleetManifest manifest = mf::FleetManifest::from_jsonl(v1);
  ASSERT_EQ(manifest.nodes().size(), 1u);
  EXPECT_EQ(manifest.nodes()[0].dies(), 1);
  EXPECT_DOUBLE_EQ(manifest.nodes()[0].numa_skew(), 0.0);
  EXPECT_TRUE(manifest.validate().empty());
  // Re-serialising writes the v2 wire format with the defaults explicit,
  // and that form round-trips as a fixed point.
  const std::string v2 = manifest.to_jsonl();
  EXPECT_NE(v2.find("\"dies\":1"), std::string::npos);
  EXPECT_NE(v2.find("\"numa_skew\":0"), std::string::npos);
  EXPECT_EQ(mf::FleetManifest::from_jsonl(v2).to_jsonl(), v2);
}

TEST(FleetManifest, FromJsonlRejectsGarbage) {
  EXPECT_THROW((void)mf::FleetManifest::from_jsonl("not json"),
               magus::common::ConfigError);
  EXPECT_THROW((void)mf::FleetManifest::from_jsonl(""), magus::common::ConfigError);
  // A node line without the header is rejected too.
  mf::FleetManifest one;
  one.add_node(mf::NodeSpec{});
  std::string text = one.to_jsonl();
  text.erase(0, text.find('\n') + 1);
  EXPECT_THROW((void)mf::FleetManifest::from_jsonl(text), magus::common::ConfigError);
}

namespace {

/// A one-node manifest dump with `from` replaced by `to` (which must occur).
std::string mutated_manifest(const std::string& from, const std::string& to) {
  mf::FleetManifest manifest;
  manifest.seed(7).add_node(mf::NodeSpec{}.name("n").count(2));
  std::string text = manifest.to_jsonl();
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

}  // namespace

TEST(FleetManifest, FromJsonlRejectsBadEscapesAsConfigError) {
  // A bad \u escape is a ConfigError, not a foreign exception from a
  // number parser.
  const std::string text = mutated_manifest(R"("name":"n")", R"("name":"\uzzzz")");
  EXPECT_THROW((void)mf::FleetManifest::from_jsonl(text), magus::common::ConfigError);
}

TEST(FleetManifest, FromJsonlRejectsBadNumbersAsConfigError) {
  // Each is a ConfigError: a non-numeric or negative seed, a count outside
  // int (an int cast would be undefined behaviour), a fractional count, and
  // non-finite or garbage reals.
  const std::pair<const char*, const char*> cases[] = {
      {R"("seed":"7")", R"("seed":"abc")"},
      {R"("seed":"7")", R"("seed":"-7")"},
      {R"("gpus":1)", R"("gpus":1e300)"},
      {R"("dies":1)", R"("dies":-1e300)"},
      {R"("count":2)", R"("count":2.5)"},
      {R"("shard_size":16)", R"("shard_size":nan)"},
      {R"("numa_skew":0)", R"("numa_skew":inf)"},
      {R"("jitter_duration_rel":)", R"("jitter_duration_rel":x)"},
  };
  for (const auto& [from, to] : cases) {
    const std::string text = mutated_manifest(from, to);
    EXPECT_THROW((void)mf::FleetManifest::from_jsonl(text), magus::common::ConfigError) << to;
  }
  // The error names the line and the field.
  try {
    (void)mf::FleetManifest::from_jsonl(mutated_manifest(R"("gpus":1)", R"("gpus":1e300)"));
    FAIL() << "expected ConfigError";
  } catch (const magus::common::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2: field 'gpus'"), std::string::npos) << what;
  }
}

TEST(FleetManifest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "magus_fleet_manifest_test.jsonl";
  mf::FleetManifest manifest;
  manifest.seed(77).add_node(mf::NodeSpec{}.name("n").count(2));
  manifest.save(path);
  const mf::FleetManifest back = mf::FleetManifest::load(path);
  EXPECT_EQ(back.to_jsonl(), manifest.to_jsonl());
  std::remove(path.c_str());
}

TEST(SynthFleet, DeterministicAndValid) {
  const mf::FleetManifest a = mf::synth_fleet(64, 7);
  const mf::FleetManifest b = mf::synth_fleet(64, 7);
  EXPECT_EQ(a.to_jsonl(), b.to_jsonl());
  EXPECT_EQ(a.total_nodes(), 64u);
  EXPECT_TRUE(a.validate().empty());
  // A different seed yields a different mix.
  EXPECT_NE(mf::synth_fleet(64, 8).to_jsonl(), a.to_jsonl());
  EXPECT_THROW((void)mf::synth_fleet(0, 7), magus::common::ConfigError);
}
