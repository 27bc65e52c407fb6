#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "magus/common/error.hpp"
#include "magus/core/policy_factory.hpp"
#include "magus/exp/experiment.hpp"
#include "magus/hw/uncore_freq.hpp"
#include "magus/sim/engine.hpp"
#include "magus/wl/catalog.hpp"

namespace mc = magus::core;
namespace me = magus::exp;

namespace {

/// A live engine + ladder so the context has real backends to bind.
struct ContextRig {
  magus::sim::SimEngine engine{magus::sim::intel_a100(),
                               magus::wl::make_workload("bfs")};
  magus::hw::UncoreFreqLadder ladder{0.8, 2.2};

  [[nodiscard]] mc::PolicyContext ctx() {
    mc::PolicyContext c;
    c.mem_counter = &engine.mem_counter();
    c.energy_counter = &engine.energy_counter();
    c.core_counters = &engine.core_counters();
    c.msr = &engine.msr();
    c.ladder = &ladder;
    return c;
  }
};

}  // namespace

TEST(PolicyFactory, TableListsTheTenBuiltinsInOrder) {
  // fleet::synth_fleet draws its policy mix by index into names(), so this
  // order is part of every synthetic fleet's identity.
  const auto& factory = mc::PolicyFactory::instance();
  const std::vector<std::pair<std::string, bool>> expected = {
      {"comppow", true}, {"deadline", true},    {"default", false},
      {"duf", true},     {"ecoshift", true},    {"magus", true},
      {"static", false}, {"static_max", false}, {"static_min", false},
      {"ups", true}};
  std::vector<std::string> expected_names;
  for (const auto& [name, runtime] : expected) {
    expected_names.push_back(name);
    EXPECT_EQ(factory.is_runtime(name), runtime) << name;
    EXPECT_TRUE(factory.has(name)) << name;
    EXPECT_FALSE(factory.summary(name).empty()) << name;
  }
  EXPECT_EQ(factory.names(), expected_names);
  EXPECT_EQ(factory.size(), expected.size());
}

TEST(PolicyFactory, RuntimeFlagSeparatesMonitoredPolicies) {
  const auto& factory = mc::PolicyFactory::instance();
  for (const char* runtime : {"magus", "ups", "duf"}) {
    EXPECT_TRUE(factory.is_runtime(runtime)) << runtime;
  }
  for (const char* pinned : {"default", "static", "static_min", "static_max"}) {
    EXPECT_FALSE(factory.is_runtime(pinned)) << pinned;
  }
}

TEST(PolicyFactory, MakesEachBuiltinAgainstLiveBackends) {
  ContextRig rig;
  mc::PolicyContext ctx = rig.ctx();
  ctx.static_ghz = magus::common::Ghz(1.4);
  const auto& factory = mc::PolicyFactory::instance();
  for (const std::string& name : factory.names()) {
    const std::unique_ptr<mc::IPolicy> policy = factory.make_policy(name, ctx);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_GT(policy->period_s(), 0.0) << name;
  }
}

TEST(PolicyFactory, UnknownNameListsRegisteredPolicies) {
  ContextRig rig;
  const mc::PolicyContext ctx = rig.ctx();
  try {
    (void)mc::PolicyFactory::instance().make_policy("no_such_policy", ctx);
    FAIL() << "expected ConfigError";
  } catch (const magus::common::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown policy 'no_such_policy'"), std::string::npos) << what;
    // The message must enumerate what IS registered, so a typo is one glance
    // from its fix.
    for (const char* name : {"default", "magus", "ups", "duf"}) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(PolicyFactory, MissingBackendNamedInError) {
  const mc::PolicyContext empty;  // no backends at all
  try {
    (void)mc::PolicyFactory::instance().make_policy("magus", empty);
    FAIL() << "expected ConfigError";
  } catch (const magus::common::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("magus"), std::string::npos);
  }
}

TEST(PolicyFactory, StaticMakerRequiresPinFrequency) {
  ContextRig rig;
  const mc::PolicyContext ctx = rig.ctx();  // static_ghz left at 0
  EXPECT_THROW((void)mc::PolicyFactory::instance().make_policy("static", ctx),
               magus::common::ConfigError);
}

TEST(PolicyFactory, NamesAreSorted) {
  const auto names = mc::PolicyFactory::instance().names();
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
}
