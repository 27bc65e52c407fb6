#include <gtest/gtest.h>

#include <memory>

#include "magus/baseline/static_policy.hpp"
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

TEST(PolicyFactory, BuiltinsSelfRegister) {
  const auto& factory = mc::PolicyFactory::instance();
  for (const char* name : {"default", "static", "static_min", "static_max", "magus",
                           "ups", "duf"}) {
    EXPECT_TRUE(factory.has(name)) << name;
    EXPECT_FALSE(factory.summary(name).empty()) << name;
  }
  EXPECT_GE(factory.size(), 7u);
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

TEST(PolicyFactory, DuplicateRegistrationRejected) {
  mc::PolicyFactory factory;  // private instance; the global one stays clean
  auto maker = [](const mc::PolicyContext&) -> std::unique_ptr<mc::IPolicy> {
    return std::make_unique<magus::baseline::DefaultPolicy>();
  };
  factory.register_policy("twice", maker, "first", false);
  EXPECT_THROW(factory.register_policy("twice", maker, "second", false),
               magus::common::ConfigError);
  EXPECT_EQ(factory.summary("twice"), "first");
}

TEST(PolicyFactory, EmptyNameAndNullMakerRejected) {
  mc::PolicyFactory factory;
  auto maker = [](const mc::PolicyContext&) -> std::unique_ptr<mc::IPolicy> {
    return std::make_unique<magus::baseline::DefaultPolicy>();
  };
  EXPECT_THROW(factory.register_policy("", maker, "", false),
               magus::common::ConfigError);
  EXPECT_THROW(factory.register_policy("null_maker", nullptr, "", false),
               magus::common::ConfigError);
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
