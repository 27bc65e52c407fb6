// The built-in policy table behind core::PolicyFactory. It lives in
// magus_baseline, the lowest library that sees every policy class
// (including core's MagusRuntime).

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <string_view>

#include "magus/baseline/comppow.hpp"
#include "magus/baseline/deadline.hpp"
#include "magus/baseline/duf.hpp"
#include "magus/baseline/ecoshift.hpp"
#include "magus/baseline/static_policy.hpp"
#include "magus/baseline/ups.hpp"
#include "magus/common/error.hpp"
#include "magus/core/policy_factory.hpp"
#include "magus/core/runtime.hpp"

namespace magus::core {

namespace {

std::unique_ptr<IPolicy> make_comppow(const PolicyContext& ctx) {
  require_backend(ctx.mem_counter, "comppow", "a memory-throughput counter");
  require_backend(ctx.energy_counter, "comppow", "an energy counter");
  require_backend(ctx.msr, "comppow", "an MSR device");
  require_backend(ctx.ladder, "comppow", "an uncore frequency ladder");
  return std::make_unique<baseline::CompPowController>(
      *ctx.mem_counter, *ctx.energy_counter, *ctx.msr, *ctx.ladder, ctx.power_cap,
      ctx.domains);
}

std::unique_ptr<IPolicy> make_deadline(const PolicyContext& ctx) {
  require_backend(ctx.mem_counter, "deadline", "a memory-throughput counter");
  require_backend(ctx.msr, "deadline", "an MSR device");
  require_backend(ctx.ladder, "deadline", "an uncore frequency ladder");
  return std::make_unique<baseline::DeadlineController>(*ctx.mem_counter, *ctx.msr,
                                                        *ctx.ladder, ctx.domains);
}

std::unique_ptr<IPolicy> make_default(const PolicyContext&) {
  return std::make_unique<baseline::DefaultPolicy>();
}

std::unique_ptr<IPolicy> make_duf(const PolicyContext& ctx) {
  require_backend(ctx.mem_counter, "duf", "a memory-throughput counter");
  require_backend(ctx.msr, "duf", "an MSR device");
  require_backend(ctx.ladder, "duf", "an uncore frequency ladder");
  return std::make_unique<baseline::DufController>(*ctx.mem_counter, *ctx.msr, *ctx.ladder,
                                                   ctx.domains);
}

std::unique_ptr<IPolicy> make_ecoshift(const PolicyContext& ctx) {
  require_backend(ctx.mem_counter, "ecoshift", "a memory-throughput counter");
  require_backend(ctx.energy_counter, "ecoshift", "an energy counter");
  require_backend(ctx.msr, "ecoshift", "an MSR device");
  require_backend(ctx.ladder, "ecoshift", "an uncore frequency ladder");
  return std::make_unique<baseline::EcoShiftController>(
      *ctx.mem_counter, *ctx.energy_counter, *ctx.msr, *ctx.ladder, ctx.power_cap,
      ctx.domains);
}

std::unique_ptr<IPolicy> make_magus(const PolicyContext& ctx) {
  require_backend(ctx.mem_counter, "magus", "a memory-throughput counter");
  require_backend(ctx.msr, "magus", "an MSR device");
  require_backend(ctx.ladder, "magus", "an uncore frequency ladder");
  auto magus = std::make_unique<MagusRuntime>(*ctx.mem_counter, *ctx.msr, *ctx.ladder,
                                              ctx.magus ? *ctx.magus : MagusConfig{},
                                              ctx.domains);
  if (ctx.metrics) magus->attach_telemetry(*ctx.metrics, ctx.events);
  return magus;
}

std::unique_ptr<IPolicy> make_pinned(const PolicyContext& ctx, const std::string& name,
                                     common::Ghz target) {
  require_backend(ctx.msr, name, "an MSR device");
  require_backend(ctx.ladder, name, "an uncore frequency ladder");
  return std::make_unique<baseline::StaticUncorePolicy>(*ctx.msr, *ctx.ladder, target);
}

std::unique_ptr<IPolicy> make_static(const PolicyContext& ctx) {
  if (ctx.static_ghz <= common::Ghz(0.0)) {
    throw common::ConfigError(
        "policy 'static' requires a positive pin target "
        "(RunOptions::static_ghz / NodeSpec::static_uncore)");
  }
  return make_pinned(ctx, "static", ctx.static_ghz);
}

std::unique_ptr<IPolicy> make_static_max(const PolicyContext& ctx) {
  require_backend(ctx.ladder, "static_max", "an uncore frequency ladder");
  return make_pinned(ctx, "static_max", common::Ghz(ctx.ladder->max_ghz()));
}

std::unique_ptr<IPolicy> make_static_min(const PolicyContext& ctx) {
  require_backend(ctx.ladder, "static_min", "an uncore frequency ladder");
  return make_pinned(ctx, "static_min", common::Ghz(ctx.ladder->min_ghz()));
}

std::unique_ptr<IPolicy> make_ups(const PolicyContext& ctx) {
  require_backend(ctx.energy_counter, "ups", "an energy counter");
  require_backend(ctx.core_counters, "ups", "per-core counters");
  require_backend(ctx.msr, "ups", "an MSR device");
  require_backend(ctx.ladder, "ups", "an uncore frequency ladder");
  return std::make_unique<baseline::UpsController>(
      *ctx.energy_counter, *ctx.core_counters, *ctx.msr, *ctx.ladder,
      ctx.ups ? *ctx.ups : baseline::UpsConfig{}, ctx.domains);
}

struct Row {
  std::string_view name;
  std::string_view summary;
  bool is_runtime;  ///< does real per-sample work (charged monitoring overhead)
  std::unique_ptr<IPolicy> (*make)(const PolicyContext&);
};

// Sorted by name: names() returns table order, and fleet::synth_fleet's
// policy mix depends on it.
constexpr std::array<Row, 10> kPolicies{{
    {"comppow", "component-level split of the node cap between core and uncore power",
     true, make_comppow},
    {"deadline",
     "data-driven frequency selection against a slowdown bound (Ilager et al.)", true,
     make_deadline},
    {"default", "stock firmware only (the paper's baseline)", false, make_default},
    {"duf", "bandwidth-utilisation ladder walker (Andre et al. '22)", true, make_duf},
    {"ecoshift", "performance-aware throttling under a per-node power cap (EcoShift)",
     true, make_ecoshift},
    {"magus", "the paper's adaptive uncore-scaling runtime (MDFS)", true, make_magus},
    {"static", "uncore pinned at a configured frequency", false, make_static},
    {"static_max", "uncore pinned at ladder max (Fig. 2 left)", false, make_static_max},
    {"static_min", "uncore pinned at ladder min (Fig. 2 right)", false, make_static_min},
    {"ups", "Uncore Power Scavenger baseline (Gholkar et al. SC'19)", true, make_ups},
}};
static_assert(std::is_sorted(kPolicies.begin(), kPolicies.end(),
                             [](const Row& a, const Row& b) { return a.name < b.name; }));

const Row* find_row(const std::string& name) {
  const auto it = std::find_if(kPolicies.begin(), kPolicies.end(),
                               [&name](const Row& row) { return row.name == name; });
  return it == kPolicies.end() ? nullptr : &*it;
}

const Row& row_or_throw(const std::string& name) {
  if (const Row* row = find_row(name)) return *row;
  std::string known;
  for (const Row& row : kPolicies) {
    if (!known.empty()) known += ", ";
    known += row.name;
  }
  throw common::ConfigError("unknown policy '" + name + "'; registered policies: " + known);
}

}  // namespace

std::unique_ptr<IPolicy> PolicyFactory::make_policy(const std::string& name,
                                                    const PolicyContext& ctx) const {
  return row_or_throw(name).make(ctx);
}

bool PolicyFactory::has(const std::string& name) const { return find_row(name) != nullptr; }

bool PolicyFactory::is_runtime(const std::string& name) const {
  return row_or_throw(name).is_runtime;
}

std::string PolicyFactory::summary(const std::string& name) const {
  return std::string(row_or_throw(name).summary);
}

std::vector<std::string> PolicyFactory::names() const {
  std::vector<std::string> out;
  out.reserve(kPolicies.size());
  for (const Row& row : kPolicies) out.emplace_back(row.name);
  return out;
}

std::size_t PolicyFactory::size() const { return kPolicies.size(); }

const PolicyFactory& PolicyFactory::instance() {
  static const PolicyFactory factory{};
  return factory;
}

void require_backend(const void* backend, const std::string& policy, const char* what) {
  if (backend == nullptr) {
    throw common::ConfigError("policy '" + policy + "' requires " + what);
  }
}

}  // namespace magus::core
