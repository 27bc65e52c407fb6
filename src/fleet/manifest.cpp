#include "magus/fleet/manifest.hpp"

#include <cmath>
#include <cstddef>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "magus/common/error.hpp"
#include "magus/common/parse.hpp"
#include "magus/core/policy_factory.hpp"
#include "magus/sim/kernel.hpp"
#include "magus/sim/system_preset.hpp"
#include "magus/telemetry/event_log.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/catalog.hpp"

namespace magus::fleet {

namespace {

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace

std::vector<std::string> NodeSpec::validate(const std::string& prefix) const {
  std::vector<std::string> errors;
  auto add = [&](const std::string& msg) {
    errors.push_back(prefix.empty() ? msg : prefix + ": " + msg);
  };

  if (name_.empty()) add("node name must not be empty");
  try {
    const sim::SystemSpec system = sim::system_by_name(system_);
    if (dies_ >= 1 && system.cpu.sockets * dies_ > sim::kern::kMaxDomains) {
      add("sockets * dies exceeds " + std::to_string(sim::kern::kMaxDomains) + " (got " +
          std::to_string(system.cpu.sockets * dies_) + ")");
    }
  } catch (const common::Error&) {
    add("unknown system '" + system_ + "'");
  }
  try {
    (void)wl::make_workload(app_);
  } catch (const common::Error&) {
    add("unknown application '" + app_ + "'");
  }
  const auto& factory = core::PolicyFactory::instance();
  if (!factory.has(policy_)) {
    add("unknown policy '" + policy_ + "' (registered: " + join(factory.names(), ", ") +
        ")");
  }
  if (gpus_ < 1) add("gpus must be >= 1 (got " + std::to_string(gpus_) + ")");
  if (dies_ < 1) add("dies must be >= 1 (got " + std::to_string(dies_) + ")");
  // Negated in-range tests, so NaN fails them too.
  if (!(numa_skew_ >= 0.0 && numa_skew_ < 1.0)) {
    add("numa_skew must be in [0, 1) (got " + std::to_string(numa_skew_) + ")");
  }
  if (!(power_cap_w_ >= 0.0 && std::isfinite(power_cap_w_))) {
    add("power_cap_w must be finite and >= 0 (got " + std::to_string(power_cap_w_) + ")");
  }
  if (count_ < 1) add("count must be >= 1 (got " + std::to_string(count_) + ")");
  if (policy_ == "static" && static_uncore_ <= common::Ghz(0.0)) {
    add("policy 'static' needs a positive static_uncore frequency");
  }
  return errors;
}

std::vector<std::string> FleetManifest::validate() const {
  std::vector<std::string> errors;
  if (shard_size_ < 1) {
    errors.push_back("shard_size must be >= 1 (got " + std::to_string(shard_size_) + ")");
  }
  if (nodes_.empty()) errors.push_back("fleet has no nodes");
  if (!(power_budget_w_ >= 0.0 && std::isfinite(power_budget_w_))) {
    errors.push_back("power_budget_w must be finite and >= 0 (got " +
                     std::to_string(power_budget_w_) + ")");
  }
  if (!(budget_epoch_s_ > 0.0 && std::isfinite(budget_epoch_s_))) {
    errors.push_back("budget_epoch_s must be finite and > 0 (got " +
                     std::to_string(budget_epoch_s_) + ")");
  }
  // Rng::jitter clamps to [1 - 3 rel, 1 + 3 rel]: at rel >= 1/3 a phase can
  // get a zero or negative duration or demand.
  auto check_jitter = [&](const char* key, double rel) {
    if (!(rel >= 0.0 && rel < 1.0 / 3.0)) {
      errors.push_back(std::string(key) + " must be finite and in [0, 1/3) (got " +
                       telemetry::format_double(rel) + ")");
    }
  };
  check_jitter("jitter_duration_rel", jitter_.duration_rel);
  check_jitter("jitter_demand_rel", jitter_.demand_rel);
  try {
    fault_.validate();
  } catch (const common::Error& e) {
    errors.emplace_back(e.what());
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const std::string prefix =
        "node[" + std::to_string(i) + "] '" + nodes_[i].name() + "'";
    for (std::string& e : nodes_[i].validate(prefix)) errors.push_back(std::move(e));
    for (std::size_t j = 0; j < i; ++j) {
      if (nodes_[j].name() == nodes_[i].name()) {
        errors.push_back(prefix + ": duplicate node name (also node[" +
                         std::to_string(j) + "])");
        break;
      }
    }
  }
  return errors;
}

void FleetManifest::validate_or_throw() const {
  const std::vector<std::string> errors = validate();
  if (!errors.empty()) {
    throw common::ConfigError("invalid fleet manifest: " + join(errors, "; "));
  }
}

std::vector<NodeSpec> FleetManifest::expand() const {
  std::vector<NodeSpec> out;
  out.reserve(total_nodes());
  for (const NodeSpec& spec : nodes_) {
    for (int r = 0; r < spec.count(); ++r) {
      NodeSpec node = spec;
      node.count(1);
      if (spec.count() > 1) node.name(spec.name() + "/" + std::to_string(r));
      out.push_back(std::move(node));
    }
  }
  return out;
}

std::size_t FleetManifest::total_nodes() const {
  std::size_t n = 0;
  for (const NodeSpec& spec : nodes_) {
    if (spec.count() > 0) n += static_cast<std::size_t>(spec.count());
  }
  return n;
}

std::string FleetManifest::to_jsonl() const {
  // Seeds ride as strings: JSON numbers go through double in our parser and
  // would silently round 64-bit seeds.
  telemetry::Event header(0.0, "fleet_manifest");
  header.str("seed", std::to_string(seed_))
      .num("shard_size", shard_size_)
      .num("jitter_duration_rel", jitter_.duration_rel)
      .num("jitter_demand_rel", jitter_.demand_rel)
      .num("fault_rate", fault_.rate)
      .str("fault_seed", std::to_string(fault_.seed));
  // Budget fields postdate the v1 wire format and are emitted only when
  // budgeting is on, so cap-less manifests round-trip byte-identically.
  if (power_budget_w_ > 0.0) {
    header.num("power_budget_w", power_budget_w_).num("budget_epoch_s", budget_epoch_s_);
  }
  std::string out = header.to_json() + "\n";
  for (const NodeSpec& n : nodes_) {
    telemetry::Event line(0.0, "fleet_node");
    line.str("name", n.name())
        .str("system", n.system())
        .str("app", n.app())
        .str("policy", n.policy())
        .num("gpus", n.gpus())
        .num("static_uncore_ghz", n.static_uncore().value())
        .num("dies", n.dies())
        .num("numa_skew", n.numa_skew());
    // Same conditional contract as the header's budget fields.
    if (n.power_cap_w() > 0.0) line.num("power_cap_w", n.power_cap_w());
    line.num("count", n.count());
    out += line.to_json() + "\n";
  }
  return out;
}

FleetManifest FleetManifest::from_jsonl(const std::string& text) {
  FleetManifest manifest;
  bool saw_header = false;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::map<std::string, std::string> fields;
    try {
      fields = telemetry::parse_event_line(line);
    } catch (const common::Error& e) {
      throw common::ConfigError("fleet manifest line " + std::to_string(line_no) + ": " +
                                e.what());
    }
    auto field = [&](const char* key) -> const std::string& {
      const auto it = fields.find(key);
      if (it == fields.end()) {
        throw common::ConfigError("fleet manifest line " + std::to_string(line_no) +
                                  ": missing field '" + key + "'");
      }
      return it->second;
    };
    // Fields added after the v1 wire format; absent in old manifests.
    auto field_or = [&](const char* key, const std::string& fallback) -> std::string {
      const auto it = fields.find(key);
      return it == fields.end() ? fallback : it->second;
    };
    // Every numeric field goes through one checked parser; a bad value is a
    // ConfigError naming the line and the field.
    auto checked = [&](const char* key, const std::string& value, auto parse) {
      try {
        return parse(value);
      } catch (const common::ConfigError& e) {
        throw common::ConfigError("fleet manifest line " + std::to_string(line_no) +
                                  ": field '" + key + "': " + e.what());
      }
    };
    auto u64 = [&](const char* key, const std::string& value) {
      return checked(key, value, common::parse_u64);
    };
    auto real = [&](const char* key, const std::string& value) {
      return checked(key, value, common::parse_finite_double);
    };
    auto integer = [&](const char* key, const std::string& value) {
      return checked(key, value, [](const std::string& v) {
        return common::parse_int_in_range(v, std::numeric_limits<int>::min(),
                                          std::numeric_limits<int>::max());
      });
    };
    const std::string& type = field("type");
    if (type == "fleet_manifest") {
      saw_header = true;
      manifest.seed(u64("seed", field("seed")));
      manifest.shard_size(integer("shard_size", field("shard_size")));
      wl::JitterConfig jitter;
      jitter.duration_rel = real("jitter_duration_rel", field("jitter_duration_rel"));
      jitter.demand_rel = real("jitter_demand_rel", field("jitter_demand_rel"));
      manifest.jitter(jitter);
      manifest.fault_rate(real("fault_rate", field_or("fault_rate", "0")));
      manifest.fault_seed(u64("fault_seed", field_or("fault_seed", "0")));
      // Budget fields postdate v1: an old manifest is an unbudgeted fleet.
      manifest.power_budget_w(real("power_budget_w", field_or("power_budget_w", "0")));
      manifest.budget_epoch_s(real("budget_epoch_s", field_or("budget_epoch_s", "1")));
    } else if (type == "fleet_node") {
      NodeSpec node;
      node.name(field("name"))
          .system(field("system"))
          .app(field("app"))
          .policy(field("policy"))
          .gpus(integer("gpus", field("gpus")))
          .static_uncore(common::Ghz(real("static_uncore_ghz", field("static_uncore_ghz"))))
          // Domain fields postdate the v1 node lines: an old manifest is a
          // fleet of single-domain, skew-free nodes.
          .dies(integer("dies", field_or("dies", "1")))
          .numa_skew(real("numa_skew", field_or("numa_skew", "0")))
          // A v1 node line is an uncapped node.
          .power_cap_w(real("power_cap_w", field_or("power_cap_w", "0")))
          .count(integer("count", field("count")));
      manifest.add_node(std::move(node));
    } else {
      throw common::ConfigError("fleet manifest line " + std::to_string(line_no) +
                                ": unexpected type '" + type + "'");
    }
  }
  if (!saw_header) {
    throw common::ConfigError("fleet manifest: missing fleet_manifest header line");
  }
  return manifest;
}

void FleetManifest::save(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw common::Error("cannot open fleet manifest file " + path);
  os << to_jsonl();
  os.flush();
  if (os.fail()) throw common::Error("write failed for fleet manifest file " + path);
}

FleetManifest FleetManifest::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw common::Error("cannot open fleet manifest file " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return from_jsonl(buf.str());
}

FleetManifest synth_fleet(int nodes, std::uint64_t seed) {
  if (nodes < 1) throw common::ConfigError("synth_fleet: nodes must be >= 1");

  const std::vector<std::string> systems = {"intel_a100", "intel_4a100", "intel_max1550",
                                            "amd_mi250"};
  std::vector<std::string> apps;
  for (const wl::AppInfo& info : wl::app_catalog()) apps.push_back(info.name);

  // Runtime policies from the policy table (sorted by names()), so a new
  // runtime row automatically joins the mix. Every 4th node stays on
  // "default" to keep an in-fleet reference population.
  const auto& factory = core::PolicyFactory::instance();
  std::vector<std::string> runtimes;
  for (const std::string& name : factory.names()) {
    if (factory.is_runtime(name)) runtimes.push_back(name);
  }

  FleetManifest manifest;
  manifest.seed(seed);
  const common::Rng master(seed ^ 0xF1EE7000F1EE7000ull);
  for (int i = 0; i < nodes; ++i) {
    common::Rng rng = master.fork(static_cast<std::uint64_t>(i));
    NodeSpec node;
    node.name("synth/" + std::to_string(i))
        .system(systems[rng.uniform_index(systems.size())])
        .app(apps[rng.uniform_index(apps.size())]);
    if (i % 4 == 3 || runtimes.empty()) {
      node.policy("default");
    } else {
      node.policy(runtimes[rng.uniform_index(runtimes.size())]);
    }
    manifest.add_node(std::move(node));
  }
  return manifest;
}

}  // namespace magus::fleet
