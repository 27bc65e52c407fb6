#include "magus/sim/node.hpp"

#include <string>
#include <utility>

#include "magus/common/error.hpp"
#include "magus/hw/msr.hpp"

namespace magus::sim {

std::size_t LaneStore::add_lane(const SystemSpec& spec, std::uint64_t noise_seed) {
  if (spec.cpu.dies_per_socket < 1) {
    throw common::ConfigError("LaneStore: dies_per_socket must be >= 1");
  }
  if (!(spec.numa_skew >= 0.0 && spec.numa_skew < 1.0)) {
    throw common::ConfigError("LaneStore: numa_skew must be in [0, 1)");
  }
  if (spec.cpu.sockets * spec.cpu.dies_per_socket > kern::kMaxDomains) {
    throw common::ConfigError("LaneStore: sockets * dies_per_socket exceeds " +
                              std::to_string(kern::kMaxDomains));
  }

  const std::size_t index = lanes_.size();
  LaneInfo info;
  info.params = kern::NodeParams::from_spec(spec);
  info.socket_base = firmware_.size();
  info.domain_base = uncore_.size();
  info.cores = spec.cpu.total_cores();
  const kern::NodeParams& p = info.params;

  hw::UncoreRatioLimit limit;
  limit.max_ratio = p.ladder.max_ratio();
  limit.min_ratio = p.ladder.min_ratio();
  for (int s = 0; s < p.sockets; ++s) {
    firmware_.push_back(kern::init_firmware(p.fw));
    pkg_energy_j_.push_back(0.0);
    dram_energy_j_.push_back(0.0);
    last_pkg_w_.push_back(0.0);
    raw_0x620_.push_back(limit.encode());
  }
  for (int d = 0; d < p.domains(); ++d) {
    uncore_.push_back(kern::init_uncore(p.ladder));
    domain_traffic_mb_.push_back(0.0);
    domain_uncore_energy_j_.push_back(0.0);
    domain_stretch_time_s_.push_back(0.0);
  }
  core_.push_back(kern::init_core(p.core));
  gpu_.push_back(kern::init_gpu(p.gpu));
  traffic_mb_.push_back(0.0);
  rng_.emplace_back(noise_seed);
  lanes_.push_back(std::move(info));
  return index;
}

double LaneStore::total_pkg_energy_j(std::size_t lane) const {
  double e = 0.0;
  for (int s = 0; s < lanes_[lane].params.sockets; ++s) e += pkg_energy_j(lane, s);
  return e;
}

double LaneStore::total_dram_energy_j(std::size_t lane) const {
  double e = 0.0;
  for (int s = 0; s < lanes_[lane].params.sockets; ++s) e += dram_energy_j(lane, s);
  return e;
}

NodeModel::NodeModel(const SystemSpec& spec, std::uint64_t noise_seed) {
  store_.add_lane(spec, noise_seed);
}

TickOutput NodeModel::tick(common::Seconds now, double dt, const WorkSlice& slice,
                           double monitor_extra_w) {
  (void)now;
  OwnNoise noise;
  last_ = store_.tick(0, dt, slice, monitor_extra_w, noise);
  return last_;
}

double NodeModel::capacity_mbps() const {
  const kern::NodeParams& p = params();
  double cap = 0.0;
  for (int d = 0; d < p.domains(); ++d) {
    cap += kern::uncore_capacity_at(p.die, uncore(d).freq_ghz);
  }
  return cap;
}

}  // namespace magus::sim
