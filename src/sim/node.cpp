#include "magus/sim/node.hpp"

#include <string>
#include <utility>

#include "magus/common/error.hpp"
#include "magus/hw/msr.hpp"

namespace magus::sim {

std::size_t LaneStore::add_lane(const SystemSpec& spec) {
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
    socket_service_.emplace_back();
  }
  for (int d = 0; d < p.domains(); ++d) {
    uncore_.push_back(kern::init_uncore(p.ladder));
    domain_traffic_mb_.push_back(0.0);
    domain_uncore_energy_j_.push_back(0.0);
    domain_stretch_time_s_.push_back(0.0);
  }
  core_.push_back(kern::init_core(p.core));
  gpu_.push_back(kern::init_gpu(p.gpu));
  service_.emplace_back();
  traffic_mb_.push_back(0.0);
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

namespace {

/// Field copies between slot `k` of a LanePair pack and one lane's scalar.
struct ToSlot {
  int k;
  void operator()(kern::Pack2& pack, double lane) const { kern::set_slot(pack, k, lane); }
};
struct FromSlot {
  int k;
  void operator()(const kern::Pack2& pack, double& lane) const { lane = kern::slot(pack, k); }
};

// Every tick-state field of each kernel struct, listed once for both
// directions (P is the Pack2 form, S the double form, either side const).
// The memory-service memo's fields are left out (see LaneStore::load).
template <class P, class S, class Op>
void memo_fields(P& p, S& s, Op op) {
  op(p.arg, s.arg);
  op(p.value, s.value);
}
template <class P, class S, class Op>
void uncore_fields(P& p, S& s, Op op) {
  op(p.policy_limit_ghz, s.policy_limit_ghz);
  op(p.firmware_cap_ghz, s.firmware_cap_ghz);
  op(p.freq_ghz, s.freq_ghz);
}
template <class P, class S, class Op>
void firmware_fields(P& p, S& s, Op op) {
  op(p.cap_ghz, s.cap_ghz);
  op(p.hold_s, s.hold_s);
  memo_fields(p.on_ladder, s.on_ladder, op);
}
template <class P, class S, class Op>
void core_fields(P& p, S& s, Op op) {
  op(p.freq_ghz, s.freq_ghz);
  op(p.cycles, s.cycles);
  op(p.instructions, s.instructions);
  memo_fields(p.alpha, s.alpha, op);
}
template <class P, class S, class Op>
void gpu_fields(P& p, S& s, Op op) {
  op(p.clock_ghz, s.clock_ghz);
  op(p.power_w, s.power_w);
  op(p.energy_j, s.energy_j);
  memo_fields(p.alpha, s.alpha, op);
  memo_fields(p.boost, s.boost, op);
}

}  // namespace

LanePair::LanePair(const kern::NodeParams& params)
    : params_(params),
      firmware_(index(params.sockets)),
      pkg_energy_(index(params.sockets)),
      dram_energy_(index(params.sockets)),
      last_pkg_w_(index(params.sockets)),
      socket_service_(index(params.sockets)),
      uncore_(index(params.domains())),
      domain_traffic_mb_(index(params.domains())),
      domain_uncore_energy_(index(params.domains())),
      domain_stretch_time_(index(params.domains())) {}

template <class Store, class Pair, class Op>
void LaneStore::transfer(Store& store, Pair& pair, std::size_t lane, Op op) {
  const LaneInfo& info = store.lanes_[lane];
  for (std::size_t s = 0; s < pair.firmware_.size(); ++s) {
    const std::size_t i = info.socket_base + s;
    firmware_fields(pair.firmware_[s], store.firmware_[i], op);
    op(pair.pkg_energy_[s], store.pkg_energy_j_[i]);
    op(pair.dram_energy_[s], store.dram_energy_j_[i]);
    op(pair.last_pkg_w_[s], store.last_pkg_w_[i]);
  }
  for (std::size_t d = 0; d < pair.uncore_.size(); ++d) {
    const std::size_t i = info.domain_base + d;
    uncore_fields(pair.uncore_[d], store.uncore_[i], op);
    op(pair.domain_traffic_mb_[d], store.domain_traffic_mb_[i]);
    op(pair.domain_uncore_energy_[d], store.domain_uncore_energy_j_[i]);
    op(pair.domain_stretch_time_[d], store.domain_stretch_time_s_[i]);
  }
  core_fields(pair.core_, store.core_[lane], op);
  gpu_fields(pair.gpu_, store.gpu_[lane], op);
  op(pair.traffic_mb_, store.traffic_mb_[lane]);
}

void LaneStore::load(LanePair& pair, int slot, std::size_t lane) const {
  transfer(*this, pair, lane, ToSlot{slot});
}

void LaneStore::save(const LanePair& pair, int slot, std::size_t lane) {
  transfer(*this, pair, lane, FromSlot{slot});
}

NodeModel::NodeModel(const SystemSpec& spec, std::uint64_t noise_seed) : rng_(noise_seed) {
  store_.add_lane(spec);
}

TickOutput NodeModel::tick(common::Seconds now, double dt, const WorkSlice& slice,
                           double monitor_extra_w) {
  (void)now;
  const double jitter = rng_.jitter(kern::kTrafficNoiseRel);
  return store_.tick(0, dt, slice, monitor_extra_w, jitter);
}

}  // namespace magus::sim
