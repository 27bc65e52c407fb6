#pragma once
// Per-node simulator state: the struct-of-arrays lane storage every engine
// ticks, NodeModel, its one-lane form, and LanePair, two lanes' state packed
// for the two-wide tick.
//
// A LaneStore holds N independent nodes ("lanes") -- sockets (core + uncore
// + DRAM), GPUs, the stock firmware governor, and the cumulative counters the
// hw backends expose to runtimes. Each quantity is one flat vector: per-lane
// state is indexed by lane, per-socket state by [socket_base + socket], and
// per-domain state by [domain_base + domain], socket-major. The per-tick
// arithmetic is kern::node_tick (sim/kernel.hpp): LaneStore::tick runs it at
// width 1 over this layout, LanePair::tick at width 2 over a pair of lanes
// loaded from it. BatchEngine drives many lanes of one store; NodeModel (and
// so SimEngine) owns a store with exactly one lane. The hw backends
// (sim/backends.hpp) read and write the store, never a LanePair.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "magus/common/quantity.hpp"
#include "magus/common/rng.hpp"
#include "magus/sim/kernel.hpp"
#include "magus/sim/system_preset.hpp"

namespace magus::sim {

/// Counts hardware accesses made by a runtime during one invocation.
struct AccessMeter {
  unsigned long long msr_reads = 0;
  unsigned long long msr_writes = 0;
  unsigned long long pcm_reads = 0;

  void reset() noexcept { *this = AccessMeter{}; }
};

class LanePair;

class LaneStore {
 public:
  /// Append one node in its power-on state; returns its lane index. Throws
  /// common::ConfigError for an invalid domain layout (dies_per_socket < 1,
  /// numa_skew outside [0, 1), more than kern::kMaxDomains domains). Any
  /// reference into the store is invalidated.
  std::size_t add_lane(const SystemSpec& spec);

  [[nodiscard]] std::size_t lane_count() const noexcept { return lanes_.size(); }

  /// Advance `lane` by dt under `slice`; `monitor_extra_w` is the power of an
  /// actively executing monitoring runtime (lands on socket 0), and `jitter`
  /// is the tick's draw from the lane's noise stream (a common::Rng on the
  /// lane's seed, held by what drives the lane: NodeModel or BatchEngine's
  /// sweep). Inline so the engines' tick loops compile the kernel in place.
  // magus:hot-path-begin
  TickOutput tick(std::size_t lane, double dt, const WorkSlice& slice, double monitor_extra_w,
                  double jitter) {
    const LaneInfo& info = lanes_[lane];
    const View view{*this, lane, info.socket_base, info.domain_base};
    return kern::node_tick(view, info.params, dt, slice, monitor_extra_w, jitter);
  }
  // magus:hot-path-end

  /// Copy `lane`'s tick state into slot `slot` of `pair`, or back. The pair
  /// must have been built for the lane's NodeParams. The memory-service memo
  /// stays behind: each side's memo holds values that are pure functions of
  /// its own key, so either side may go on with it.
  void load(LanePair& pair, int slot, std::size_t lane) const;
  void save(const LanePair& pair, int slot, std::size_t lane);

  [[nodiscard]] const kern::NodeParams& params(std::size_t lane) const {
    return lanes_[lane].params;
  }
  [[nodiscard]] int core_count(std::size_t lane) const { return lanes_[lane].cores; }
  /// Hardware accesses the lane's backends have served so far.
  [[nodiscard]] AccessMeter& meter(std::size_t lane) { return lanes_[lane].meter; }
  [[nodiscard]] const AccessMeter& meter(std::size_t lane) const {
    return lanes_[lane].meter;
  }

  [[nodiscard]] kern::UncoreState& uncore(std::size_t lane, int domain) {
    return uncore_[lanes_[lane].domain_base + static_cast<std::size_t>(domain)];
  }
  [[nodiscard]] const kern::UncoreState& uncore(std::size_t lane, int domain) const {
    return uncore_[lanes_[lane].domain_base + static_cast<std::size_t>(domain)];
  }
  /// The lane's memory-service memo (see kern::BasicServiceMemo).
  [[nodiscard]] kern::ServiceMemo& service(std::size_t lane) { return service_[lane]; }
  [[nodiscard]] const kern::CoreState& core(std::size_t lane) const { return core_[lane]; }
  [[nodiscard]] const kern::GpuState& gpu(std::size_t lane) const { return gpu_[lane]; }
  /// Last value written to MSR 0x620 on `socket` (power-on: the full ladder).
  [[nodiscard]] std::uint64_t& raw_0x620(std::size_t lane, int socket) {
    return raw_0x620_[socket_slot(lane, socket)];
  }

  /// Cumulative DRAM traffic (MB) -- what the PCM-style counter reports.
  [[nodiscard]] double traffic_mb(std::size_t lane) const { return traffic_mb_[lane]; }
  /// Per-domain cumulative DRAM traffic (MB).
  [[nodiscard]] double domain_traffic_mb(std::size_t lane, int domain) const {
    return domain_traffic_mb_[domain_slot(lane, domain)];
  }
  /// Per-domain cumulative uncore energy (J) -- per-domain joules-saved.
  [[nodiscard]] double domain_uncore_energy_j(std::size_t lane, int domain) const {
    return domain_uncore_energy_j_[domain_slot(lane, domain)];
  }
  /// Per-domain integral of the memory stretch factor over sim time (s).
  [[nodiscard]] double domain_stretch_time_s(std::size_t lane, int domain) const {
    return domain_stretch_time_s_[domain_slot(lane, domain)];
  }
  [[nodiscard]] double pkg_energy_j(std::size_t lane, int socket) const {
    return pkg_energy_j_[socket_slot(lane, socket)];
  }
  [[nodiscard]] double dram_energy_j(std::size_t lane, int socket) const {
    return dram_energy_j_[socket_slot(lane, socket)];
  }
  /// The socket's firmware governor state (cap, dwell, ladder memo).
  [[nodiscard]] const kern::FirmwareState& firmware(std::size_t lane, int socket) const {
    return firmware_[socket_slot(lane, socket)];
  }
  /// The socket's part of the memory-service memo.
  [[nodiscard]] const kern::SocketService& socket_service(std::size_t lane, int socket) const {
    return socket_service_[socket_slot(lane, socket)];
  }
  /// Package power of the socket's last tick, the firmware's next input.
  [[nodiscard]] double last_pkg_w(std::size_t lane, int socket) const {
    return last_pkg_w_[socket_slot(lane, socket)];
  }
  [[nodiscard]] double total_pkg_energy_j(std::size_t lane) const;
  [[nodiscard]] double total_dram_energy_j(std::size_t lane) const;

 private:
  struct LaneInfo {
    kern::NodeParams params;
    std::size_t socket_base = 0;  ///< first index into the per-socket arrays
    std::size_t domain_base = 0;  ///< first index into the per-domain arrays
    int cores = 0;
    AccessMeter meter;
  };
  /// Lane view for kern::node_tick. Per-socket state resolves through the
  /// lane's socket base, per-domain state through its domain base, per-lane
  /// state through the lane index.
  struct View {
    LaneStore& s;
    std::size_t lane;
    std::size_t base;
    std::size_t dbase;

    [[nodiscard]] kern::UncoreState& uncore(int d) const {
      return s.uncore_[dbase + static_cast<std::size_t>(d)];
    }
    [[nodiscard]] kern::FirmwareState& firmware(int k) const {
      return s.firmware_[base + static_cast<std::size_t>(k)];
    }
    [[nodiscard]] kern::CoreState& core() const { return s.core_[lane]; }
    [[nodiscard]] kern::GpuState& gpu() const { return s.gpu_[lane]; }
    [[nodiscard]] kern::ServiceMemo& service() const { return s.service_[lane]; }
    [[nodiscard]] kern::SocketService& socket_service(int k) const {
      return s.socket_service_[base + static_cast<std::size_t>(k)];
    }
    [[nodiscard]] double& pkg_energy(int k) const {
      return s.pkg_energy_j_[base + static_cast<std::size_t>(k)];
    }
    [[nodiscard]] double& dram_energy(int k) const {
      return s.dram_energy_j_[base + static_cast<std::size_t>(k)];
    }
    [[nodiscard]] double& last_pkg_w(int k) const {
      return s.last_pkg_w_[base + static_cast<std::size_t>(k)];
    }
    [[nodiscard]] double& traffic_mb() const { return s.traffic_mb_[lane]; }
    [[nodiscard]] double& domain_traffic_mb(int d) const {
      return s.domain_traffic_mb_[dbase + static_cast<std::size_t>(d)];
    }
    [[nodiscard]] double& domain_uncore_energy(int d) const {
      return s.domain_uncore_energy_j_[dbase + static_cast<std::size_t>(d)];
    }
    [[nodiscard]] double& domain_stretch_time(int d) const {
      return s.domain_stretch_time_s_[dbase + static_cast<std::size_t>(d)];
    }
  };

  /// Applies `op(pack_field, lane_field)` to every tick-state field of
  /// `lane` and its counterpart in `pair`; load and save are its two uses.
  template <class Store, class Pair, class Op>
  static void transfer(Store& store, Pair& pair, std::size_t lane, Op op);

  [[nodiscard]] std::size_t socket_slot(std::size_t lane, int socket) const {
    return lanes_[lane].socket_base + static_cast<std::size_t>(socket);
  }
  [[nodiscard]] std::size_t domain_slot(std::size_t lane, int domain) const {
    return lanes_[lane].domain_base + static_cast<std::size_t>(domain);
  }

  std::vector<LaneInfo> lanes_;
  // Per-socket.
  std::vector<kern::FirmwareState> firmware_;
  std::vector<double> pkg_energy_j_;
  std::vector<double> dram_energy_j_;
  std::vector<double> last_pkg_w_;
  std::vector<std::uint64_t> raw_0x620_;
  std::vector<kern::SocketService> socket_service_;
  // Per-domain (one entry per socket on single-die parts).
  std::vector<kern::UncoreState> uncore_;
  std::vector<double> domain_traffic_mb_;
  std::vector<double> domain_uncore_energy_j_;
  std::vector<double> domain_stretch_time_s_;
  // Per-lane.
  std::vector<kern::CoreState> core_;
  std::vector<kern::GpuState> gpu_;
  std::vector<kern::ServiceMemo> service_;
  std::vector<double> traffic_mb_;
};

/// Two lanes' tick state, slot k of every kern::Pack2 holding lane k's
/// value: the kern::node_tick Lane that BatchEngine ticks two lanes at a time
/// with. Both lanes share one NodeParams (their packs tick one body); dt,
/// slice, monitor power and jitter are per slot. Fill it with
/// LaneStore::load and write it back with LaneStore::save.
class LanePair {
 public:
  using Pack2 = kern::Pack2;

  explicit LanePair(const kern::NodeParams& params);

  // magus:hot-path-begin
  /// Advance both slots by one tick, slot k on jitter[k] (its own seed's
  /// draw: the two slots may tick on different noise streams).
  BasicTickOutput<Pack2> tick(Pack2 dt, const BasicWorkSlice<Pack2>& slice,
                              Pack2 monitor_extra_w, Pack2 jitter) {
    return kern::node_tick(*this, params_, dt, slice, monitor_extra_w, jitter);
  }

  // The kern::node_tick Lane accessors.
  [[nodiscard]] kern::BasicUncoreState<Pack2>& uncore(int d) { return uncore_[index(d)]; }
  [[nodiscard]] kern::BasicFirmwareState<Pack2>& firmware(int s) {
    return firmware_[index(s)];
  }
  [[nodiscard]] kern::BasicCoreState<Pack2>& core() { return core_; }
  [[nodiscard]] kern::BasicGpuState<Pack2>& gpu() { return gpu_; }
  [[nodiscard]] kern::BasicServiceMemo<Pack2>& service() { return service_; }
  [[nodiscard]] kern::BasicSocketService<Pack2>& socket_service(int s) {
    return socket_service_[index(s)];
  }
  [[nodiscard]] Pack2& pkg_energy(int s) { return pkg_energy_[index(s)]; }
  [[nodiscard]] Pack2& dram_energy(int s) { return dram_energy_[index(s)]; }
  [[nodiscard]] Pack2& last_pkg_w(int s) { return last_pkg_w_[index(s)]; }
  [[nodiscard]] Pack2& traffic_mb() { return traffic_mb_; }
  [[nodiscard]] Pack2& domain_traffic_mb(int d) { return domain_traffic_mb_[index(d)]; }
  [[nodiscard]] Pack2& domain_uncore_energy(int d) { return domain_uncore_energy_[index(d)]; }
  [[nodiscard]] Pack2& domain_stretch_time(int d) { return domain_stretch_time_[index(d)]; }
  // magus:hot-path-end

 private:
  friend class LaneStore;

  static std::size_t index(int i) { return static_cast<std::size_t>(i); }

  kern::NodeParams params_;
  // Per-socket.
  std::vector<kern::BasicFirmwareState<Pack2>> firmware_;
  std::vector<Pack2> pkg_energy_;
  std::vector<Pack2> dram_energy_;
  std::vector<Pack2> last_pkg_w_;
  std::vector<kern::BasicSocketService<Pack2>> socket_service_;
  // Per-domain.
  std::vector<kern::BasicUncoreState<Pack2>> uncore_;
  std::vector<Pack2> domain_traffic_mb_;
  std::vector<Pack2> domain_uncore_energy_;
  std::vector<Pack2> domain_stretch_time_;
  // Per-lane.
  kern::BasicCoreState<Pack2> core_;
  kern::BasicGpuState<Pack2> gpu_;
  kern::BasicServiceMemo<Pack2> service_;
  Pack2 traffic_mb_{};
};

/// One simulated node: a single-lane LaneStore, its noise stream, and its
/// last tick output.
class NodeModel {
 public:
  NodeModel(const SystemSpec& spec, std::uint64_t noise_seed);

  /// The node's noise stream, seeded with `noise_seed`: each tick's jitter,
  /// in NodeModel::tick and in SimEngine::run, is its next draw.
  [[nodiscard]] common::Rng& noise() noexcept { return rng_; }

  /// Advance the node by dt under `slice`; `monitor_extra_w` is the power of
  /// an actively executing monitoring runtime (lands on socket 0).
  TickOutput tick(common::Seconds now, double dt, const WorkSlice& slice,
                  double monitor_extra_w);

  [[nodiscard]] const kern::NodeParams& params() const { return store_.params(0); }
  /// The storage the node's hw backends bind to (lane 0).
  [[nodiscard]] LaneStore& store() noexcept { return store_; }

  [[nodiscard]] int socket_count() const { return params().sockets; }
  /// Index is a *domain* (socket-major: socket * dies_per_socket + die);
  /// with one die per socket it coincides with the socket index.
  [[nodiscard]] kern::UncoreState& uncore(int domain) { return store_.uncore(0, domain); }
  [[nodiscard]] const kern::UncoreState& uncore(int domain) const {
    return store_.uncore(0, domain);
  }
  [[nodiscard]] const kern::CoreState& cores() const { return store_.core(0); }
  [[nodiscard]] const kern::GpuState& gpu() const { return store_.gpu(0); }

  [[nodiscard]] double total_traffic_mb() const { return store_.traffic_mb(0); }
  [[nodiscard]] double pkg_energy_j(int socket) const {
    return store_.pkg_energy_j(0, socket);
  }
  [[nodiscard]] double dram_energy_j(int socket) const {
    return store_.dram_energy_j(0, socket);
  }
  [[nodiscard]] double total_pkg_energy_j() const { return store_.total_pkg_energy_j(0); }
  [[nodiscard]] double total_dram_energy_j() const { return store_.total_dram_energy_j(0); }

 private:
  LaneStore store_;
  common::Rng rng_;
};

}  // namespace magus::sim
