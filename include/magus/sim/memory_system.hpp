#pragma once
// Memory service model: given a demand and the uncore-dependent capacity,
// compute delivered throughput and the progress stretch factor.
//
// A phase with memory-bound fraction m and demand D against capacity C runs
// at rate 1 / ((1-m) + m * max(1, D/C)) -- the roofline-style slowdown that
// turns aggressive uncore scaling into the 21 % UNet runtime hit of Fig. 2.

#include <algorithm>

#include "magus/common/quantity.hpp"

namespace magus::sim {

struct MemoryService {
  common::Mbps delivered{0.0};  ///< instantaneous delivered traffic
  double stretch = 1.0;         ///< >= 1: progress slowdown factor
  double utilization = 0.0;     ///< delivered / capacity, in [0,1]
};

/// Inline: the simulator's tick kernel services every domain every tick.
[[nodiscard]] inline MemoryService service_memory(common::Mbps demand, common::Mbps capacity,
                                                  double mem_bound_frac) noexcept {
  MemoryService out;
  double demand_mbps = std::max(0.0, demand.value());
  const double capacity_mbps = capacity.value();
  mem_bound_frac = std::clamp(mem_bound_frac, 0.0, 1.0);
  if (capacity_mbps <= 0.0) {
    out.delivered = common::Mbps(0.0);
    out.stretch = 1.0;
    out.utilization = 0.0;
    return out;
  }
  const double delivered = std::min(demand_mbps, capacity_mbps);
  out.delivered = common::Mbps(delivered);
  const double overload = demand_mbps > capacity_mbps ? demand_mbps / capacity_mbps : 1.0;
  out.stretch = (1.0 - mem_bound_frac) + mem_bound_frac * overload;
  out.utilization = std::clamp(delivered / capacity_mbps, 0.0, 1.0);
  return out;
}

}  // namespace magus::sim
