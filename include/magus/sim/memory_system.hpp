#pragma once
// Memory service model: given a demand and the uncore-dependent capacity,
// compute delivered throughput and the progress stretch factor.
//
// A phase with memory-bound fraction m and demand D against capacity C runs
// at rate 1 / ((1-m) + m * max(1, D/C)) -- the roofline-style slowdown that
// turns aggressive uncore scaling into the 21 % UNet runtime hit of Fig. 2.

#include "magus/common/quantity.hpp"
#include "magus/sim/pack.hpp"

namespace magus::sim {

/// One tick's memory service, per lane value V (sim/pack.hpp).
template <class V>
struct BasicMemoryService {
  V delivered{};                    ///< instantaneous delivered traffic (MB/s)
  V stretch = kern::splat<V>(1.0);  ///< >= 1: progress slowdown factor
  V utilization{};                  ///< delivered / capacity, in [0,1]
};

struct MemoryService {
  common::Mbps delivered{0.0};  ///< instantaneous delivered traffic
  double stretch = 1.0;         ///< >= 1: progress slowdown factor
  double utilization = 0.0;     ///< delivered / capacity, in [0,1]
};

// magus:hot-path-begin
/// The service model on raw MB/s, width-generic for the tick kernel
/// (sim/kernel.hpp): a capacity <= 0 delivers nothing and never stretches.
/// Inline: the kernel services every domain every tick.
template <class V>
[[nodiscard]] inline BasicMemoryService<V> service_memory(V demand, V capacity,
                                                          V mem_bound_frac) noexcept {
  using namespace kern;
  const V zero = splat<V>(0.0);
  const V one = splat<V>(1.0);
  const V wanted = vmax(zero, demand);
  mem_bound_frac = vclamp(mem_bound_frac, zero, one);
  const V delivered = vmin(wanted, capacity);
  const V overload = sel(wanted > capacity, wanted / capacity, one);
  const V stretch = (1.0 - mem_bound_frac) + mem_bound_frac * overload;
  const V utilization = vclamp(delivered / capacity, zero, one);
  const auto serving = mnot(capacity <= 0.0);
  return {sel(serving, delivered, zero), sel(serving, stretch, one),
          sel(serving, utilization, zero)};
}
// magus:hot-path-end

[[nodiscard]] inline MemoryService service_memory(common::Mbps demand, common::Mbps capacity,
                                                  double mem_bound_frac) noexcept {
  const BasicMemoryService<double> s =
      service_memory(demand.value(), capacity.value(), mem_bound_frac);
  return {common::Mbps(s.delivered), s.stretch, s.utilization};
}

}  // namespace magus::sim
