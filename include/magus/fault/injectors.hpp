#pragma once
// Fault-injecting decorators over the hw backend interfaces.
//
// Each decorator wraps a real backend, consults a FaultPlan per operation,
// and either forwards the call, corrupts the result (sampler), or throws
// common::DeviceError (MSR) exactly as the real /dev/cpu/*/msr path would on
// a transient -EIO. Every injected fault is tallied in FaultStats so runs
// can report how much weather a node actually saw.

#include <cstdint>
#include <vector>

#include "magus/hw/counters.hpp"
#include "magus/hw/msr.hpp"
#include "magus/fault/plan.hpp"

namespace magus::fault {

/// Tally of operations seen and faults injected by the decorators of one
/// node. Plain counters; aggregate across nodes by summing fields.
struct FaultStats {
  std::uint64_t mem_reads = 0;
  std::uint64_t msr_reads = 0;
  std::uint64_t msr_writes = 0;

  std::uint64_t stale_samples = 0;
  std::uint64_t nan_samples = 0;
  std::uint64_t negative_samples = 0;
  std::uint64_t read_failures = 0;
  std::uint64_t write_failures = 0;
  std::uint64_t latency_spikes = 0;
  double latency_injected_s = 0.0;

  [[nodiscard]] std::uint64_t injected() const noexcept {
    return stale_samples + nan_samples + negative_samples + read_failures +
           write_failures + latency_spikes;
  }

  FaultStats& operator+=(const FaultStats& other) noexcept;
};

/// Decorates IMemThroughputCounter with stale / NaN / negative readings.
/// Good readings are remembered so a stale fault can replay the last one;
/// a stale fault before any good reading falls through to the real counter
/// (there is nothing to be stale relative to) but is still tallied.
class FaultyMemThroughputCounter final : public hw::IMemThroughputCounter {
 public:
  FaultyMemThroughputCounter(hw::IMemThroughputCounter& inner, const FaultPlan& plan,
                             FaultStats& stats) noexcept
      : inner_(inner), plan_(plan), stats_(stats) {}

  [[nodiscard]] double total_mb() override;
  /// Per-domain reads share the node's fault schedule (one op index stream)
  /// but replay stale values per domain.
  [[nodiscard]] double domain_mb(int domain) override;

 private:
  hw::IMemThroughputCounter& inner_;
  const FaultPlan& plan_;
  FaultStats& stats_;
  std::uint64_t op_index_ = 0;
  double last_good_mb_ = 0.0;
  bool have_last_good_ = false;
  std::vector<double> domain_last_good_mb_;
  std::vector<bool> domain_have_last_good_;
};

/// Decorates IMsrDevice with read/write failures (thrown as
/// common::DeviceError) and latency spikes (tallied, op still succeeds).
class FaultyMsrDevice final : public hw::IMsrDevice {
 public:
  FaultyMsrDevice(hw::IMsrDevice& inner, const FaultPlan& plan,
                  FaultStats& stats) noexcept
      : inner_(inner), plan_(plan), stats_(stats) {}

  [[nodiscard]] int socket_count() const override { return inner_.socket_count(); }
  [[nodiscard]] std::uint64_t read(int socket, std::uint32_t reg) override;
  void write(int socket, std::uint32_t reg, std::uint64_t value) override;

 private:
  hw::IMsrDevice& inner_;
  const FaultPlan& plan_;
  FaultStats& stats_;
  std::uint64_t read_index_ = 0;
  std::uint64_t write_index_ = 0;
};

}  // namespace magus::fault
