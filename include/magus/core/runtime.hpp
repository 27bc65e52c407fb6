#pragma once
// MagusRuntime: the deployable MAGUS policy.
//
// Binds the MDFS controller (Algorithm 3) to hardware: one PCM-style
// memory-throughput read per monitoring cycle in, MSR 0x620 max-ratio
// writes out. This is the entire per-cycle hardware footprint -- the reason
// MAGUS's overheads undercut per-core-counter methods (paper Table 2).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "magus/core/config.hpp"
#include "magus/core/mdfs.hpp"
#include "magus/core/policy.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/uncore_domain.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::telemetry {
class Counter;
class EventLog;
class Gauge;
class MetricsRegistry;
}  // namespace magus::telemetry

namespace magus::core {

class MagusRuntime final : public IPolicy {
 public:
  /// `domains` (optional) enables per-domain control: when it exposes more
  /// than one uncore domain, the runtime runs one MDFS controller per domain
  /// fed by per-domain throughput (IMemThroughputCounter::domain_mb) and
  /// writes each domain's limit through the set. Null or a one-domain set
  /// keeps the legacy node-level loop bit-identical to the seed.
  MagusRuntime(hw::IMemThroughputCounter& mem_counter, hw::IMsrDevice& msr,
               const hw::UncoreFreqLadder& ladder, MagusConfig cfg = {},
               hw::IUncoreDomainSet* domains = nullptr);

  [[nodiscard]] std::string name() const override { return "magus"; }
  [[nodiscard]] double period_s() const override { return cfg_.period.value(); }

  /// Sets the uncore to max (the paper's initial condition) and primes the
  /// throughput counter.
  void on_start(common::Seconds now) override;

  /// One monitoring cycle. The node-level sample→decide core runs inside a
  /// lock-free HotPathSection (compiler-checked under -Wthread-safety:
  /// acquiring any AnnotatedMutex there is a compile error); event emission,
  /// retrying MSR writes, and backoff sleeps happen outside the section.
  /// Per-domain mode (sample_domains) interleaves event emission with its
  /// domain sweep and is not yet section-wrapped — moving its emissions to
  /// an SPSC ring is the ROADMAP bounded-latency follow-up.
  void on_sample(common::Seconds now) override;

  [[nodiscard]] const MdfsController& controller() const noexcept { return *mdfs_; }
  [[nodiscard]] const MagusConfig& config() const noexcept { return cfg_; }

  /// Last computed throughput, for diagnostics. In per-domain mode this is
  /// the sum over domains.
  [[nodiscard]] common::Mbps last_throughput() const noexcept { return last_throughput_; }

  /// Domains under independent control (1 in node-level mode).
  [[nodiscard]] int domain_count() const noexcept {
    return domains_ ? static_cast<int>(domain_mdfs_.size()) : 1;
  }
  /// Per-domain controller (valid indices: [0, domain_count()); in
  /// node-level mode domain 0 aliases controller()).
  [[nodiscard]] const MdfsController& domain_controller(int domain) const {
    return domains_ ? *domain_mdfs_[static_cast<std::size_t>(domain)] : *mdfs_;
  }
  /// Last per-domain throughput (node total in node-level mode).
  [[nodiscard]] common::Mbps domain_throughput(int domain) const noexcept {
    return domains_ ? domain_throughput_[static_cast<std::size_t>(domain)]
                    : last_throughput_;
  }

  /// True once repeated MSR-write failures exhausted the retry budget
  /// `resilience.max_consecutive_failures` times in a row: the uncore has
  /// been released to the ladder maximum (firmware default) and the runtime
  /// keeps monitoring but issues no further writes.
  [[nodiscard]] bool degraded() const noexcept override { return degraded_; }

  /// Samples rejected by validation (NaN / negative / counter moved
  /// backwards / read threw). Each held the previous good throughput.
  [[nodiscard]] std::uint64_t bad_samples() const noexcept { return bad_samples_; }

  /// Individual MSR write bursts that failed (before retry accounting).
  [[nodiscard]] std::uint64_t msr_write_failures() const noexcept {
    return write_failures_;
  }

  /// Install a hook invoked with each retry backoff delay. The simulator
  /// leaves this unset (virtual time must not stall); the daemon installs a
  /// real sleep. Must be set before on_start.
  void set_backoff_sleeper(std::function<void(common::Seconds)> sleeper) {
    backoff_sleeper_ = std::move(sleeper);
  }

  /// Register the runtime/MDFS series on `reg` (magus_runtime_* and
  /// magus_mdfs_*) and optionally emit discrete events (uncore_retarget,
  /// high_freq_enter/exit) into `events`. Call before on_start; both must
  /// outlive the runtime. Without this call the runtime stays at its no-op
  /// NullRegistry default: one branch per sample, nothing recorded.
  void attach_telemetry(telemetry::MetricsRegistry& reg,
                        telemetry::EventLog* events = nullptr);

 private:
  void note_sample(common::Seconds now, const std::optional<common::Ghz>& target);
  /// Bounded-retry MSR write; exhaustion feeds the degradation counter.
  void write_uncore(common::Ghz ghz, common::Seconds now);
  /// Bounded-retry per-domain limit write (per-domain mode's write_uncore).
  void write_domain(int domain, common::Ghz ghz, common::Seconds now);
  /// A sample failed validation: keep cadence on the last good throughput.
  void hold_last_good(common::Seconds now);
  void enter_degraded(common::Seconds now);
  void start_domains(common::Seconds now);
  void sample_domains(common::Seconds now);

  hw::IMemThroughputCounter& mem_counter_;
  hw::IMsrDevice& msr_;
  hw::UncoreFreqController uncore_;
  MagusConfig cfg_;
  std::unique_ptr<MdfsController> mdfs_;
  bool primed_ = false;
  double prev_mb_ = 0.0;
  double prev_t_ = 0.0;
  common::Mbps last_throughput_{0.0};

  // Per-domain mode (domains_ non-null): one controller and one cumulative
  // counter baseline per domain. A domain whose read fails validation holds
  // its own last good throughput; siblings proceed normally.
  hw::IUncoreDomainSet* domains_ = nullptr;
  std::vector<std::unique_ptr<MdfsController>> domain_mdfs_;
  std::vector<double> domain_prev_mb_;
  std::vector<common::Mbps> domain_throughput_;

  // Degradation ladder state (DESIGN.md §11).
  bool degraded_ = false;
  int consecutive_write_failures_ = 0;
  std::uint64_t bad_samples_ = 0;
  std::uint64_t write_failures_ = 0;
  std::function<void(common::Seconds)> backoff_sleeper_;

  // Telemetry handles; all nullptr until attach_telemetry.
  telemetry::EventLog* events_ = nullptr;
  telemetry::Counter* m_samples_ = nullptr;
  telemetry::Counter* m_tuning_events_ = nullptr;
  telemetry::Counter* m_hf_phases_ = nullptr;
  telemetry::Counter* m_pred_increase_ = nullptr;
  telemetry::Counter* m_pred_decrease_ = nullptr;
  telemetry::Counter* m_pred_stable_ = nullptr;
  telemetry::Gauge* m_throughput_ = nullptr;
  telemetry::Gauge* m_derivative_ = nullptr;
  telemetry::Gauge* m_target_ghz_ = nullptr;
  telemetry::Gauge* m_temporary_ghz_ = nullptr;
  telemetry::Gauge* m_hf_active_ = nullptr;
  telemetry::Counter* m_sample_errors_ = nullptr;
  telemetry::Counter* m_msr_failures_ = nullptr;
  telemetry::Counter* m_msr_retries_ = nullptr;
  telemetry::Gauge* m_degraded_ = nullptr;
  // Per-domain series (magus_uncore_domain<k>_*), sized at attach time.
  std::vector<telemetry::Gauge*> m_domain_target_;
  std::vector<telemetry::Gauge*> m_domain_throughput_;
  bool last_hf_ = false;
};

}  // namespace magus::core
