#pragma once
// MagusRuntime: the deployable MAGUS policy.
//
// Binds the MDFS controller (Algorithm 3) to hardware: one PCM-style
// memory-throughput read per monitoring cycle in, MSR 0x620 max-ratio
// writes out. This is the entire per-cycle hardware footprint -- the reason
// MAGUS's overheads undercut per-core-counter methods (paper Table 2).

#include <cstddef>
#include <cstdint>
#include <functional>
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
class Event;
class EventLog;
class Gauge;
class MetricsRegistry;
}  // namespace magus::telemetry

namespace magus::core {

class MagusRuntime final : public IPolicy {
 public:
  /// `domains` (optional): a set exposing more than one uncore domain gives
  /// each domain its own MDFS controller, fed by the domain's throughput
  /// (IMemThroughputCounter::domain_mb) and written through the set.
  /// Otherwise the whole node is the one domain (hw::UncoreDomains): one
  /// aggregate counter read and one MSR 0x620 burst per cycle, the paper's
  /// loop.
  MagusRuntime(hw::IMemThroughputCounter& mem_counter, hw::IMsrDevice& msr,
               const hw::UncoreFreqLadder& ladder, MagusConfig cfg = {},
               hw::IUncoreDomainSet* domains = nullptr);

  [[nodiscard]] std::string name() const override { return "magus"; }
  [[nodiscard]] double period_s() const override { return cfg_.period.value(); }

  /// Sets the uncore to max (the paper's initial condition) and primes the
  /// throughput counter.
  void on_start(common::Seconds now) override;

  /// One monitoring cycle over every domain. The sample→decide core (reads,
  /// validation, MDFS) runs inside a lock-free HotPathSection
  /// (compiler-checked under -Wthread-safety: acquiring any AnnotatedMutex
  /// there is a compile error); event emission, retrying MSR writes, and
  /// backoff sleeps happen after the section.
  void on_sample(common::Seconds now) override;

  /// Domain 0's controller: the node's own on a whole-node run.
  [[nodiscard]] const MdfsController& controller() const noexcept { return mdfs_.front(); }
  [[nodiscard]] const MagusConfig& config() const noexcept { return cfg_; }

  /// Last computed throughput, summed over domains, for diagnostics.
  [[nodiscard]] common::Mbps last_throughput() const noexcept { return last_throughput_; }

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
  /// What one cycle's sweep did with a domain's reading.
  enum class Step : unsigned char { kSkip, kHold, kDecide };

  /// Read every domain's cumulative baseline, stopping at the first
  /// rejected read; returns that domain, or the domain count once primed.
  std::size_t prime(common::Seconds now);
  /// Read, validate and decide one domain (the hot-path half of a cycle).
  Step sample_domain(common::Seconds now, std::size_t domain);
  /// Count a rejected reading; `announce` also emits `sample_rejected`.
  void reject_sample(common::Seconds now, std::size_t domain, bool announce);
  /// Bounded-retry limit write; exhaustion feeds the degradation counter.
  void write_limit(std::size_t domain, common::Ghz ghz, common::Seconds now);
  void enter_degraded(common::Seconds now);
  /// Telemetry for one domain's decision this cycle.
  void note_domain(common::Seconds now, std::size_t domain);
  /// An event that names its domain, except on a whole-node run.
  [[nodiscard]] telemetry::Event domain_event(common::Seconds now, const char* type,
                                              std::size_t domain) const;

  hw::IMemThroughputCounter& mem_counter_;
  hw::UncoreDomains domains_;
  MagusConfig cfg_;
  bool primed_ = false;
  common::Mbps last_throughput_{0.0};

  // Per domain: the MDFS controller, the cumulative counter baseline and
  // its timestamp, and the last good throughput. A domain whose read fails
  // validation holds its own last good throughput; siblings proceed.
  std::vector<MdfsController> mdfs_;
  std::vector<double> prev_mb_;
  std::vector<double> prev_t_;
  std::vector<common::Mbps> throughput_;
  // Per-cycle scratch, filled inside the hot-path section.
  std::vector<Step> step_;
  std::vector<std::optional<common::Ghz>> target_;

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
  // Per-domain series (magus_uncore_domain<k>_*) of a multi-domain set,
  // sized at attach time.
  std::vector<telemetry::Gauge*> m_domain_target_;
  std::vector<telemetry::Gauge*> m_domain_throughput_;
  std::vector<unsigned char> last_hf_;  ///< per domain, as last noted
};

}  // namespace magus::core
