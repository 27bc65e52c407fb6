#include "magus/core/runtime.hpp"

#include <cmath>
#include <cstddef>
#include <string>

#include "magus/common/error.hpp"
#include "magus/common/thread_annotations.hpp"
#include "magus/telemetry/event_log.hpp"
#include "magus/telemetry/registry.hpp"

namespace magus::core {

MagusRuntime::MagusRuntime(hw::IMemThroughputCounter& mem_counter, hw::IMsrDevice& msr,
                           const hw::UncoreFreqLadder& ladder, MagusConfig cfg,
                           hw::IUncoreDomainSet* domains)
    : mem_counter_(mem_counter), domains_(domains, msr, ladder), cfg_(cfg) {
  cfg_.validate();
  const std::size_t n = domains_.size();
  mdfs_.assign(n, MdfsController(cfg_, common::Ghz(ladder.min_ghz()),
                                 common::Ghz(ladder.max_ghz())));
  prev_mb_.assign(n, 0.0);
  prev_t_.assign(n, 0.0);
  throughput_.assign(n, common::Mbps(0.0));
  step_.assign(n, Step::kSkip);
  target_.assign(n, std::nullopt);
  last_hf_.assign(n, 0);
}

void MagusRuntime::attach_telemetry(telemetry::MetricsRegistry& reg,
                                    telemetry::EventLog* events) {
  events_ = events;
  m_samples_ = reg.counter("magus_runtime_samples_total",
                           "Throughput samples processed by the control loop");
  m_throughput_ = reg.gauge("magus_runtime_throughput_mbps",
                            "Last observed memory throughput");
  m_target_ghz_ = reg.gauge("magus_runtime_uncore_target_ghz",
                            "Currently executed uncore max-frequency target");
  m_tuning_events_ = reg.counter("magus_mdfs_tuning_events_total",
                                 "Executed uncore retargets (frequency actually changed)");
  m_hf_phases_ = reg.counter("magus_mdfs_high_freq_phases_total",
                             "High-frequency phase entries (Algorithm 2)");
  m_hf_active_ = reg.gauge("magus_mdfs_high_freq_active",
                           "1 while high-frequency status holds, else 0");
  m_temporary_ghz_ = reg.gauge("magus_mdfs_temporary_target_ghz",
                               "Prediction-phase temporary decision");
  m_derivative_ = reg.gauge("magus_mdfs_derivative_mbps",
                            "Windowed throughput derivative feeding the trend prediction");
  m_pred_increase_ = reg.counter("magus_mdfs_predictions_increase_total",
                                 "Rounds predicting a throughput increase");
  m_pred_decrease_ = reg.counter("magus_mdfs_predictions_decrease_total",
                                 "Rounds predicting a throughput decrease");
  m_pred_stable_ = reg.counter("magus_mdfs_predictions_stable_total",
                               "Rounds predicting stable throughput");
  m_sample_errors_ = reg.counter("magus_runtime_sample_errors_total",
                                 "Samples rejected by validation (NaN/negative/read error)");
  m_msr_failures_ = reg.counter("magus_runtime_msr_failures_total",
                                "MSR write bursts that threw DeviceError");
  m_msr_retries_ = reg.counter("magus_runtime_msr_retries_total",
                               "Retry attempts after a failed MSR write burst");
  m_degraded_ = reg.gauge("magus_runtime_degraded",
                          "1 once the runtime released the uncore after repeated "
                          "failures, else 0");
  if (!domains_.whole_node()) {
    const auto n = mdfs_.size();
    m_domain_target_.resize(n, nullptr);
    m_domain_throughput_.resize(n, nullptr);
    for (std::size_t d = 0; d < n; ++d) {
      const std::string k = std::to_string(d);
      m_domain_target_[d] =
          reg.gauge("magus_uncore_domain" + k + "_target_ghz",
                    "Executed uncore max-frequency target for domain " + k);
      m_domain_throughput_[d] =
          reg.gauge("magus_uncore_domain" + k + "_throughput_mbps",
                    "Last observed memory throughput attributed to domain " + k);
    }
  }
  domains_.attach_telemetry(reg);
}

void MagusRuntime::on_start(common::Seconds now) {
  const common::Ghz max{domains_.ladder().max_ghz()};
  if (cfg_.scaling_enabled && !degraded_) {
    for (std::size_t d = 0; d < mdfs_.size(); ++d) write_limit(d, max, now);
  }
  telemetry::set(m_target_ghz_, max.value());
  // A failed priming read leaves the runtime unprimed, so the first valid
  // on_sample primes.
  const std::size_t bad = prime(now);
  if (bad < mdfs_.size()) reject_sample(now, bad, /*announce=*/false);
}

std::size_t MagusRuntime::prime(common::Seconds now) {
  primed_ = false;
  for (std::size_t d = 0; d < mdfs_.size(); ++d) {
    double mb = 0.0;
    try {
      mb = domains_.read_mb(mem_counter_, d);
    } catch (const common::DeviceError&) {
      return d;
    }
    if (!std::isfinite(mb) || mb < 0.0) return d;
    prev_mb_[d] = mb;
    prev_t_[d] = now.value();
  }
  primed_ = true;
  return mdfs_.size();
}

void MagusRuntime::on_sample(common::Seconds now) {
  const std::size_t n = mdfs_.size();
  if (!primed_) {
    // Re-prime: identical to the start sweep, no decisions this round.
    const std::size_t bad = prime(now);
    if (bad < n) reject_sample(now, bad, /*announce=*/true);
    return;
  }
  // The sample→decide core runs inside a compiler-checked lock-free section
  // (taking any AnnotatedMutex here is a -Wthread-safety error; see
  // DESIGN.md §14). The consequences that may lock, emit events, or sleep —
  // rejection events, write_limit's bounded-retry backoff, note_domain — run
  // after the section ends, steered by the steps recorded in it.
  {
    const common::HotPathSection hot_section;
    for (std::size_t d = 0; d < n; ++d) step_[d] = sample_domain(now, d);
  }
  bool noted = false;
  for (std::size_t d = 0; d < n; ++d) {
    if (step_[d] == Step::kSkip) continue;
    if (step_[d] == Step::kHold) reject_sample(now, d, /*announce=*/true);
    if (target_[d] && cfg_.scaling_enabled && !degraded_) write_limit(d, *target_[d], now);
    note_domain(now, d);
    noted = true;
  }
  if (!noted) return;
  double total_mbps = 0.0;
  for (const common::Mbps mbps : throughput_) total_mbps += mbps.value();
  last_throughput_ = common::Mbps(total_mbps);
  telemetry::inc(m_samples_);
  telemetry::set(m_throughput_, total_mbps);
}

MagusRuntime::Step MagusRuntime::sample_domain(common::Seconds now, std::size_t d) {
  double mb = 0.0;
  bool readable = true;
  try {
    mb = domains_.read_mb(mem_counter_, d);
  } catch (const common::DeviceError&) {
    readable = false;
  }
  Step step = Step::kHold;
  if (readable && std::isfinite(mb) && mb >= 0.0) {
    const double dt = now.value() - prev_t_[d];
    if (dt <= 0.0) return Step::kSkip;
    const double mbps = (mb - prev_mb_[d]) / dt;
    // A cumulative counter never decreases; a reading that did is corrupt.
    if (mbps >= 0.0) {
      throughput_[d] = common::Mbps(mbps);
      prev_mb_[d] = mb;
      prev_t_[d] = now.value();
      step = Step::kDecide;
    }
  }
  // A rejected reading leaves the baseline put, so the next good reading
  // averages across the gap; MDFS gets the last good throughput so its
  // windows keep cadence.
  target_[d] = mdfs_[d].on_throughput(now, throughput_[d]);
  return step;
}

void MagusRuntime::reject_sample(common::Seconds now, std::size_t domain, bool announce) {
  ++bad_samples_;
  telemetry::inc(m_sample_errors_);
  if (announce && events_) {
    events_->emit(domain_event(now, "sample_rejected", domain)
                      .num("held_throughput_mbps", throughput_[domain].value()));
  }
}

void MagusRuntime::write_limit(std::size_t domain, common::Ghz ghz, common::Seconds now) {
  const ResilienceConfig& res = cfg_.resilience;
  common::Seconds backoff = res.backoff_base;
  for (int attempt = 0; attempt <= res.write_retries; ++attempt) {
    if (attempt > 0) {
      telemetry::inc(m_msr_retries_);
      if (backoff_sleeper_) backoff_sleeper_(backoff);
      backoff = common::Seconds(backoff.value() * res.backoff_mult);
    }
    try {
      domains_.write_max_ghz(domain, ghz);
      consecutive_write_failures_ = 0;
      return;
    } catch (const common::DeviceError&) {
      telemetry::inc(m_msr_failures_);
    }
  }
  ++write_failures_;
  ++consecutive_write_failures_;
  if (events_) {
    events_->emit(domain_event(now, "uncore_write_failed", domain)
                      .num("target_ghz", ghz.value())
                      .num("consecutive", consecutive_write_failures_));
  }
  if (consecutive_write_failures_ >= res.max_consecutive_failures) {
    enter_degraded(now);
  }
}

void MagusRuntime::enter_degraded(common::Seconds now) {
  if (degraded_) return;
  degraded_ = true;
  // Safe fallback: best-effort release of the uncore to the ladder maximum
  // (the firmware default), one try per socket or domain -- a device that is
  // still failing is left to the firmware watchdog.
  domains_.release_to_max();
  const double max_ghz = domains_.ladder().max_ghz();
  telemetry::set(m_degraded_, 1.0);
  telemetry::set(m_target_ghz_, max_ghz);
  if (events_) {
    events_->emit(telemetry::Event(now.value(), "runtime_degraded")
                      .num("consecutive_failures", consecutive_write_failures_)
                      .num("release_ghz", max_ghz));
  }
}

telemetry::Event MagusRuntime::domain_event(common::Seconds now, const char* type,
                                            std::size_t domain) const {
  telemetry::Event event(now.value(), type);
  if (!domains_.whole_node()) event.num("domain", static_cast<double>(domain));
  return event;
}

void MagusRuntime::note_domain(common::Seconds now, std::size_t d) {
  // One branch on the hot path when telemetry is detached / NullRegistry.
  if (!m_samples_ && !events_) return;

  const MdfsController& mdfs = mdfs_[d];
  const DecisionRecord& rec = mdfs.log().back();
  if (!rec.warmup) {
    switch (rec.prediction) {
      case Trend::kIncrease: telemetry::inc(m_pred_increase_); break;
      case Trend::kDecrease: telemetry::inc(m_pred_decrease_); break;
      case Trend::kStable: telemetry::inc(m_pred_stable_); break;
    }
  }
  const std::optional<common::Ghz>& target = target_[d];
  const bool hf = mdfs.high_freq_status();
  if (target) telemetry::inc(m_tuning_events_);
  if (domains_.whole_node()) {
    // The controller gauges describe the node's one controller; the domains
    // of a set report their own series instead.
    telemetry::set(m_temporary_ghz_, mdfs.temporary_target().value());
    telemetry::set(m_derivative_, rec.derivative.value());
    telemetry::set(m_hf_active_, hf ? 1.0 : 0.0);
    if (target) telemetry::set(m_target_ghz_, target->value());
  } else if (d < m_domain_target_.size()) {
    telemetry::set(m_domain_target_[d], mdfs.current_target().value());
    telemetry::set(m_domain_throughput_[d], throughput_[d].value());
  }
  if (target && events_) {
    events_->emit(domain_event(now, "uncore_retarget", d)
                      .num("target_ghz", target->value())
                      .num("throughput_mbps", throughput_[d].value())
                      .flag("high_freq", hf));
  }
  if (hf != static_cast<bool>(last_hf_[d])) {
    if (hf) telemetry::inc(m_hf_phases_);
    if (events_) {
      events_->emit(domain_event(now, hf ? "high_freq_enter" : "high_freq_exit", d)
                        .num("throughput_mbps", throughput_[d].value()));
    }
    last_hf_[d] = hf ? 1 : 0;
  }
}

}  // namespace magus::core
