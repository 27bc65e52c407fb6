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
    : mem_counter_(mem_counter), msr_(msr), uncore_(msr, ladder), cfg_(cfg) {
  cfg_.validate();
  mdfs_ = std::make_unique<MdfsController>(cfg_, common::Ghz(ladder.min_ghz()),
                                           common::Ghz(ladder.max_ghz()));
  if (domains != nullptr && domains->domain_count() > 1) {
    domains_ = domains;
    const auto n = static_cast<std::size_t>(domains->domain_count());
    domain_mdfs_.reserve(n);
    for (std::size_t d = 0; d < n; ++d) {
      domain_mdfs_.push_back(std::make_unique<MdfsController>(
          cfg_, common::Ghz(ladder.min_ghz()), common::Ghz(ladder.max_ghz())));
    }
    domain_prev_mb_.assign(n, 0.0);
    domain_throughput_.assign(n, common::Mbps(0.0));
  }
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
  if (domains_) {
    const auto n = domain_mdfs_.size();
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
  uncore_.attach_telemetry(reg);
}

void MagusRuntime::on_start(common::Seconds now) {
  if (domains_) {
    start_domains(now);
    return;
  }
  if (cfg_.scaling_enabled && !degraded_) {
    write_uncore(common::Ghz(uncore_.ladder().max_ghz()), now);
  }
  telemetry::set(m_target_ghz_, uncore_.ladder().max_ghz());
  double mb = 0.0;
  bool readable = true;
  try {
    mb = mem_counter_.total_mb();
  } catch (const common::DeviceError&) {
    readable = false;
  }
  if (readable && std::isfinite(mb) && mb >= 0.0) {
    prev_mb_ = mb;
    prev_t_ = now.value();
    primed_ = true;
  } else {
    // Priming read failed: stay unprimed so the first valid on_sample primes.
    ++bad_samples_;
    telemetry::inc(m_sample_errors_);
    primed_ = false;
  }
}

void MagusRuntime::on_sample(common::Seconds now) {
  if (domains_) {
    sample_domains(now);
    return;
  }
  // The sample→decide core runs inside a compiler-checked lock-free section
  // (taking any AnnotatedMutex here is a -Wthread-safety error; see
  // DESIGN.md §14). The consequences that may lock, emit events, or sleep —
  // hold_last_good, write_uncore's bounded-retry backoff, note_sample — run
  // after the section ends, steered by the outcome recorded in it.
  enum class Outcome { kSkip, kHold, kDecide };
  Outcome outcome = Outcome::kSkip;
  std::optional<common::Ghz> target;
  {
    const common::HotPathSection hot_section;
    double mb = 0.0;
    bool readable = true;
    try {
      mb = mem_counter_.total_mb();
    } catch (const common::DeviceError&) {
      readable = false;
    }
    if (!readable || !std::isfinite(mb) || mb < 0.0) {
      outcome = Outcome::kHold;
    } else if (!primed_) {
      prev_mb_ = mb;
      prev_t_ = now.value();
      primed_ = true;
    } else {
      const double dt = now.value() - prev_t_;
      if (dt > 0.0) {
        const double mbps = (mb - prev_mb_) / dt;
        if (mbps < 0.0) {
          // A cumulative counter never decreases; this reading is corrupt.
          outcome = Outcome::kHold;
        } else {
          last_throughput_ = common::Mbps(mbps);
          prev_mb_ = mb;
          prev_t_ = now.value();
          target = mdfs_->on_throughput(now, last_throughput_);
          outcome = Outcome::kDecide;
        }
      }
    }
  }
  if (outcome == Outcome::kHold) {
    hold_last_good(now);
    return;
  }
  if (outcome != Outcome::kDecide) return;
  if (target && cfg_.scaling_enabled && !degraded_) {
    write_uncore(common::Ghz(target->value()), now);
  }
  note_sample(now, target);
}

void MagusRuntime::start_domains(common::Seconds now) {
  const auto n = domain_mdfs_.size();
  if (cfg_.scaling_enabled && !degraded_) {
    for (std::size_t d = 0; d < n; ++d) {
      write_domain(static_cast<int>(d), common::Ghz(uncore_.ladder().max_ghz()), now);
    }
  }
  telemetry::set(m_target_ghz_, uncore_.ladder().max_ghz());
  // Prime every domain's cumulative baseline in one sweep; a single bad
  // read leaves the runtime unprimed so the first valid on_sample primes.
  bool ok = true;
  for (std::size_t d = 0; d < n && ok; ++d) {
    double mb = 0.0;
    try {
      mb = mem_counter_.domain_mb(static_cast<int>(d));
    } catch (const common::DeviceError&) {
      ok = false;
      break;
    }
    if (!std::isfinite(mb) || mb < 0.0) {
      ok = false;
      break;
    }
    domain_prev_mb_[d] = mb;
  }
  if (ok) {
    prev_t_ = now.value();
    primed_ = true;
  } else {
    ++bad_samples_;
    telemetry::inc(m_sample_errors_);
    primed_ = false;
  }
}

void MagusRuntime::sample_domains(common::Seconds now) {
  const auto n = domain_mdfs_.size();
  if (!primed_) {
    // Re-prime: identical to the start sweep, no decisions this round.
    bool ok = true;
    for (std::size_t d = 0; d < n && ok; ++d) {
      double mb = 0.0;
      try {
        mb = mem_counter_.domain_mb(static_cast<int>(d));
      } catch (const common::DeviceError&) {
        ok = false;
        break;
      }
      if (!std::isfinite(mb) || mb < 0.0) {
        ok = false;
        break;
      }
      domain_prev_mb_[d] = mb;
    }
    if (ok) {
      prev_t_ = now.value();
      primed_ = true;
    } else {
      ++bad_samples_;
      telemetry::inc(m_sample_errors_);
    }
    return;
  }
  const double dt = now.value() - prev_t_;
  if (dt <= 0.0) return;
  prev_t_ = now.value();

  double total_mbps = 0.0;
  unsigned retargets = 0;
  for (std::size_t d = 0; d < n; ++d) {
    double mb = 0.0;
    bool good = true;
    try {
      mb = mem_counter_.domain_mb(static_cast<int>(d));
    } catch (const common::DeviceError&) {
      good = false;
    }
    if (good && (!std::isfinite(mb) || mb < 0.0)) good = false;
    if (good) {
      const double mbps = (mb - domain_prev_mb_[d]) / dt;
      if (mbps < 0.0) {
        // A cumulative counter never decreases; this reading is corrupt.
        good = false;
      } else {
        domain_throughput_[d] = common::Mbps(mbps);
        domain_prev_mb_[d] = mb;
      }
    }
    if (!good) {
      // This domain holds its last good throughput (its baseline stays put,
      // so the next good reading averages across the gap); siblings are
      // unaffected.
      ++bad_samples_;
      telemetry::inc(m_sample_errors_);
      if (events_) {
        events_->emit(telemetry::Event(now.value(), "sample_rejected")
                          .num("domain", static_cast<double>(d))
                          .num("held_throughput_mbps", domain_throughput_[d].value()));
      }
    }
    total_mbps += domain_throughput_[d].value();

    const std::optional<common::Ghz> target =
        domain_mdfs_[d]->on_throughput(now, domain_throughput_[d]);
    if (target) {
      ++retargets;
      if (cfg_.scaling_enabled && !degraded_) {
        write_domain(static_cast<int>(d), common::Ghz(target->value()), now);
      }
      if (events_) {
        events_->emit(telemetry::Event(now.value(), "uncore_retarget")
                          .num("domain", static_cast<double>(d))
                          .num("target_ghz", target->value())
                          .num("throughput_mbps", domain_throughput_[d].value())
                          .flag("high_freq", domain_mdfs_[d]->high_freq_status()));
      }
    }
    if (d < m_domain_target_.size()) {
      telemetry::set(m_domain_target_[d], domain_mdfs_[d]->current_target().value());
      telemetry::set(m_domain_throughput_[d], domain_throughput_[d].value());
    }
  }
  last_throughput_ = common::Mbps(total_mbps);
  telemetry::inc(m_samples_);
  telemetry::set(m_throughput_, total_mbps);
  telemetry::inc(m_tuning_events_, retargets);
}

void MagusRuntime::write_domain(int domain, common::Ghz ghz, common::Seconds now) {
  const ResilienceConfig& res = cfg_.resilience;
  common::Seconds backoff = res.backoff_base;
  for (int attempt = 0; attempt <= res.write_retries; ++attempt) {
    if (attempt > 0) {
      telemetry::inc(m_msr_retries_);
      if (backoff_sleeper_) backoff_sleeper_(backoff);
      backoff = common::Seconds(backoff.value() * res.backoff_mult);
    }
    try {
      domains_->write_max_ghz(domain, ghz);
      consecutive_write_failures_ = 0;
      return;
    } catch (const common::DeviceError&) {
      telemetry::inc(m_msr_failures_);
    }
  }
  ++write_failures_;
  ++consecutive_write_failures_;
  if (events_) {
    events_->emit(telemetry::Event(now.value(), "uncore_write_failed")
                      .num("domain", static_cast<double>(domain))
                      .num("target_ghz", ghz.value())
                      .num("consecutive", consecutive_write_failures_));
  }
  if (consecutive_write_failures_ >= res.max_consecutive_failures) {
    enter_degraded(now);
  }
}

void MagusRuntime::hold_last_good(common::Seconds now) {
  ++bad_samples_;
  telemetry::inc(m_sample_errors_);
  if (events_) {
    events_->emit(telemetry::Event(now.value(), "sample_rejected")
                      .num("held_throughput_mbps", last_throughput_.value()));
  }
  // prev_mb_/prev_t_ stay put: the next good reading averages across the
  // gap. Feed the last good throughput to MDFS so its windows keep cadence.
  if (!primed_) return;
  const std::optional<common::Ghz> target = mdfs_->on_throughput(now, last_throughput_);
  if (target && cfg_.scaling_enabled && !degraded_) {
    write_uncore(common::Ghz(target->value()), now);
  }
  note_sample(now, target);
}

void MagusRuntime::write_uncore(common::Ghz ghz, common::Seconds now) {
  const ResilienceConfig& res = cfg_.resilience;
  common::Seconds backoff = res.backoff_base;
  for (int attempt = 0; attempt <= res.write_retries; ++attempt) {
    if (attempt > 0) {
      telemetry::inc(m_msr_retries_);
      if (backoff_sleeper_) backoff_sleeper_(backoff);
      backoff = common::Seconds(backoff.value() * res.backoff_mult);
    }
    try {
      uncore_.set_max_ghz_all(ghz.value());
      consecutive_write_failures_ = 0;
      return;
    } catch (const common::DeviceError&) {
      telemetry::inc(m_msr_failures_);
    }
  }
  ++write_failures_;
  ++consecutive_write_failures_;
  if (events_) {
    events_->emit(telemetry::Event(now.value(), "uncore_write_failed")
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
  // Safe fallback: best-effort release of every socket (or, in per-domain
  // mode, every domain) to the ladder maximum (the firmware default), one
  // try each -- a device that is still failing is left to the firmware
  // watchdog.
  if (domains_) {
    for (std::size_t d = 0; d < domain_mdfs_.size(); ++d) {
      try {
        domains_->write_max_ghz(static_cast<int>(d),
                                common::Ghz(uncore_.ladder().max_ghz()));
      } catch (const common::DeviceError&) {
      }
    }
  } else {
    for (int socket = 0; socket < msr_.socket_count(); ++socket) {
      try {
        uncore_.set_max_ghz(socket, uncore_.ladder().max_ghz());
      } catch (const common::DeviceError&) {
      }
    }
  }
  telemetry::set(m_degraded_, 1.0);
  telemetry::set(m_target_ghz_, uncore_.ladder().max_ghz());
  if (events_) {
    events_->emit(telemetry::Event(now.value(), "runtime_degraded")
                      .num("consecutive_failures", consecutive_write_failures_)
                      .num("release_ghz", uncore_.ladder().max_ghz()));
  }
}

void MagusRuntime::note_sample(common::Seconds now,
                               const std::optional<common::Ghz>& target) {
  // One branch on the hot path when telemetry is detached / NullRegistry.
  if (!m_samples_ && !events_) return;

  telemetry::inc(m_samples_);
  telemetry::set(m_throughput_, last_throughput_.value());
  telemetry::set(m_temporary_ghz_, mdfs_->temporary_target().value());

  const DecisionRecord& rec = mdfs_->log().back();
  telemetry::set(m_derivative_, rec.derivative.value());
  if (!rec.warmup) {
    switch (rec.prediction) {
      case Trend::kIncrease: telemetry::inc(m_pred_increase_); break;
      case Trend::kDecrease: telemetry::inc(m_pred_decrease_); break;
      case Trend::kStable: telemetry::inc(m_pred_stable_); break;
    }
  }

  const bool hf = mdfs_->high_freq_status();
  telemetry::set(m_hf_active_, hf ? 1.0 : 0.0);
  if (target) {
    telemetry::inc(m_tuning_events_);
    telemetry::set(m_target_ghz_, target->value());
    if (events_) {
      events_->emit(telemetry::Event(now.value(), "uncore_retarget")
                        .num("target_ghz", target->value())
                        .num("throughput_mbps", last_throughput_.value())
                        .flag("high_freq", hf));
    }
  }
  if (hf != last_hf_) {
    if (hf) telemetry::inc(m_hf_phases_);
    if (events_) {
      events_->emit(telemetry::Event(now.value(), hf ? "high_freq_enter" : "high_freq_exit")
                        .num("throughput_mbps", last_throughput_.value()));
    }
    last_hf_ = hf;
  }
}

}  // namespace magus::core
