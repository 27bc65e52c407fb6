#pragma once
// MAGUS configuration with the paper's recommended defaults (section 3.3):
// inc_threshold 200, dec_threshold 500, high_freq_threshold 0.4, a 0.2 s
// monitoring period, and a 10-cycle (2.0 s) warm-up during which throughput
// is collected but no tuning occurs.

#include "magus/common/error.hpp"
#include "magus/common/quantity.hpp"

namespace magus::core {

/// Length of the uncore_tune_ls decision window: Algorithm 3 seeds it with
/// 10 zeros (section 3.3).
inline constexpr int kTuneWindow = 10;

/// Monitoring cycles before MDFS engages (10 cycles x 0.2 s = 2.0 s).
inline constexpr int kWarmupCycles = 10;

/// How the runtime behaves when a backend call fails (stale/NaN samples,
/// MSR -EIO). Defaults favor availability: a few quick retries, then give
/// the uncore back to firmware rather than fight a dying device. See
/// DESIGN.md §11 for the degradation ladder and tuning guidance.
struct ResilienceConfig {
  /// Extra attempts after a failed MSR write burst (0 = single attempt).
  int write_retries = 3;

  /// Backoff before the first retry; each further retry multiplies by
  /// `backoff_mult`. Only honored when a backoff sleeper is installed
  /// (real daemon); the simulator keeps virtual time untouched.
  common::Seconds backoff_base{0.01};
  double backoff_mult = 2.0;

  /// Consecutive exhausted write bursts before the runtime degrades:
  /// releases the uncore to the ladder maximum (firmware default) and stops
  /// issuing MSR writes while continuing to monitor.
  int max_consecutive_failures = 5;

  void validate() const {
    if (write_retries < 0) {
      throw common::ConfigError("ResilienceConfig: write_retries must be >= 0");
    }
    if (backoff_base < common::Seconds(0.0)) {
      throw common::ConfigError("ResilienceConfig: backoff_base must be >= 0");
    }
    if (backoff_mult < 1.0) {
      throw common::ConfigError("ResilienceConfig: backoff_mult must be >= 1");
    }
    if (max_consecutive_failures < 1) {
      throw common::ConfigError(
          "ResilienceConfig: max_consecutive_failures must be >= 1");
    }
  }
};

struct MagusConfig {
  /// Trend thresholds against the windowed first derivative of memory
  /// throughput (MB/s per window-length unit). `dec_threshold` is a
  /// magnitude: a decrease triggers when d < -dec_threshold. The asymmetry
  /// (500 vs 200) makes down-scaling deliberately more conservative than
  /// up-scaling.
  common::Mbps inc_threshold{200.0};
  common::Mbps dec_threshold{500.0};

  /// Fraction of tuning events in the decision window that flags
  /// high-frequency status (Algorithm 2).
  double high_freq_threshold = 0.4;

  /// Window length L for the derivative (Algorithm 1), in samples. The
  /// paper leaves L unspecified; L=2 (adjacent-sample derivative) keeps one
  /// throughput step to one tuning event, which is what lets Algorithm 2
  /// separate genuine high-frequency fluctuation from isolated bursts.
  int direv_length = 2;

  /// Monitoring period between invocations.
  common::Seconds period{0.2};

  /// When false, the runtime monitors and logs decisions but never writes
  /// MSR 0x620 -- the paper's Table 2 overhead-measurement protocol
  /// ("excluding uncore scaling").
  bool scaling_enabled = true;

  /// Ablation switch: disable Algorithm 2 entirely (prediction-only MAGUS).
  /// Used by bench/ablation_high_freq to quantify what the detector buys on
  /// fluctuation-heavy workloads like SRAD.
  bool high_freq_detection_enabled = true;

  /// Backend-failure handling (retry/backoff/degrade).
  ResilienceConfig resilience;

  void validate() const {
    if (inc_threshold < common::Mbps(0.0) || dec_threshold < common::Mbps(0.0)) {
      throw common::ConfigError("MagusConfig: thresholds must be non-negative");
    }
    if (high_freq_threshold < 0.0 || high_freq_threshold > 1.0) {
      throw common::ConfigError("MagusConfig: high_freq_threshold must be in [0,1]");
    }
    if (direv_length < 2) {
      throw common::ConfigError("MagusConfig: direv_length must be >= 2");
    }
    if (period <= common::Seconds(0.0)) {
      throw common::ConfigError("MagusConfig: period must be positive");
    }
    resilience.validate();
  }
};

}  // namespace magus::core
