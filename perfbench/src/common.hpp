#pragma once
// Shared helpers for the benchmark: the host clock, order statistics,
// output digests, and the metric sheet printed as the last line of stdout.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; throws on empty input
/// so a metric can never silently read 0.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// FNV-1a over the bytes of `s`: the output digest recorded per seed.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Keeps a computed value alive without a store the optimizer can see
/// through, so replay loops are not folded away.
template <class T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Named metrics with units, in insertion order.
class MetricSheet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    for (auto& [n, m] : metrics_) {
      if (n == name) {
        m = {value, unit};
        return;
      }
    }
    metrics_.push_back({name, {value, unit}});
  }

  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string to_json(bool correct, long attempted, long failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", metrics_[i].second.value);
      if (i) out += ", ";
      out += "\"" + metrics_[i].first + "\": {\"value\": " + num + ", \"unit\": \"" +
             metrics_[i].second.unit + "\"}";
    }
    return out + "}}";
  }

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::pair<std::string, Metric>> metrics_;
};

}  // namespace perfbench
