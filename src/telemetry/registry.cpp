#include "magus/telemetry/registry.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

#include "magus/common/error.hpp"

namespace magus::telemetry {

namespace {

bool name_head(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
}

bool name_tail(char c) noexcept { return name_head(c) || (c >= '0' && c <= '9'); }

void validate_name(const std::string& name) {
  if (name.empty() || !name_head(name.front())) {
    throw common::ConfigError("telemetry: invalid metric name '" + name + "'");
  }
  for (char c : name) {
    if (!name_tail(c)) {
      throw common::ConfigError("telemetry: invalid metric name '" + name + "'");
    }
  }
}

const char* kind_name(int kind) noexcept {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

}  // namespace

std::string format_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0.0 ? "+Inf" : "-Inf";
  constexpr int kMaxDigits = std::numeric_limits<double>::max_digits10;
  // %.17g of a double needs at most 24 chars ("-d.dddddddddddddddde-308").
  char buf[32] = {};
  const auto general = [&](int prec) {
    return std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, prec).ptr;
  };
  // Subnormals always take the max_digits10 form: the wire format was fixed
  // by a strtod round-trip check, and strtod flags ERANGE on every subnormal
  // parse-back, so that check never accepted a shorter string.
  if (std::fpclassify(v) == FP_SUBNORMAL) return {buf, general(kMaxDigits)};
  // No %.{p}g string shorter than the shortest round-trip digit count can
  // parse back to v, so start there; the correctly rounded p-digit string
  // can still miss at a binade edge, hence the loop.
  char* end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific).ptr;
  int prec = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c) prec += (*c >= '0' && *c <= '9');
  for (; prec < kMaxDigits; ++prec) {
    end = general(prec);
    double back = 0.0;
    const auto parsed = std::from_chars(buf, end, back);
    if (parsed.ec == std::errc() && back == v) return {buf, end};
  }
  return {buf, general(kMaxDigits)};
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty()) {
    throw common::ConfigError("telemetry: histogram needs at least one bucket bound");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw common::ConfigError("telemetry: histogram bounds must be strictly increasing");
    }
  }
}

void Histogram::observe(double v) noexcept {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

MetricsRegistry::Entry& MetricsRegistry::fetch_or_create(const std::string& name,
                                                         const std::string& help,
                                                         Kind kind) {
  // MAGUS_REQUIRES(mutex_): every caller below holds the registration lock.
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw common::ConfigError("telemetry: metric '" + name + "' already registered as " +
                                kind_name(static_cast<int>(it->second.kind)) +
                                ", requested " + kind_name(static_cast<int>(kind)));
    }
    return it->second;
  }
  validate_name(name);
  Entry e;
  e.kind = kind;
  e.help = help;
  return entries_.emplace(name, std::move(e)).first->second;
}

Counter* MetricsRegistry::counter(const std::string& name, const std::string& help) {
  if (!enabled_) return nullptr;
  common::LockGuard lock(mutex_);
  Entry& e = fetch_or_create(name, help, Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return e.counter.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name, const std::string& help) {
  if (!enabled_) return nullptr;
  common::LockGuard lock(mutex_);
  Entry& e = fetch_or_create(name, help, Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return e.gauge.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name, const std::string& help,
                                      const std::vector<double>& upper_bounds) {
  if (!enabled_) return nullptr;
  common::LockGuard lock(mutex_);
  Entry& e = fetch_or_create(name, help, Kind::kHistogram);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(upper_bounds);
  return e.histogram.get();
}

std::string MetricsRegistry::render_prometheus() const {
  common::LockGuard lock(mutex_);
  std::string out;
  for (const auto& [name, e] : entries_) {
    if (!e.help.empty()) out += "# HELP " + name + " " + e.help + "\n";
    out += "# TYPE " + name + " " + kind_name(static_cast<int>(e.kind)) + "\n";
    switch (e.kind) {
      case Kind::kCounter:
        out += name + " " + std::to_string(e.counter->value()) + "\n";
        break;
      case Kind::kGauge:
        out += name + " " + format_double(e.gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          cumulative += h.bucket_value(i);
          out += name + "_bucket{le=\"" + format_double(h.upper_bounds()[i]) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        cumulative += h.bucket_value(h.upper_bounds().size());
        out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
        out += name + "_sum " + format_double(h.sum()) + "\n";
        out += name + "_count " + std::to_string(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

std::size_t MetricsRegistry::size() const {
  common::LockGuard lock(mutex_);
  return entries_.size();
}

MetricsRegistry& null_registry() {
  static MetricsRegistry reg(false);
  return reg;
}

}  // namespace magus::telemetry
