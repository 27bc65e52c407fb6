#pragma once
// In-memory span recorder for the traced run.
//
// The benchmark wraps each call into a public layer in a ScopedSpan. Spans
// stay in memory (one vector, one mutex: evaluate_app spans arrive from pool
// workers) and are written once, at exit. With a null Tracer every
// ScopedSpan is a no-op, which is how the untraced run and the untraced half
// of each traced pair execute.

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< host seconds since the tracer was created
  double end_s = 0.0;
  std::int64_t id = -1;
  std::int64_t parent = -1;  ///< -1 for a root span
  std::uint64_t op = 0;      ///< operation the span belongs to
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  std::int64_t begin(const std::string& name, std::int64_t parent, std::uint64_t op) {
    const double t = seconds_since(epoch_);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, t, t, id, parent, op});
    return id;
  }

  void end(std::int64_t id) {
    const double t = seconds_since(epoch_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_s = t;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// One JSON object per span.
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace to " + path);
    for (const Span& s : spans()) {
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,\"id\":%lld,"
                    "\"parent\":%lld,\"op\":%llu}\n",
                    s.name.c_str(), s.start_s, s.end_s, static_cast<long long>(s.id),
                    static_cast<long long>(s.parent), static_cast<unsigned long long>(s.op));
      out << line;
    }
  }

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::int64_t parent, std::uint64_t op)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap when they run on pool
/// workers, so the union is taken). Indexed like `spans`.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_s, s.end_s});
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0;
      double cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_s);
        hi = std::min(hi, s.end_s);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    self[i] = (s.end_s - s.start_s) - covered;
  }
  return self;
}

/// Per operation, the summed self time of every span called `name`; the
/// median over operations of that sum divided by the spans per operation.
/// Returns seconds per span.
inline double median_self_s(const std::vector<Span>& spans, const std::vector<double>& self,
                            const std::string& name) {
  std::map<std::uint64_t, std::pair<double, int>> per_op;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    auto& acc = per_op[spans[i].op];
    acc.first += self[i];
    acc.second += 1;
  }
  std::vector<double> v;
  for (const auto& [op, acc] : per_op) v.push_back(acc.first / acc.second);
  return median(v);
}

}  // namespace perfbench
