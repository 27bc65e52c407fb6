#pragma once
// Fixed-size worker pool behind the experiment layer's fan-out.
//
// Every repetition / policy / sweep combination is an isolated deterministic
// simulation (own NodeModel, own seeded Rng), so the experiment protocols are
// embarrassingly parallel. The contract that keeps results bit-identical to
// the serial loops:
//
//   * callers pre-size their result containers and write slot [i] from task i
//     (never by completion order), and
//   * any floating-point aggregation happens serially, in index order, after
//     the fan-out completes.
//
// `parallel_for_each` is a work-sharing construct: the calling thread
// participates in executing indices alongside the pool workers. That makes
// nested fan-outs (evaluate_app -> run_repeated) deadlock-free — a worker
// that starts a nested fan-out simply chews through the inner indices itself
// if no other worker is free.
//
// Pool sizing: `default_pool()` uses `set_default_jobs()` if called, else the
// MAGUS_JOBS environment variable, else std::thread::hardware_concurrency(),
// never more than kMaxWorkers.

#include <cstddef>
#include <functional>
#include <memory>

namespace magus::telemetry {
class MetricsRegistry;
}

namespace magus::common {

/// The most worker threads a pool starts. The --jobs flags reject a larger
/// count as a ConfigError, MAGUS_JOBS above it falls back to the hardware
/// count, and ThreadPool clamps to it.
inline constexpr std::size_t kMaxWorkers = 256;

class ThreadPool {
 public:
  /// Spawns clamp(threads, 1, kMaxWorkers) workers. A 1-thread pool still
  /// owns one worker, but `parallel_for_each` degenerates to a plain serial
  /// loop on the calling thread.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  [[nodiscard]] std::size_t size() const noexcept;

  /// Register pool instruments on `reg` (magus_pool_workers,
  /// magus_pool_queue_depth, magus_pool_tasks_total,
  /// magus_pool_task_latency_seconds) and start reporting into them. Safe to
  /// call at any time, including while tasks are in flight. A disabled
  /// registry (e.g. telemetry::null_registry()) detaches the instruments;
  /// once that call returns no worker touches the previous registry, so a
  /// registry shorter-lived than the pool MUST be detached this way before
  /// it is destroyed.
  void attach_telemetry(telemetry::MetricsRegistry& reg);

  /// Run fn(0), ..., fn(count - 1) across the workers *and* the calling
  /// thread; returns when all indices have finished. The first exception
  /// thrown by any fn(i) is rethrown here (remaining indices are skipped).
  /// With size() == 1 the loop runs serially on the calling thread.
  void parallel_for_each(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void enqueue(std::function<void()> task);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Worker count `default_pool()` would use right now: the
/// `set_default_jobs()` override if set, else MAGUS_JOBS when it is a clean
/// integer in [1, kMaxWorkers], else hardware_concurrency() (>= 1); at most
/// kMaxWorkers.
[[nodiscard]] std::size_t default_job_count() noexcept;

/// Process-wide shared pool, created lazily with `default_job_count()`
/// workers. The reference stays valid for the life of the process unless
/// `set_default_jobs` resizes it.
[[nodiscard]] ThreadPool& default_pool();

/// Override the default pool's worker count (0 = back to auto: MAGUS_JOBS or
/// hardware_concurrency). If the pool already exists at a different size it
/// is drained and rebuilt — call this between experiment batches (e.g. from
/// CLI flag parsing), not while fan-outs are in flight.
void set_default_jobs(std::size_t jobs);

}  // namespace magus::common
