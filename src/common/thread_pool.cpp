#include "magus/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "magus/common/thread_annotations.hpp"
#include "magus/telemetry/registry.hpp"

namespace magus::common {

struct ThreadPool::Impl {
  std::vector<std::thread> workers;  // written in ctor only, then immutable
  AnnotatedMutex mutex;
  CondVar cv;
  std::deque<std::function<void()>> queue MAGUS_GUARDED_BY(mutex);
  bool stop MAGUS_GUARDED_BY(mutex) = false;
  // Telemetry handles: written AND dereferenced only under `mutex`, so
  // attach_telemetry (including detaching via a disabled registry) is a
  // synchronization point — once it returns, no worker can touch the old
  // handles, and the old registry may be destroyed.
  telemetry::Gauge* queue_depth MAGUS_GUARDED_BY(mutex) = nullptr;
  telemetry::Counter* tasks_total MAGUS_GUARDED_BY(mutex) = nullptr;
  telemetry::Histogram* task_latency MAGUS_GUARDED_BY(mutex) = nullptr;

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      bool timed = false;
      {
        UniqueLock lock(mutex);
        while (!stop && queue.empty()) cv.wait(lock);
        if (queue.empty()) return;  // stop requested and nothing pending
        task = std::move(queue.front());
        queue.pop_front();
        telemetry::set(queue_depth, static_cast<double>(queue.size()));
        timed = task_latency != nullptr;
      }
      if (timed) {
        // Wall-clock latency is observability, not simulation state; this is
        // the one sanctioned wall-clock site (see magus_lint
        // nondeterministic-source allowlist).
        const auto t0 = std::chrono::steady_clock::now();
        task();
        const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
        LockGuard lock(mutex);
        telemetry::observe(task_latency, dt.count());
        telemetry::inc(tasks_total);
      } else {
        task();
        LockGuard lock(mutex);
        telemetry::inc(tasks_total);
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(std::make_unique<Impl>()) {
  const std::size_t n = std::clamp<std::size_t>(threads, 1, kMaxWorkers);
  impl_->workers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

std::size_t ThreadPool::size() const noexcept { return impl_->workers.size(); }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    LockGuard lock(impl_->mutex);
    impl_->queue.push_back(std::move(task));
    telemetry::set(impl_->queue_depth, static_cast<double>(impl_->queue.size()));
  }
  impl_->cv.notify_one();
}

void ThreadPool::attach_telemetry(telemetry::MetricsRegistry& reg) {
  telemetry::Gauge* workers =
      reg.gauge("magus_pool_workers", "Worker threads in the shared pool");
  telemetry::Gauge* depth =
      reg.gauge("magus_pool_queue_depth", "Tasks waiting in the pool queue");
  telemetry::Counter* tasks =
      reg.counter("magus_pool_tasks_total", "Tasks executed by pool workers");
  telemetry::Histogram* latency = reg.histogram(
      "magus_pool_task_latency_seconds", "Wall-clock task execution latency",
      {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0});
  LockGuard lock(impl_->mutex);
  impl_->queue_depth = depth;
  impl_->tasks_total = tasks;
  impl_->task_latency = latency;
  telemetry::set(workers, static_cast<double>(impl_->workers.size()));
}

namespace {

/// Shared between the caller and the helper tasks of one parallel_for_each.
struct ForEachState {
  std::size_t count = 0;  // set once before fan-out, then read-only
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> cancelled{false};
  AnnotatedMutex mutex;
  CondVar cv;
  std::exception_ptr error MAGUS_GUARDED_BY(mutex);  // first exception wins
};

/// Pull indices off the shared counter until exhausted. Every claimed index
/// is counted as done even when skipped after cancellation, so `done` always
/// reaches `count` and the caller's wait always terminates.
void drain_indices(const std::shared_ptr<ForEachState>& st,
                   const std::function<void(std::size_t)>& fn) {
  for (;;) {
    const std::size_t i = st->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= st->count) return;
    if (!st->cancelled.load(std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        LockGuard lock(st->mutex);
        if (!st->error) st->error = std::current_exception();
        st->cancelled.store(true, std::memory_order_relaxed);
      }
    }
    if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 == st->count) {
      LockGuard lock(st->mutex);
      st->cv.notify_all();
    }
  }
}

}  // namespace

void ThreadPool::parallel_for_each(std::size_t count,
                                   const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (size() <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  auto st = std::make_shared<ForEachState>();
  st->count = count;

  // Enough helpers to saturate the pool; the caller is the extra participant.
  // Helpers copy `fn` so a straggler popped after the caller returned only
  // touches state it owns (it will find the counter exhausted and exit).
  const std::size_t helpers = std::min(size(), count - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    enqueue([st, fn] { drain_indices(st, fn); });
  }

  drain_indices(st, fn);

  UniqueLock lock(st->mutex);
  while (st->done.load(std::memory_order_acquire) != st->count) st->cv.wait(lock);
  if (st->error) std::rethrow_exception(st->error);
}

namespace {

std::size_t hardware_jobs() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hc, 1, kMaxWorkers);
}

std::size_t env_jobs() noexcept {
  // Read once at pool creation, never on a worker thread; the CLI owns the
  // environment at that point.
  const char* env = std::getenv("MAGUS_JOBS");  // NOLINT(concurrency-mt-unsafe)
  if (!env) return 0;
  // from_chars takes no sign, so "-1" is not a number here (strtoul would
  // wrap it to ULONG_MAX); 0 and counts over the cap fall back likewise.
  const std::string_view text(env);
  std::size_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || v > kMaxWorkers) return 0;
  return v;
}

AnnotatedMutex g_default_mutex;
std::unique_ptr<ThreadPool> g_default_pool MAGUS_GUARDED_BY(g_default_mutex);
std::size_t g_default_jobs MAGUS_GUARDED_BY(g_default_mutex) = 0;  // 0 = auto

std::size_t resolve_default_jobs() noexcept MAGUS_REQUIRES(g_default_mutex) {
  if (g_default_jobs > 0) return std::min(g_default_jobs, kMaxWorkers);
  const std::size_t env = env_jobs();
  if (env > 0) return env;
  return hardware_jobs();
}

}  // namespace

std::size_t default_job_count() noexcept {
  LockGuard lock(g_default_mutex);
  return resolve_default_jobs();
}

ThreadPool& default_pool() {
  LockGuard lock(g_default_mutex);
  if (!g_default_pool) {
    g_default_pool = std::make_unique<ThreadPool>(resolve_default_jobs());
  }
  return *g_default_pool;
}

void set_default_jobs(std::size_t jobs) {
  LockGuard lock(g_default_mutex);
  g_default_jobs = jobs;
  const std::size_t want = resolve_default_jobs();
  if (g_default_pool && g_default_pool->size() != want) {
    g_default_pool.reset();  // drains pending tasks, joins workers
  }
}

}  // namespace magus::common
