#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "magus/common/thread_pool.hpp"

namespace mc = magus::common;

// Completion must be ordering-independent: every index runs exactly once,
// regardless of which worker picks it up or in what order.
TEST(ThreadPool, ForEachCoversEveryIndexExactlyOnce) {
  mc::ThreadPool pool(4);
  constexpr std::size_t kCount = 257;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  pool.parallel_for_each(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ForEachZeroCountIsANoOp) {
  mc::ThreadPool pool(2);
  pool.parallel_for_each(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ForEachRethrowsFirstException) {
  mc::ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for_each(64,
                             [&](std::size_t i) {
                               ran.fetch_add(1);
                               if (i == 3) throw std::runtime_error("combo 3 failed");
                             }),
      std::runtime_error);
  // Cancellation skips (some) later indices but never hangs the caller.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 64);
}

// A 1-worker pool must degenerate to the plain serial loop: caller thread,
// ascending index order, no handoff to the worker.
TEST(ThreadPool, SingleJobRunsSeriallyOnCallerThread) {
  mc::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for_each(8, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // no lock needed: serial by contract
  });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// perfbench's Fig. 4 loop fans out apps whose evaluate_app (one run_repeated
// call) fans out repetitions on the same pool; the caller-participates
// design must not deadlock.
TEST(ThreadPool, NestedForEachDoesNotDeadlock) {
  mc::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for_each(4, [&](std::size_t) {
    pool.parallel_for_each(4, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 16);
}

TEST(ThreadPool, PoolNeverHasZeroWorkers) {
  mc::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, MagusJobsEnvControlsDefaultPool) {
  ASSERT_EQ(setenv("MAGUS_JOBS", "3", 1), 0);
  mc::set_default_jobs(0);  // clear any override; re-resolve from env
  EXPECT_EQ(mc::default_job_count(), 3u);
  EXPECT_EQ(mc::default_pool().size(), 3u);

  ASSERT_EQ(setenv("MAGUS_JOBS", "not-a-number", 1), 0);
  mc::set_default_jobs(0);
  EXPECT_GE(mc::default_job_count(), 1u);  // falls back to hardware

  ASSERT_EQ(unsetenv("MAGUS_JOBS"), 0);
  mc::set_default_jobs(0);
}

TEST(ThreadPool, MagusJobsOutOfRangeFallsBackToHardware) {
  // Only default_job_count() is asked: no pool is built from these values.
  ASSERT_EQ(unsetenv("MAGUS_JOBS"), 0);
  mc::set_default_jobs(0);
  const std::size_t hardware = mc::default_job_count();
  EXPECT_GE(hardware, 1u);
  EXPECT_LE(hardware, mc::kMaxWorkers);

  const std::string over_cap = std::to_string(mc::kMaxWorkers + 1);
  for (const char* value : {"-1", "0", "+3", " 3", "3 ", "99999999999999999999999",
                            over_cap.c_str()}) {
    SCOPED_TRACE(value);
    ASSERT_EQ(setenv("MAGUS_JOBS", value, 1), 0);
    EXPECT_EQ(mc::default_job_count(), hardware);
  }
  const std::string at_cap = std::to_string(mc::kMaxWorkers);
  ASSERT_EQ(setenv("MAGUS_JOBS", at_cap.c_str(), 1), 0);
  EXPECT_EQ(mc::default_job_count(), mc::kMaxWorkers);

  ASSERT_EQ(unsetenv("MAGUS_JOBS"), 0);
}

TEST(ThreadPool, SetDefaultJobsResizesDefaultPool) {
  mc::set_default_jobs(2);
  EXPECT_EQ(mc::default_pool().size(), 2u);
  mc::set_default_jobs(5);
  EXPECT_EQ(mc::default_pool().size(), 5u);
  mc::set_default_jobs(0);
  EXPECT_EQ(mc::default_pool().size(), mc::default_job_count());
}
