#pragma once
// Host-speed probe for the end-to-end timings.
//
// The benchmark host is a shared VM whose speed drifts by +-20 % over tens
// of seconds, for all code alike: a single-threaded loop that touches no
// MAGUS code drifts in step with the fleet runs. Timings taken in a slow
// stretch would read as a regression. So every timed op is bracketed by this
// probe -- a fixed floating-point loop with the tick kernel's instruction
// mix (exp, pow, clamps over a 32 KiB array), owned by the benchmark and run
// on as many threads as the workloads use -- and the op's host times are
// scaled to a host running the probe at kNominalChunksPerS. Measured on
// 6 processes of 16-36 ops each, this cut the run-to-run spread of median
// throughput from 16-19 % to 3-5 %.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Probe speed the end-to-end times are scaled to (chunks per second).
inline constexpr double kNominalChunksPerS = 2000.0;

/// Runs 48 fixed chunks of work on `threads` threads; returns chunks per
/// host second.
inline double host_speed(std::size_t threads) {
  constexpr std::size_t kChunks = 48;
  auto chunk = [](std::size_t c) {
    std::vector<double> state(4096, 1.0 + 0.001 * static_cast<double>(c));
    double acc = 0.0;
    for (int pass = 0; pass < 12; ++pass) {
      for (std::size_t i = 0; i < state.size(); ++i) {
        double x = state[i];
        x = x * 0.999 +
            std::exp(-0.002 / (0.15 + 0.001 * static_cast<double>(i & 7))) * 0.001 +
            std::pow(0.5 + 0.0001 * static_cast<double>(i & 15), 0.7) * 1e-4;
        state[i] = std::min(2.0, std::max(0.5, x));
        acc += x;
      }
    }
    keep(acc);
  };
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> helpers;  // joined when the scope ends
    for (std::size_t t = 1; t < threads; ++t) {
      helpers.emplace_back([&, t] {
        for (std::size_t c = t; c < kChunks; c += threads) chunk(c);
      });
    }
    for (std::size_t c = 0; c < kChunks; c += threads) chunk(c);
  }
  return static_cast<double>(kChunks) / seconds_since(t0);
}

}  // namespace perfbench
