// Golden digests of the trace channels exp::run_policy records.
//
// Traces are the one engine output the rollup and bit-pattern goldens do not
// cover: they are sampled inside the tick loop, off the result path. Each
// channel is pinned by its sample count and an FNV-1a digest over the raw
// IEEE-754 bytes of every (t, v) pair, so any change to the sampling cadence,
// the recorded quantity, or a single bit of either fails here with the
// channel named. The digests were captured from the build before the
// simulator's per-node state moved onto the shared lane storage.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "magus/exp/experiment.hpp"
#include "magus/sim/system_preset.hpp"
#include "magus/wl/catalog.hpp"

namespace me = magus::exp;
namespace ms = magus::sim;

namespace {

struct ChannelGolden {
  const char* name;
  std::size_t samples;
  std::uint64_t digest;
};

std::uint64_t fnv1a_samples(const magus::trace::TimeSeries& series) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](double v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(v));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  };
  for (const magus::trace::Sample& s : series.samples()) {
    mix(s.t);
    mix(s.v);
  }
  return h;
}

void check_traces(const ms::SystemSpec& system, const std::vector<ChannelGolden>& golden) {
  me::RunOptions opts;
  opts.engine.record_traces = true;
  const me::RunOutput out =
      me::run_policy(system, magus::wl::make_workload("bfs"), "magus", opts);

  std::vector<std::string> expected_names;
  for (const ChannelGolden& g : golden) expected_names.emplace_back(g.name);
  EXPECT_EQ(out.traces.channels(), expected_names);

  for (const ChannelGolden& g : golden) {
    if (!out.traces.has(g.name)) continue;  // reported by the list check
    const magus::trace::TimeSeries& series = out.traces.series(g.name);
    EXPECT_EQ(series.size(), g.samples) << g.name;
    EXPECT_EQ(fnv1a_samples(series), g.digest)
        << g.name << ": got 0x" << std::hex << fnv1a_samples(series) << std::dec;
  }
}

}  // namespace

TEST(TraceGolden, MagusBfsSingleDie) {
  const std::vector<ChannelGolden> golden = {
      {"core_freq_ghz_0", 693, 0x787c2fe17f76c0e7ull},
      {"core_freq_ghz_1", 693, 0xda01676747a75224ull},
      {"core_freq_ghz_2", 693, 0x741aab675760be7dull},
      {"core_freq_ghz_3", 693, 0x4c70eb7742ba21eaull},
      {"cpu_pkg_power_w", 693, 0xed890c0137999772ull},
      {"dram_power_w", 693, 0x351dfd645ff69f00ull},
      {"gpu_clock_ghz", 693, 0x3cd577950167e9f5ull},
      {"gpu_power_w", 693, 0x5eb80bc2cbdd5160ull},
      {"mem_demand_mbps", 693, 0xad046f3b052bcecdull},
      {"mem_throughput_mbps", 693, 0x7d5cf9779caab1f4ull},
      {"total_power_w", 693, 0x11833260aea7c016ull},
      {"uncore_freq_ghz", 693, 0xe34478fbfb232e9full},
  };
  check_traces(ms::intel_a100(), golden);
}

TEST(TraceGolden, MagusBfsTwoDieNumaSkewed) {
  ms::SystemSpec system = ms::intel_a100();
  system.cpu.dies_per_socket = 2;
  system.numa_skew = 0.3;
  const std::vector<ChannelGolden> golden = {
      {"core_freq_ghz_0", 707, 0xe7b35c9d0b5bde68ull},
      {"core_freq_ghz_1", 707, 0xb0c46056193840cull},
      {"core_freq_ghz_2", 707, 0xdd2c31029c8d28fcull},
      {"core_freq_ghz_3", 707, 0x653d8242a173f846ull},
      {"cpu_pkg_power_w", 707, 0x465a2f58f0cd70c6ull},
      {"dram_power_w", 707, 0xfd33631c2dccbc10ull},
      {"gpu_clock_ghz", 707, 0xbbffe6f9b2a83fd3ull},
      {"gpu_power_w", 707, 0x92c26efc5e41143ull},
      {"mem_demand_mbps", 707, 0x6443f75f5405ec36ull},
      {"mem_throughput_mbps", 707, 0xf8d25cd5f2782b8ull},
      {"total_power_w", 707, 0xddd4e7727eb244caull},
      {"uncore_freq_ghz", 707, 0xe9a6622d3dfb687full},
  };
  check_traces(system, golden);
}
