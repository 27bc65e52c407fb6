// Linux backends, exercised against fake sysfs trees in a temp directory.
// (Real /dev/cpu/*/msr access requires root + the msr module; probing and
// error taxonomy are what we can verify everywhere, including CI containers.)

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "magus/common/error.hpp"
#include "magus/hw/linux_backend.hpp"

namespace mh = magus::hw;
namespace mc = magus::common;
namespace fs = std::filesystem;

namespace {

class FakeTree : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("magus_hw_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void write_file(const fs::path& rel, const std::string& content) {
    fs::create_directories((root_ / rel).parent_path());
    std::ofstream os(root_ / rel);
    os << content;
  }

  fs::path root_;
};

using PowercapTest = FakeTree;

}  // namespace

TEST(ProbeHost, ReturnsConsistentCapabilities) {
  const auto caps = mh::probe_host();
  EXPECT_GT(caps.online_cpus, 0);
  // In this container none of the privileged facilities should explode; the
  // booleans just reflect the filesystem.
  SUCCEED();
}

TEST(LinuxMsrDevice, EmptySocketListRejected) {
  EXPECT_THROW(mh::LinuxMsrDevice({}), mc::ConfigError);
}

TEST(LinuxMsrDevice, MissingDeviceIsCapabilityError) {
  // CPU id 99999 cannot exist -> ENOENT -> CapabilityError, not DeviceError.
  EXPECT_THROW(mh::LinuxMsrDevice({99999}), mc::CapabilityError);
}

TEST_F(PowercapTest, MissingTreeIsCapabilityError) {
  EXPECT_THROW(mh::PowercapEnergyCounter((root_ / "nope").string()),
               mc::CapabilityError);
}

TEST_F(PowercapTest, EmptyTreeIsCapabilityError) {
  EXPECT_THROW(mh::PowercapEnergyCounter(root_.string()), mc::CapabilityError);
}

TEST_F(PowercapTest, ParsesPackageAndDramZones) {
  write_file("intel-rapl:0/energy_uj", "123456789\n");
  write_file("intel-rapl:0/intel-rapl:0:0/name", "dram\n");
  write_file("intel-rapl:0/intel-rapl:0:0/energy_uj", "5000000\n");
  write_file("intel-rapl:1/energy_uj", "42\n");

  mh::PowercapEnergyCounter rapl(root_.string());
  EXPECT_EQ(rapl.socket_count(), 2);
  EXPECT_NEAR(rapl.pkg_energy_j(0), 123.456789, 1e-9);
  EXPECT_NEAR(rapl.dram_energy_j(0), 5.0, 1e-9);
  EXPECT_NEAR(rapl.pkg_energy_j(1), 42e-6, 1e-12);
  // Socket 1 has no dram child: reads as 0 rather than failing.
  EXPECT_DOUBLE_EQ(rapl.dram_energy_j(1), 0.0);
}

TEST_F(PowercapTest, IgnoresNonDramChildren) {
  write_file("intel-rapl:0/energy_uj", "1000000\n");
  write_file("intel-rapl:0/intel-rapl:0:0/name", "core\n");
  write_file("intel-rapl:0/intel-rapl:0:0/energy_uj", "999\n");
  mh::PowercapEnergyCounter rapl(root_.string());
  EXPECT_DOUBLE_EQ(rapl.dram_energy_j(0), 0.0);
}

TEST_F(PowercapTest, SocketOutOfRangeThrows) {
  write_file("intel-rapl:0/energy_uj", "1\n");
  mh::PowercapEnergyCounter rapl(root_.string());
  EXPECT_THROW((void)rapl.pkg_energy_j(5), mc::ConfigError);
  EXPECT_THROW((void)rapl.dram_energy_j(-1), mc::ConfigError);
}
