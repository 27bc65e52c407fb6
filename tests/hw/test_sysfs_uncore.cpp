// SysfsUncoreDomainSet against a generated fake intel_uncore_frequency tree
// (no hardware): discovery and ordering, kHz attribute parsing, max clamp
// write round-trips, and the missing/corrupt attribute error paths. Plus
// UncoreDomains, which picks between the whole-node MSR 0x620 path and a
// domain set for a policy.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "magus/common/error.hpp"
#include "magus/hw/sysfs_uncore.hpp"
#include "magus/hw/uncore_domain.hpp"

namespace fs = std::filesystem;
namespace mh = magus::hw;
namespace mc = magus::common;

namespace {

/// A fake driver tree rooted in the gtest temp dir; removed on destruction
/// so parallel test shards never see each other's domains.
class FakeTree {
 public:
  explicit FakeTree(const std::string& name)
      : root_(fs::path(::testing::TempDir()) / name) {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~FakeTree() { fs::remove_all(root_); }

  [[nodiscard]] std::string root() const { return root_.string(); }

  /// One package_XX_die_YY directory with the full attribute set.
  void add_domain(int package, int die, long long min_khz, long long max_khz,
                  long long current_khz) {
    const fs::path dir = root_ / mh::to_string(mh::DomainId{package, die});
    fs::create_directories(dir);
    write(dir / "min_freq_khz", std::to_string(min_khz));
    write(dir / "max_freq_khz", std::to_string(max_khz));
    write(dir / "current_freq_khz", std::to_string(current_khz));
    write(dir / "initial_min_freq_khz", std::to_string(min_khz));
    write(dir / "initial_max_freq_khz", std::to_string(max_khz));
  }

  void write_attr(int package, int die, const char* attr, const std::string& text) {
    write(root_ / mh::to_string(mh::DomainId{package, die}) / attr, text);
  }

  void remove_attr(int package, int die, const char* attr) {
    fs::remove(root_ / mh::to_string(mh::DomainId{package, die}) / attr);
  }

 private:
  static void write(const fs::path& path, const std::string& text) {
    std::ofstream os(path);
    os << text << "\n";
  }

  fs::path root_;
};

}  // namespace

TEST(SysfsUncoreDomainSet, MissingRootIsCapabilityError) {
  EXPECT_THROW(mh::SysfsUncoreDomainSet(::testing::TempDir() + "/no_such_driver"),
               mc::CapabilityError);
}

TEST(SysfsUncoreDomainSet, EmptyRootIsCapabilityError) {
  FakeTree tree("uncore_empty");
  EXPECT_THROW(mh::SysfsUncoreDomainSet(tree.root()), mc::CapabilityError);
}

TEST(SysfsUncoreDomainSet, DiscoversDomainsInPackageDieOrder) {
  FakeTree tree("uncore_discovery");
  // Added out of order on purpose; discovery must sort by (package, die).
  tree.add_domain(1, 1, 800'000, 2'400'000, 1'500'000);
  tree.add_domain(0, 0, 800'000, 2'200'000, 1'200'000);
  tree.add_domain(1, 0, 800'000, 2'400'000, 1'400'000);
  tree.add_domain(0, 1, 800'000, 2'200'000, 1'300'000);
  // Non-domain clutter the driver root carries on some kernels: ignored.
  fs::create_directories(fs::path(tree.root()) / "not_a_domain");
  std::ofstream(fs::path(tree.root()) / "uncore_attr") << "1\n";

  mh::SysfsUncoreDomainSet set(tree.root());
  ASSERT_EQ(set.domain_count(), 4);
  EXPECT_EQ(set.domain_id(0), (mh::DomainId{0, 0}));
  EXPECT_EQ(set.domain_id(1), (mh::DomainId{0, 1}));
  EXPECT_EQ(set.domain_id(2), (mh::DomainId{1, 0}));
  EXPECT_EQ(set.domain_id(3), (mh::DomainId{1, 1}));
  EXPECT_EQ(mh::to_string(set.domain_id(3)), "package_01_die_01");
}

TEST(SysfsUncoreDomainSet, ParsesKhzAttributesAsGhz) {
  FakeTree tree("uncore_parse");
  tree.add_domain(0, 0, 800'000, 2'200'000, 1'234'567);

  mh::SysfsUncoreDomainSet set(tree.root());
  EXPECT_DOUBLE_EQ(set.min_ghz(0).value(), 0.8);
  EXPECT_DOUBLE_EQ(set.max_ghz(0).value(), 2.2);
  EXPECT_DOUBLE_EQ(set.current_ghz(0).value(), 1.234567);
  EXPECT_DOUBLE_EQ(set.initial_min_ghz(0).value(), 0.8);
  EXPECT_DOUBLE_EQ(set.initial_max_ghz(0).value(), 2.2);
}

TEST(SysfsUncoreDomainSet, WriteClampsRoundTripThroughTheTree) {
  FakeTree tree("uncore_write");
  tree.add_domain(0, 0, 800'000, 2'200'000, 1'200'000);
  tree.add_domain(0, 1, 800'000, 2'200'000, 1'200'000);

  mh::SysfsUncoreDomainSet set(tree.root());
  set.write_max_ghz(1, mc::Ghz(1.5));

  // Reads go back through the files, so this checks the on-disk integers.
  EXPECT_DOUBLE_EQ(set.max_ghz(1).value(), 1.5);
  // The min clamp and the sibling domain are untouched.
  EXPECT_DOUBLE_EQ(set.min_ghz(1).value(), 0.8);
  EXPECT_DOUBLE_EQ(set.max_ghz(0).value(), 2.2);

  // The attribute file itself holds a bare integer kHz count.
  std::ifstream is(set.domain_dir(1) + "/max_freq_khz");
  std::string text;
  std::getline(is, text);
  EXPECT_EQ(text, "1500000");
}

TEST(SysfsUncoreDomainSet, MissingAttributeIsDeviceError) {
  FakeTree tree("uncore_missing_attr");
  tree.add_domain(0, 0, 800'000, 2'200'000, 1'200'000);
  tree.remove_attr(0, 0, "current_freq_khz");

  mh::SysfsUncoreDomainSet set(tree.root());
  EXPECT_THROW((void)set.current_ghz(0), mc::DeviceError);
  EXPECT_DOUBLE_EQ(set.max_ghz(0).value(), 2.2);  // siblings attrs still fine
}

TEST(SysfsUncoreDomainSet, CorruptAttributeIsDeviceError) {
  FakeTree tree("uncore_corrupt");
  tree.add_domain(0, 0, 800'000, 2'200'000, 1'200'000);

  mh::SysfsUncoreDomainSet set(tree.root());
  for (const char* bad : {"garbage", "12x34", "", "-800000", "1.5e6"}) {
    tree.write_attr(0, 0, "min_freq_khz", bad);
    EXPECT_THROW((void)set.min_ghz(0), mc::DeviceError) << "content '" << bad << "'";
  }
  // Trailing whitespace after the integer is how real sysfs files look: ok.
  tree.write_attr(0, 0, "min_freq_khz", "800000 ");
  EXPECT_DOUBLE_EQ(set.min_ghz(0).value(), 0.8);
}

TEST(SysfsUncoreDomainSet, DomainIndexOutOfRangeIsConfigError) {
  FakeTree tree("uncore_range");
  tree.add_domain(0, 0, 800'000, 2'200'000, 1'200'000);

  mh::SysfsUncoreDomainSet set(tree.root());
  EXPECT_THROW((void)set.domain_id(-1), mc::ConfigError);
  EXPECT_THROW((void)set.max_ghz(1), mc::ConfigError);
  EXPECT_THROW(set.write_max_ghz(1, mc::Ghz(1.0)), mc::ConfigError);
}

namespace {

class FakeMsr final : public mh::IMsrDevice {
 public:
  explicit FakeMsr(int sockets) : sockets_(sockets) {}

  int socket_count() const override { return sockets_; }

  std::uint64_t read(int socket, std::uint32_t reg) override {
    ++reads;
    return regs_[key(socket, reg)];
  }

  void write(int socket, std::uint32_t reg, std::uint64_t value) override {
    ++writes;
    regs_[key(socket, reg)] = value;
  }

  int reads = 0;
  int writes = 0;

 private:
  static std::uint64_t key(int socket, std::uint32_t reg) {
    return (static_cast<std::uint64_t>(socket) << 32) | reg;
  }
  int sockets_;
  std::map<std::uint64_t, std::uint64_t> regs_;
};

/// Aggregate counter 1000 MB; domain d reports 100 + d MB.
class SplitCounter final : public mh::IMemThroughputCounter {
 public:
  double total_mb() override {
    ++total_reads;
    return 1'000.0;
  }
  double domain_mb(int domain) override { return 100.0 + domain; }
  int total_reads = 0;
};

/// FakeMsr whose writes to one socket always fail.
class DeadSocketMsr final : public mh::IMsrDevice {
 public:
  explicit DeadSocketMsr(int dead) : dead_(dead) {}
  int socket_count() const override { return 2; }
  std::uint64_t read(int, std::uint32_t) override { return 0; }
  void write(int socket, std::uint32_t, std::uint64_t) override {
    ++attempts;
    if (socket == dead_) throw mc::DeviceError("dead socket");
  }
  int attempts = 0;

 private:
  int dead_;
};

}  // namespace

TEST(UncoreDomains, NoSetOrOneDomainIsTheWholeNode) {
  FakeTree tree("uncore_one_domain");
  tree.add_domain(0, 0, 800'000, 2'200'000, 1'200'000);
  mh::SysfsUncoreDomainSet one(tree.root());
  ASSERT_EQ(one.domain_count(), 1);
  const mh::UncoreFreqLadder ladder(0.8, 2.2);
  for (mh::IUncoreDomainSet* set : {static_cast<mh::IUncoreDomainSet*>(nullptr),
                                    static_cast<mh::IUncoreDomainSet*>(&one)}) {
    FakeMsr msr(2);
    SplitCounter counter;
    mh::UncoreDomains domains(set, msr, ladder);
    ASSERT_EQ(domains.size(), 1u);
    EXPECT_TRUE(domains.whole_node());
    // The whole node makes one aggregate counter read, never a domain share.
    EXPECT_DOUBLE_EQ(domains.read_mb(counter, 0), 1'000.0);
    EXPECT_EQ(counter.total_reads, 1);
    // Writes are one 0x620 burst over both sockets; a repeat finds the limit
    // already programmed and writes nothing.
    domains.write_max_ghz(0, mc::Ghz(1.5));
    EXPECT_EQ(msr.writes, 2);
    domains.write_max_ghz(0, mc::Ghz(1.5));
    EXPECT_EQ(msr.writes, 2);
    EXPECT_EQ(msr.reads, 4);
  }
  // The one-domain set itself is never written.
  EXPECT_DOUBLE_EQ(one.max_ghz(0).value(), 2.2);
}

TEST(UncoreDomains, AMultiDomainSetIsControlledPerDomain) {
  FakeTree tree("uncore_policy_domains");
  for (int p = 0; p < 2; ++p) {
    for (int d = 0; d < 2; ++d) tree.add_domain(p, d, 800'000, 2'200'000, 1'200'000);
  }
  mh::SysfsUncoreDomainSet set(tree.root());
  FakeMsr msr(2);
  const mh::UncoreFreqLadder ladder(0.8, 2.2);
  SplitCounter counter;
  mh::UncoreDomains domains(&set, msr, ladder);
  ASSERT_EQ(domains.size(), 4u);
  EXPECT_FALSE(domains.whole_node());
  std::vector<double> mb(4, 0.0);
  domains.read_all_mb(counter, mb);
  EXPECT_EQ(mb, (std::vector<double>{100.0, 101.0, 102.0, 103.0}));

  domains.write_max_ghz(2, mc::Ghz(1.5));
  EXPECT_DOUBLE_EQ(set.max_ghz(2).value(), 1.5);
  EXPECT_DOUBLE_EQ(set.max_ghz(1).value(), 2.2);
  EXPECT_EQ(msr.writes, 0);  // the node's MSR path is not touched
}

TEST(UncoreDomains, ReleaseTriesEverySocketOnce) {
  // A 0x620 burst stops at its first failing socket; the best-effort
  // release still reaches the socket after it.
  DeadSocketMsr msr(/*dead=*/0);
  const mh::UncoreFreqLadder ladder(0.8, 2.2);
  mh::UncoreDomains domains(nullptr, msr, ladder);
  EXPECT_THROW(domains.write_max_ghz(0, mc::Ghz(1.0)), mc::DeviceError);
  EXPECT_EQ(msr.attempts, 1);
  msr.attempts = 0;
  EXPECT_NO_THROW(domains.release_to_max());
  EXPECT_EQ(msr.attempts, 2);
}
