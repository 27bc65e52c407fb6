#include "magus/hw/linux_backend.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "magus/common/error.hpp"
#include "magus/hw/sysfs_uncore.hpp"

namespace fs = std::filesystem;

namespace magus::hw {

namespace {

[[nodiscard]] std::string read_text_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw common::DeviceError("cannot read " + path);
  std::string content;
  std::getline(is, content);
  return content;
}

[[nodiscard]] long long read_ll_file(const std::string& path) {
  return std::stoll(read_text_file(path));
}

}  // namespace

HostCapabilities probe_host() {
  HostCapabilities caps;
  caps.msr_dev = ::access("/dev/cpu/0/msr", R_OK) == 0;
  caps.rapl_powercap = fs::exists("/sys/class/powercap/intel-rapl");
  caps.uncore_freq_sysfs = fs::exists(uncore_freq_sysfs_root());
  caps.online_cpus = static_cast<int>(std::thread::hardware_concurrency());
  return caps;
}

LinuxMsrDevice::LinuxMsrDevice(std::vector<int> socket_cpus) {
  if (socket_cpus.empty()) throw common::ConfigError("LinuxMsrDevice: no sockets");
  fds_.reserve(socket_cpus.size());
  for (int cpu : socket_cpus) {
    const std::string path = "/dev/cpu/" + std::to_string(cpu) + "/msr";
    const int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0) {
      const int err = errno;
      for (int f : fds_) ::close(f);
      if (err == ENOENT) {
        throw common::CapabilityError("msr device missing: " + path +
                                      " (is the msr kernel module loaded?)");
      }
      throw common::DeviceError("cannot open " + path + ": " +
                                std::strerror(err));  // NOLINT(concurrency-mt-unsafe)
    }
    fds_.push_back(fd);
  }
}

LinuxMsrDevice::~LinuxMsrDevice() {
  for (int fd : fds_) ::close(fd);
}

int LinuxMsrDevice::socket_count() const { return static_cast<int>(fds_.size()); }

std::uint64_t LinuxMsrDevice::read(int socket, std::uint32_t reg) {
  if (socket < 0 || socket >= socket_count()) {
    throw common::ConfigError("LinuxMsrDevice: socket out of range");
  }
  std::uint64_t value = 0;
  const ssize_t n =
      ::pread(fds_[static_cast<std::size_t>(socket)], &value, sizeof(value), reg);
  if (n != static_cast<ssize_t>(sizeof(value))) {
    throw common::DeviceError("MSR read failed (reg " + std::to_string(reg) + ")");
  }
  return value;
}

void LinuxMsrDevice::write(int socket, std::uint32_t reg, std::uint64_t value) {
  if (socket < 0 || socket >= socket_count()) {
    throw common::ConfigError("LinuxMsrDevice: socket out of range");
  }
  const ssize_t n =
      ::pwrite(fds_[static_cast<std::size_t>(socket)], &value, sizeof(value), reg);
  if (n != static_cast<ssize_t>(sizeof(value))) {
    throw common::DeviceError("MSR write failed (reg " + std::to_string(reg) + ")");
  }
}

PowercapEnergyCounter::PowercapEnergyCounter(std::string root) {
  const fs::path base(root);
  if (!fs::exists(base)) {
    throw common::CapabilityError("powercap tree missing: " + root);
  }
  // Top-level package zones are named intel-rapl:<n>; dram is a child zone
  // whose `name` file reads "dram".
  for (int n = 0;; ++n) {
    const fs::path zone = base / ("intel-rapl:" + std::to_string(n));
    if (!fs::exists(zone)) break;
    Zone z;
    z.pkg_path = (zone / "energy_uj").string();
    for (int c = 0;; ++c) {
      const fs::path child = zone / ("intel-rapl:" + std::to_string(n) + ":" +
                                     std::to_string(c));
      if (!fs::exists(child)) break;
      if (fs::exists(child / "name") &&
          read_text_file((child / "name").string()) == "dram") {
        z.dram_path = (child / "energy_uj").string();
      }
    }
    zones_.push_back(std::move(z));
  }
  if (zones_.empty()) {
    throw common::CapabilityError("no intel-rapl zones under " + root);
  }
}

int PowercapEnergyCounter::socket_count() const { return static_cast<int>(zones_.size()); }

double PowercapEnergyCounter::pkg_energy_j(int socket) {
  if (socket < 0 || socket >= socket_count()) {
    throw common::ConfigError("PowercapEnergyCounter: socket out of range");
  }
  const auto& zone = zones_[static_cast<std::size_t>(socket)];
  return static_cast<double>(read_ll_file(zone.pkg_path)) * 1e-6;
}

double PowercapEnergyCounter::dram_energy_j(int socket) {
  if (socket < 0 || socket >= socket_count()) {
    throw common::ConfigError("PowercapEnergyCounter: socket out of range");
  }
  const auto& zone = zones_[static_cast<std::size_t>(socket)];
  if (zone.dram_path.empty()) return 0.0;
  return static_cast<double>(read_ll_file(zone.dram_path)) * 1e-6;
}

}  // namespace magus::hw
