#include "magus/hw/sysfs_uncore.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "magus/common/error.hpp"

namespace fs = std::filesystem;

namespace magus::hw {

namespace {

/// Parse a `package_XX_die_YY` directory name. Returns false for anything
/// else (the driver root also holds non-domain attribute files on some
/// kernels).
[[nodiscard]] bool parse_domain_name(const std::string& name, DomainId& id) {
  int package = 0;
  int die = 0;
  char extra = 0;
  if (std::sscanf(name.c_str(), "package_%d_die_%d%c", &package, &die, &extra) != 2) {
    return false;
  }
  if (package < 0 || die < 0) return false;
  id = DomainId{package, die};
  return true;
}

[[nodiscard]] std::string read_first_line(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw common::DeviceError("cannot read " + path);
  std::string content;
  std::getline(is, content);
  return content;
}

/// Sysfs kHz attributes are a single decimal integer; anything else is a
/// corrupt attribute and surfaces as DeviceError, not a silent zero.
[[nodiscard]] long long parse_khz(const std::string& text, const std::string& path) {
  const char* s = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(s, &end, 10);
  while (end && (*end == ' ' || *end == '\t' || *end == '\r')) ++end;
  if (end == s || (end && *end != '\0') || errno == ERANGE || value < 0) {
    throw common::DeviceError("corrupt kHz attribute '" + text + "' in " + path);
  }
  return value;
}

void write_line(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  if (!os) throw common::DeviceError("cannot open " + path + " for write");
  os << text;
  os.flush();
  if (!os) throw common::DeviceError("short write to " + path);
}

}  // namespace

const std::string& uncore_freq_sysfs_root() {
  static const std::string kRoot = "/sys/devices/system/cpu/intel_uncore_frequency";
  return kRoot;
}

SysfsUncoreDomainSet::SysfsUncoreDomainSet(std::string root) {
  const fs::path base(root);
  if (!fs::exists(base)) {
    throw common::CapabilityError("intel_uncore_frequency driver missing: " + root);
  }
  for (const auto& entry : fs::directory_iterator(base)) {
    if (!entry.is_directory()) continue;
    DomainId id;
    if (!parse_domain_name(entry.path().filename().string(), id)) continue;
    domains_.push_back(Domain{id, entry.path().string()});
  }
  std::sort(domains_.begin(), domains_.end(), [](const Domain& a, const Domain& b) {
    return a.id.package != b.id.package ? a.id.package < b.id.package
                                        : a.id.die < b.id.die;
  });
  if (domains_.empty()) {
    throw common::CapabilityError("no package_XX_die_YY dirs under " + root);
  }
}

const SysfsUncoreDomainSet::Domain& SysfsUncoreDomainSet::domain_at(int domain) const {
  if (domain < 0 || domain >= domain_count()) {
    throw common::ConfigError("SysfsUncoreDomainSet: domain out of range");
  }
  return domains_[static_cast<std::size_t>(domain)];
}

DomainId SysfsUncoreDomainSet::domain_id(int domain) const { return domain_at(domain).id; }

const std::string& SysfsUncoreDomainSet::domain_dir(int domain) const {
  return domain_at(domain).dir;
}

common::Ghz SysfsUncoreDomainSet::read_khz_attr(int domain, const char* attr) {
  const std::string path = domain_at(domain).dir + "/" + attr;
  const long long khz = parse_khz(read_first_line(path), path);
  return common::to_ghz(common::Khz(static_cast<double>(khz)));
}

common::Ghz SysfsUncoreDomainSet::min_ghz(int domain) {
  return read_khz_attr(domain, "min_freq_khz");
}

common::Ghz SysfsUncoreDomainSet::max_ghz(int domain) {
  return read_khz_attr(domain, "max_freq_khz");
}

common::Ghz SysfsUncoreDomainSet::current_ghz(int domain) {
  return read_khz_attr(domain, "current_freq_khz");
}

common::Ghz SysfsUncoreDomainSet::initial_min_ghz(int domain) {
  return read_khz_attr(domain, "initial_min_freq_khz");
}

common::Ghz SysfsUncoreDomainSet::initial_max_ghz(int domain) {
  return read_khz_attr(domain, "initial_max_freq_khz");
}

void SysfsUncoreDomainSet::write_max_ghz(int domain, common::Ghz freq) {
  const long long khz = std::llround(common::to_khz(freq).value());
  write_line(domain_at(domain).dir + "/max_freq_khz", std::to_string(khz));
}

}  // namespace magus::hw
