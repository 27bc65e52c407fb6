#include "magus/hw/uncore_domain.hpp"

#include <cstdio>

#include "magus/common/error.hpp"
#include "magus/common/units.hpp"

namespace magus::hw {

std::string to_string(const DomainId& id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "package_%02d_die_%02d", id.package, id.die);
  return buf;
}

MsrDomainSet::MsrDomainSet(IMsrDevice& msr, UncoreFreqLadder ladder)
    : msr_(msr), ctl_(msr, ladder) {}

void MsrDomainSet::check_domain(int domain) const {
  if (domain != 0) {
    throw common::ConfigError("MsrDomainSet: domain out of range (single-domain set)");
  }
}

DomainId MsrDomainSet::domain_id(int domain) const {
  check_domain(domain);
  return DomainId{0, 0};
}

common::Ghz MsrDomainSet::min_ghz(int domain) {
  check_domain(domain);
  return common::Ghz(ctl_.read_limit(0).min_ghz());
}

common::Ghz MsrDomainSet::max_ghz(int domain) {
  check_domain(domain);
  return common::Ghz(ctl_.read_limit(0).max_ghz());
}

common::Ghz MsrDomainSet::current_ghz(int domain) {
  check_domain(domain);
  const auto ratio = static_cast<unsigned>(msr_.read(0, msr::kUncorePerfStatus));
  return common::Ghz(common::ratio_to_ghz(ratio));
}

void MsrDomainSet::write_max_ghz(int domain, common::Ghz freq) {
  check_domain(domain);
  // The one logical domain spans the whole node, exactly like the legacy path.
  ctl_.set_max_ghz_all(freq.value());
}

void MsrDomainSet::write_min_ghz(int domain, common::Ghz freq) {
  check_domain(domain);
  const unsigned target = ctl_.ladder().clamp_ratio(common::ghz_to_ratio(freq.value()));
  for (int s = 0; s < msr_.socket_count(); ++s) {
    const std::uint64_t raw = msr_.read(s, msr::kUncoreRatioLimit);
    UncoreRatioLimit limit = UncoreRatioLimit::decode(raw);
    if (limit.min_ratio == target) continue;
    limit.min_ratio = target;
    msr_.write(s, msr::kUncoreRatioLimit, limit.encode(raw));
    ++min_writes_;
  }
}

void MsrDomainSet::try_write_max_ghz_each_socket(common::Ghz freq) {
  for (int s = 0; s < msr_.socket_count(); ++s) {
    try {
      ctl_.set_max_ghz(s, freq.value());
    } catch (const common::DeviceError&) {
    }
  }
}

UncoreDomains::UncoreDomains(IUncoreDomainSet* domains, IMsrDevice& msr,
                             const UncoreFreqLadder& ladder)
    : node_(msr, ladder),
      set_(domains != nullptr && domains->domain_count() > 1 ? domains : &node_),
      size_(static_cast<std::size_t>(set_->domain_count())) {}

void UncoreDomains::read_all_mb(IMemThroughputCounter& counter,
                                std::vector<double>& out) const {
  for (std::size_t d = 0; d < size_; ++d) out[d] = read_mb(counter, d);
}

void UncoreDomains::write_all_max_ghz(common::Ghz freq) {
  for (std::size_t d = 0; d < size_; ++d) write_max_ghz(d, freq);
}

void UncoreDomains::release_to_max() {
  const common::Ghz max{ladder().max_ghz()};
  if (whole_node()) {
    node_.try_write_max_ghz_each_socket(max);
    return;
  }
  for (std::size_t d = 0; d < size_; ++d) {
    try {
      write_max_ghz(d, max);
    } catch (const common::DeviceError&) {
    }
  }
}

}  // namespace magus::hw
