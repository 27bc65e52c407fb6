#include "magus/hw/uncore_domain.hpp"

#include <cstdio>

#include "magus/common/error.hpp"

namespace magus::hw {

std::string to_string(const DomainId& id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "package_%02d_die_%02d", id.package, id.die);
  return buf;
}

UncoreDomains::UncoreDomains(IUncoreDomainSet* domains, IMsrDevice& msr,
                             const UncoreFreqLadder& ladder)
    : node_(msr, ladder),
      set_(domains != nullptr && domains->domain_count() > 1 ? domains : nullptr),
      size_(set_ != nullptr ? static_cast<std::size_t>(set_->domain_count()) : 1) {}

void UncoreDomains::read_all_mb(IMemThroughputCounter& counter,
                                std::vector<double>& out) const {
  for (std::size_t d = 0; d < size_; ++d) out[d] = read_mb(counter, d);
}

void UncoreDomains::write_all_max_ghz(common::Ghz freq) {
  for (std::size_t d = 0; d < size_; ++d) write_max_ghz(d, freq);
}

void UncoreDomains::release_to_max() {
  const common::Ghz max{ladder().max_ghz()};
  const bool node = whole_node();
  const int n = node ? node_.socket_count() : static_cast<int>(size_);
  for (int i = 0; i < n; ++i) {
    try {
      if (node) {
        node_.set_max_ghz(i, max.value());
      } else {
        set_->write_max_ghz(i, max);
      }
    } catch (const common::DeviceError&) {
    }
  }
}

}  // namespace magus::hw
