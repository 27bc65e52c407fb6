// Negative-compile test (Clang -Wthread-safety -Werror): calling a
// MAGUS_REQUIRES(mu) helper without holding `mu` must not compile. This is
// the fetch_or_create pattern used by MetricsRegistry.
#include "magus/common/thread_annotations.hpp"

namespace {

class Registry {
 public:
  int lookup_locked() MAGUS_REQUIRES(mu_) { return entries_; }

  int bad_lookup() {
    return lookup_locked();  // mu_ not held: -Wthread-safety rejects the call
  }

 private:
  magus::common::AnnotatedMutex mu_;
  int entries_ MAGUS_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Registry r;
  return r.bad_lookup();
}
