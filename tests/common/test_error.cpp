#include <gtest/gtest.h>

#include "magus/common/error.hpp"

namespace mc = magus::common;

TEST(ErrorTaxonomy, HierarchyIsCatchable) {
  // Callers must be able to separate "facility absent" from "access failed".
  try {
    throw mc::CapabilityError("no msr module");
  } catch (const mc::Error& e) {
    EXPECT_STREQ(e.what(), "no msr module");
  }
  try {
    throw mc::DeviceError("short read");
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "short read");
  }
  EXPECT_THROW(throw mc::ConfigError("bad"), mc::Error);
}

TEST(ErrorTaxonomy, TypesAreDistinct) {
  bool caught_capability = false;
  try {
    throw mc::CapabilityError("x");
  } catch (const mc::DeviceError&) {
    FAIL() << "CapabilityError must not be a DeviceError";
  } catch (const mc::CapabilityError&) {
    caught_capability = true;
  }
  EXPECT_TRUE(caught_capability);
}
