#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "magus/common/error.hpp"
#include "magus/telemetry/event_log.hpp"

namespace mt = magus::telemetry;

TEST(TelemetryEventLog, EventToJsonExact) {
  const mt::Event e = mt::Event(1.5, "uncore_retarget")
                          .num("target_ghz", 2.0)
                          .str("why", "derivative")
                          .flag("high_freq", true);
  EXPECT_EQ(e.to_json(),
            "{\"t\":1.5,\"type\":\"uncore_retarget\",\"target_ghz\":2,"
            "\"why\":\"derivative\",\"high_freq\":true}");
}

TEST(TelemetryEventLog, JsonEscaping) {
  EXPECT_EQ(mt::json_escape("plain"), "plain");
  EXPECT_EQ(mt::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(mt::json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(mt::json_escape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(TelemetryEventLog, ParseEventLineRoundTrips) {
  const mt::Event e = mt::Event(0.25, "device_read_failure")
                          .str("what", "read \"failed\"\n")
                          .num("consecutive", 3.0)
                          .flag("fatal", false);
  const auto fields = mt::parse_event_line(e.to_json());
  EXPECT_EQ(fields.at("t"), "0.25");
  EXPECT_EQ(fields.at("type"), "device_read_failure");
  EXPECT_EQ(fields.at("what"), "read \"failed\"\n");
  EXPECT_EQ(fields.at("consecutive"), "3");
  EXPECT_EQ(fields.at("fatal"), "false");
}

TEST(TelemetryEventLog, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)mt::parse_event_line(""), magus::common::Error);
  EXPECT_THROW((void)mt::parse_event_line("not json"), magus::common::Error);
  EXPECT_THROW((void)mt::parse_event_line("{\"t\":1"), magus::common::Error);
}

TEST(TelemetryEventLog, UnicodeEscapeNeedsExactlyFourHexDigits) {
  EXPECT_EQ(mt::parse_event_line(R"({"s":"\u0041\u00e9"})").at("s"), "A\xe9");
  EXPECT_THROW((void)mt::parse_event_line(R"({"s":"\u00zz"})"), magus::common::ConfigError);
  EXPECT_THROW((void)mt::parse_event_line(R"({"s":"\u 041"})"), magus::common::ConfigError);
  EXPECT_THROW((void)mt::parse_event_line(R"({"s":"\u+041"})"), magus::common::ConfigError);
  EXPECT_THROW((void)mt::parse_event_line(R"({"s":"\uzzzz"})"), magus::common::ConfigError);
}

TEST(TelemetryEventLog, EmitAndDrainPreservesOrder) {
  mt::EventLog log;
  EXPECT_EQ(log.size(), 0u);
  log.emit(mt::Event(0.0, "first"));
  log.emit(mt::Event(1.0, "second"));
  EXPECT_EQ(log.size(), 2u);
  const auto lines = log.drain();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(mt::parse_event_line(lines[0]).at("type"), "first");
  EXPECT_EQ(mt::parse_event_line(lines[1]).at("type"), "second");
  EXPECT_EQ(log.size(), 0u);
}

TEST(TelemetryEventLog, FlushToFileAppendsAndClears) {
  const std::string path = ::testing::TempDir() + "/magus_events_test.jsonl";
  std::remove(path.c_str());

  mt::EventLog log;
  log.emit(mt::Event(0.0, "a"));
  log.flush_to_file(path);
  EXPECT_EQ(log.size(), 0u);
  log.emit(mt::Event(1.0, "b"));
  log.flush_to_file(path);  // second flush must append, not truncate

  std::ifstream is(path);
  std::string l1, l2;
  ASSERT_TRUE(std::getline(is, l1));
  ASSERT_TRUE(std::getline(is, l2));
  EXPECT_EQ(mt::parse_event_line(l1).at("type"), "a");
  EXPECT_EQ(mt::parse_event_line(l2).at("type"), "b");
  std::remove(path.c_str());
}

TEST(TelemetryEventLog, FlushFailureKeepsBuffer) {
  mt::EventLog log;
  log.emit(mt::Event(0.0, "kept"));
  EXPECT_THROW(log.flush_to_file("/nonexistent-dir/events.jsonl"),
               magus::common::Error);
  EXPECT_EQ(log.size(), 1u);
}

TEST(TelemetryEventLog, FlushToFailedStreamThrowsAndKeepsBuffer) {
  mt::EventLog log;
  log.emit(mt::Event(0.0, "a"));
  log.emit(mt::Event(1.0, "b"));

  // A stream that is already broken must be refused up front.
  std::ostringstream dead;
  dead.setstate(std::ios::badbit);
  EXPECT_THROW(log.flush_to_stream(dead, "dead-sink"), magus::common::Error);
  EXPECT_EQ(log.size(), 2u);

  // After the failure, everything flushes to a good sink — whole lines, in
  // order, nothing lost or duplicated.
  std::ostringstream good;
  log.flush_to_stream(good, "good-sink");
  EXPECT_EQ(log.size(), 0u);
  std::istringstream lines(good.str());
  std::string l1, l2, extra;
  ASSERT_TRUE(std::getline(lines, l1));
  ASSERT_TRUE(std::getline(lines, l2));
  EXPECT_FALSE(std::getline(lines, extra));
  EXPECT_EQ(mt::parse_event_line(l1).at("type"), "a");
  EXPECT_EQ(mt::parse_event_line(l2).at("type"), "b");
}

TEST(TelemetryEventLog, MidWriteFailureNeverEmitsAPartialLine) {
  // A filebuf over /dev/full takes the buffered bytes but fails the flush:
  // the write error is detected, reported, and the buffer survives intact.
  std::ofstream full("/dev/full");
  if (!full.good()) GTEST_SKIP() << "/dev/full not available";

  mt::EventLog log;
  log.emit(mt::Event(0.0, "survivor"));
  EXPECT_THROW(log.flush_to_stream(full, "/dev/full"), magus::common::Error);
  EXPECT_EQ(log.size(), 1u);

  std::ostringstream good;
  log.flush_to_stream(good);
  EXPECT_EQ(mt::parse_event_line(good.str()).at("type"), "survivor");
}

TEST(TelemetryEventLog, FlushOfEmptyLogIsANoOpEvenOnBadStream) {
  mt::EventLog log;
  std::ostringstream dead;
  dead.setstate(std::ios::badbit);
  EXPECT_NO_THROW(log.flush_to_stream(dead));  // nothing to lose, nothing thrown
}
