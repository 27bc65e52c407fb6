#pragma once
// Structured-event sink: discrete runtime events (uncore retarget,
// high-frequency phase enter/exit, device-read failure) buffered as JSONL —
// one flat JSON object per line, always carrying "t" (seconds, sim or wall
// depending on the producer) and "type". Metrics answer "how much/how
// often"; the event log answers "what happened when".

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "magus/common/thread_annotations.hpp"

namespace magus::telemetry {

/// Builder for one event line. Field order is preserved; "t" and "type"
/// always come first.
class Event {
 public:
  Event(double t, const std::string& type);

  Event& num(const std::string& key, double v);
  Event& str(const std::string& key, const std::string& v);
  Event& flag(const std::string& key, bool v);

  /// The finished single-line JSON object (no trailing newline).
  [[nodiscard]] std::string to_json() const;

 private:
  std::string body_;  // "{...fields" without the closing brace
};

/// Thread-safe in-memory JSONL buffer with explicit flushing.
class EventLog {
 public:
  /// Buffers one event line. Takes the buffer mutex, so it is excluded from
  /// lock-free hot-path sections — the runtime emits events before entering
  /// or after leaving its sample→decide→write core.
  void emit(const Event& e) MAGUS_EXCLUDES(mutex_, common::hot_path_role);

  [[nodiscard]] std::size_t size() const MAGUS_EXCLUDES(mutex_);

  /// Move out all buffered lines, oldest first.
  [[nodiscard]] std::vector<std::string> drain() MAGUS_EXCLUDES(mutex_);

  /// Append all buffered lines to `path` and clear the buffer. On I/O
  /// failure the buffer is kept and common::Error is thrown.
  void flush_to_file(const std::string& path) MAGUS_EXCLUDES(mutex_);

  /// Write all buffered lines to `os` as one block and clear the buffer.
  /// Fail-fast: a stream already in a failed state receives nothing, and on
  /// any failure the buffer is kept and common::Error is thrown (`context`
  /// names the sink in the message). The block write means the stream API
  /// never sees a line split across calls.
  void flush_to_stream(std::ostream& os, const std::string& context = "stream")
      MAGUS_EXCLUDES(mutex_);

 private:
  /// Shared flush body; caller holds mutex_ (compiler-enforced).
  void flush_locked(std::ostream& os, const std::string& context) MAGUS_REQUIRES(mutex_);

  mutable common::AnnotatedMutex mutex_;
  std::vector<std::string> lines_ MAGUS_GUARDED_BY(mutex_);
};

/// JSON string escaping used by Event (exposed for tests/tools).
[[nodiscard]] std::string json_escape(const std::string& s);

/// Minimal parser for EventLog output: a flat JSON object with string,
/// number, or bool values. Returns key -> value map with string values
/// unescaped and numbers/bools as their literal text. Throws
/// common::ConfigError on malformed input.
[[nodiscard]] std::map<std::string, std::string> parse_event_line(const std::string& line);

}  // namespace magus::telemetry
