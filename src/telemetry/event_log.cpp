#include "magus/telemetry/event_log.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <system_error>

#include "magus/common/error.hpp"
#include "magus/telemetry/registry.hpp"  // format_double

namespace magus::telemetry {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c) & 0xff);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Event::Event(double t, const std::string& type) {
  body_ = "{\"t\":" + format_double(t) + ",\"type\":\"" + json_escape(type) + "\"";
}

Event& Event::num(const std::string& key, double v) {
  body_ += ",\"" + json_escape(key) + "\":" + format_double(v);
  return *this;
}

Event& Event::str(const std::string& key, const std::string& v) {
  body_ += ",\"" + json_escape(key) + "\":\"" + json_escape(v) + "\"";
  return *this;
}

Event& Event::flag(const std::string& key, bool v) {
  body_ += ",\"" + json_escape(key) + "\":" + (v ? "true" : "false");
  return *this;
}

std::string Event::to_json() const { return body_ + "}"; }

void EventLog::emit(const Event& e) {
  common::LockGuard lock(mutex_);
  lines_.push_back(e.to_json());
}

std::size_t EventLog::size() const {
  common::LockGuard lock(mutex_);
  return lines_.size();
}

std::vector<std::string> EventLog::drain() {
  common::LockGuard lock(mutex_);
  std::vector<std::string> out;
  out.swap(lines_);
  return out;
}

void EventLog::flush_to_file(const std::string& path) {
  common::LockGuard lock(mutex_);
  if (lines_.empty()) return;
  std::ofstream os(path, std::ios::app);
  if (!os) throw common::Error("EventLog: cannot open " + path);
  flush_locked(os, path);
}

void EventLog::flush_to_stream(std::ostream& os, const std::string& context) {
  common::LockGuard lock(mutex_);
  flush_locked(os, context);
}

void EventLog::flush_locked(std::ostream& os, const std::string& context) {
  if (lines_.empty()) return;
  if (!os) throw common::Error("EventLog: bad stream for " + context);
  // One block, one write: a sink that rejects the write rejects whole lines,
  // never a prefix of one.
  std::string block;
  std::size_t bytes = 0;
  for (const std::string& line : lines_) bytes += line.size() + 1;
  block.reserve(bytes);
  for (const std::string& line : lines_) {
    block += line;
    block += '\n';
  }
  os << block;
  os.flush();
  if (os.fail()) throw common::Error("EventLog: write failed for " + context);
  lines_.clear();
}

namespace {

[[noreturn]] void malformed(const std::string& line) {
  throw common::ConfigError("parse_event_line: malformed event '" + line + "'");
}

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

std::string parse_string(const std::string& s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') malformed(s);
  ++i;
  std::string out;
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\') {
      if (i + 1 >= s.size()) malformed(s);
      const char c = s[i + 1];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          // Exactly four hex digits: no sign, no space, no shorter run.
          if (i + 5 >= s.size()) malformed(s);
          const char* hex = s.data() + i + 2;
          for (int k = 0; k < 4; ++k) {
            if (!std::isxdigit(static_cast<unsigned char>(hex[k]))) malformed(s);
          }
          unsigned code = 0;
          if (std::from_chars(hex, hex + 4, code, 16).ec != std::errc()) malformed(s);
          if (code > 0xff) malformed(s);  // EventLog only emits \u00XX
          out += static_cast<char>(code);
          i += 4;
          break;
        }
        default: malformed(s);
      }
      i += 2;
    } else {
      out += s[i++];
    }
  }
  if (i >= s.size()) malformed(s);
  ++i;  // closing quote
  return out;
}

}  // namespace

std::map<std::string, std::string> parse_event_line(const std::string& line) {
  std::map<std::string, std::string> out;
  std::size_t i = 0;
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '{') malformed(line);
  ++i;
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') return out;  // empty object
  for (;;) {
    skip_ws(line, i);
    const std::string key = parse_string(line, i);
    skip_ws(line, i);
    if (i >= line.size() || line[i] != ':') malformed(line);
    ++i;
    skip_ws(line, i);
    if (i >= line.size()) malformed(line);
    if (line[i] == '"') {
      out[key] = parse_string(line, i);
    } else {
      // Number, true, false: literal text up to the next delimiter.
      const std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}' &&
             !std::isspace(static_cast<unsigned char>(line[i]))) {
        ++i;
      }
      if (i == start) malformed(line);
      out[key] = line.substr(start, i - start);
    }
    skip_ws(line, i);
    if (i >= line.size()) malformed(line);
    if (line[i] == '}') break;
    if (line[i] != ',') malformed(line);
    ++i;
  }
  return out;
}

}  // namespace magus::telemetry
