#pragma once
// Strict string -> value parsers for external input (CLI flags, daemon query
// parameters, manifest fields). The std::sto* family skips leading
// whitespace, accepts signs and trailing garbage, and throws bare
// std::invalid_argument/out_of_range; these helpers reject all of that and
// throw ConfigError naming the offending token.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <system_error>
#include <vector>

#include "magus/common/error.hpp"

namespace magus::common {

/// Parse one base-10 integer, rejecting empty input and trailing characters.
inline int parse_int(const std::string& tok) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(tok, &pos);
    if (pos != tok.size()) {
      throw ConfigError("trailing characters in integer '" + tok + "'");
    }
    return v;
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception&) {
    throw ConfigError("invalid integer '" + tok + "'");
  }
}

/// Parse a comma-separated integer list ("0,40"). Empty tokens ("0,,1",
/// trailing comma) and non-numeric tokens are ConfigErrors.
inline std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = s.find(',', start);
    const std::string tok =
        s.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (tok.empty()) {
      throw ConfigError("empty token in integer list '" + s + "'");
    }
    out.push_back(parse_int(tok));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Parse a base-10 unsigned 64-bit integer: digits only (no sign, no
/// whitespace), no overflow.
inline std::uint64_t parse_u64(const std::string& tok) {
  std::uint64_t v = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (tok.empty() || ec != std::errc() || ptr != end) {
    throw ConfigError("invalid unsigned 64-bit integer '" + tok + "'");
  }
  return v;
}

/// Parse a finite decimal number ("1.5", "-2", "3e2"), rejecting empty
/// input, leading whitespace, trailing characters, NaN, infinities, and
/// values that overflow a double.
inline double parse_finite_double(const std::string& tok) {
  double v = 0.0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (tok.empty() || ec != std::errc() || ptr != end || !std::isfinite(v)) {
    throw ConfigError("invalid finite number '" + tok + "'");
  }
  return v;
}

/// Parse a number that must be an integer in [lo, hi]. Accepts any
/// spelling parse_finite_double does ("16", "1.6e1"), so integers written
/// through a JSON number formatter read back.
inline int parse_int_in_range(const std::string& tok, int lo, int hi) {
  const double v = parse_finite_double(tok);
  if (v != std::trunc(v) || v < lo || v > hi) {
    throw ConfigError("'" + tok + "' is not an integer in [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "]");
  }
  return static_cast<int>(v);
}

/// Apply `parse` to `tok`, prefixing a ConfigError with `name` so the message
/// says which flag, query parameter, or field was bad ("--seed: invalid
/// unsigned 64-bit integer 'abc'").
template <class Parse>
auto parse_named(const std::string& name, const std::string& tok, Parse parse) {
  try {
    return parse(tok);
  } catch (const ConfigError& e) {
    throw ConfigError(name + ": " + e.what());
  }
}

}  // namespace magus::common
