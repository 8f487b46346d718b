// Strict flag-value parsing, the one implementation of the rules every
// numeric flag follows: the whole token must parse, no wrap-around, no
// silent fallback. Returns bool + error text instead of exiting, so the
// negative paths are unit-testable (tests/test_serve.cc); the daemon and
// client mains, and the bench drivers' exit-on-error wrappers
// (bench/bench_util.h), print the text and exit 2.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace dsa::serve {

// Whole-token strict signed decimal. False (with `error` filled) on an
// empty/partial token or out-of-range value.
[[nodiscard]] inline bool ParseCountText(const char* text, long& out,
                                         std::string* error = nullptr) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    if (error != nullptr) {
      *error = "expects a decimal number, got \"" + std::string(text) + "\"";
    }
    return false;
  }
  if (errno == ERANGE) {
    if (error != nullptr) {
      *error = "value \"" + std::string(text) + "\" is out of range";
    }
    return false;
  }
  out = v;
  return true;
}

// Whole-token strict unsigned decimal: a leading sign or an overflowing
// token is refused instead of letting strtoull wrap it into a different
// (silently valid) value.
[[nodiscard]] inline bool ParseU64Text(const char* text, std::uint64_t& out,
                                       std::string* error = nullptr) {
  const char* p = text;
  while (std::isspace(static_cast<unsigned char>(*p))) ++p;
  if (*p == '-' || *p == '+') {
    if (error != nullptr) {
      *error = "expects an unsigned decimal number, got \"" +
               std::string(text) + "\"";
    }
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    if (error != nullptr) {
      *error = "expects an unsigned decimal number, got \"" +
               std::string(text) + "\"";
    }
    return false;
  }
  if (errno == ERANGE) {
    if (error != nullptr) {
      *error = "value \"" + std::string(text) +
               "\" overflows 64 bits; refusing to wrap it";
    }
    return false;
  }
  out = static_cast<std::uint64_t>(v);
  return true;
}

}  // namespace dsa::serve
