// The repository's one JSON writer. Every document the repo emits goes
// through it: bench reports (sim/runner.cc), cell records and frame
// payloads (resilience/journal.cc), isolation-pipe errors
// (resilience/isolate.cc), cache entries, daemon requests and responses
// (serve/), the Chrome trace (trace/chrome_export.cc) and the area
// bench's report. So there is one string escaper and one separator rule,
// and no document can carry a byte that is not well-formed UTF-8.
// Header-only beside mem/fnv.h, so every layer from trace up can use it
// without a link dependency.
//
//   mem::JsonBuilder w;  // compact style: {"a":1,"b":[true]}
//   w.Object().Key("a").U64(1).Key("b").Array().Bool(true).End().End();
//
// Numbers are formatted by the caller's choice of printf format (Num),
// because each document keeps its own: %.6g in bench reports, %.17g in
// records (exact round trip through strtod), %.3f in the trace.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>

namespace dsa::mem {

// Length (2..4) of the well-formed UTF-8 sequence starting at s[i], or 0
// when the bytes do not form one. Strict per RFC 3629: no overlong
// encodings, no surrogate code points, nothing above U+10FFFF — exactly
// the sequences a JSON consumer must accept as text.
inline std::size_t Utf8SequenceLength(std::string_view s, std::size_t i) {
  const auto byte = [&](std::size_t k) -> unsigned {
    return k < s.size() ? static_cast<unsigned char>(s[k]) : 0u;
  };
  const auto cont = [](unsigned c) { return c >= 0x80 && c <= 0xBF; };
  const unsigned c0 = byte(i), c1 = byte(i + 1), c2 = byte(i + 2),
                 c3 = byte(i + 3);
  if (c0 >= 0xC2 && c0 <= 0xDF) return cont(c1) ? 2 : 0;
  if (c0 == 0xE0) return (c1 >= 0xA0 && c1 <= 0xBF && cont(c2)) ? 3 : 0;
  if (c0 >= 0xE1 && c0 <= 0xEC) return (cont(c1) && cont(c2)) ? 3 : 0;
  if (c0 == 0xED) return (c1 >= 0x80 && c1 <= 0x9F && cont(c2)) ? 3 : 0;
  if (c0 >= 0xEE && c0 <= 0xEF) return (cont(c1) && cont(c2)) ? 3 : 0;
  if (c0 == 0xF0) {
    return (c1 >= 0x90 && c1 <= 0xBF && cont(c2) && cont(c3)) ? 4 : 0;
  }
  if (c0 >= 0xF1 && c0 <= 0xF3) {
    return (cont(c1) && cont(c2) && cont(c3)) ? 4 : 0;
  }
  if (c0 == 0xF4) {
    return (c1 >= 0x80 && c1 <= 0x8F && cont(c2) && cont(c3)) ? 4 : 0;
  }
  return 0;  // 0x80-0xC1 and 0xF5-0xFF are never lead bytes
}

// Appends `s` as the contents of a JSON string literal (no quotes).
// Arbitrary byte strings are safe: '"' and '\' are backslash-escaped,
// control characters and every byte that is not part of a well-formed
// UTF-8 sequence become \u00XX, and well-formed sequences pass through.
// The output is always valid JSON text, and resilience::ParseJson
// decodes \u00XX back to the identical byte, so escape -> parse is
// byte-exact even for binary input.
inline void AppendJsonEscaped(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending verbatim stretch
  std::size_t i = 0;
  while (i < s.size()) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c < 0x80 && c != '"' && c != '\\') {
      ++i;
      continue;
    }
    out.append(s, run, i - run);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(static_cast<char>(c));
      ++i;
    } else if (const std::size_t len =
                   c >= 0x80 ? Utf8SequenceLength(s, i) : 0;
               len > 0) {
      out.append(s, i, len);
      i += len;
    } else {
      // Control character, stray continuation byte, overlong form,
      // surrogate or truncated tail.
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      ++i;
    }
    run = i;
  }
  out.append(s, run, s.size() - run);
}

// Appends one JSON document to a std::string, placing every quote and
// separator itself. A value call after Key() is the member's value;
// anywhere else it is the next array element (or the document).
class JsonBuilder {
 public:
  // kCompact separates with "," and ":" (records, frames, cache entries,
  // requests, responses); kSpaced with ", " and ": " (bench reports and
  // the Chrome trace).
  enum class Style { kCompact, kSpaced };

  explicit JsonBuilder(Style style = Style::kCompact)
      : comma_(style == Style::kSpaced ? ", " : ","),
        colon_(style == Style::kSpaced ? ": " : ":") {}

  JsonBuilder& Key(std::string_view name) {
    Quoted(name);
    out_ += colon_;
    pending_comma_ = false;
    return *this;
  }
  JsonBuilder& Str(std::string_view v) {
    Quoted(v);
    return *this;
  }
  JsonBuilder& U64(std::uint64_t v) { return Integer(v); }
  JsonBuilder& I64(std::int64_t v) { return Integer(v); }
  // `format` is a printf conversion of one double, e.g. "%.17g".
  JsonBuilder& Num(double v, const char* format) {
    Separate();
    char buf[400];  // room for %f of the largest double (309 digits)
    const int n = std::snprintf(buf, sizeof(buf), format, v);
    out_.append(buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
    return *this;
  }
  JsonBuilder& Bool(bool v) { return Encoded(v ? "true" : "false"); }
  // A value that is already JSON text, placed as-is: a parsed number's
  // exact source text, or a record another writer built.
  JsonBuilder& Encoded(std::string_view json) {
    Separate();
    out_ += json;
    return *this;
  }

  JsonBuilder& Object() { return Open('{', '}'); }
  JsonBuilder& Array() { return Open('[', ']'); }
  // Closes the innermost open object or array.
  JsonBuilder& End() {
    out_.push_back(closers_.back());
    closers_.pop_back();
    pending_comma_ = true;
    return *this;
  }

  // Layout whitespace (a newline and indent), placed as-is; the next
  // token still gets its separator, after this text.
  JsonBuilder& Whitespace(std::string_view ws) {
    out_ += ws;
    return *this;
  }

  // The text written so far. Clear() empties it but keeps the nesting and
  // separator state, so a long document can be drained to its file piece
  // by piece; Take() moves it out.
  [[nodiscard]] const std::string& str() const { return out_; }
  void Clear() { out_.clear(); }
  [[nodiscard]] std::string Take() { return std::move(out_); }

 private:
  void Separate() {
    if (pending_comma_) out_ += comma_;
    pending_comma_ = true;
  }
  void Quoted(std::string_view s) {
    Separate();
    out_.push_back('"');
    AppendJsonEscaped(out_, s);
    out_.push_back('"');
  }
  template <typename Int>
  JsonBuilder& Integer(Int v) {
    Separate();
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, static_cast<std::size_t>(res.ptr - buf));
    return *this;
  }
  JsonBuilder& Open(char open, char close) {
    Separate();
    out_.push_back(open);
    closers_.push_back(close);
    pending_comma_ = false;
    return *this;
  }

  std::string out_;
  std::string closers_;  // one closing bracket per open container
  const char* comma_;
  const char* colon_;
  bool pending_comma_ = false;
};

}  // namespace dsa::mem
