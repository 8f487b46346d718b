// Minimal recursive-descent JSON reader for the resilience layer: parses
// the cell records and bench reports that this repository itself writes
// (sim::WriteBenchJson, resilience::SerializeOutcome). It is a strict
// subset of JSON — objects, arrays, strings (with \uXXXX escapes),
// numbers, booleans, null — with one deliberate twist: numbers keep their
// raw source text, so 64-bit counters and %.17g doubles round-trip
// exactly instead of being squeezed through a double. No dependency on
// any external JSON library, per the repo's no-new-deps rule.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dsa::resilience {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  std::string raw;     // numbers: exact source text; strings: decoded text
  std::vector<JsonValue> array;
  // Insertion order preserved separately so canonical re-emission is
  // stable regardless of key content.
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_object() const { return type == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }
  [[nodiscard]] bool is_string() const { return type == Type::kString; }
  [[nodiscard]] bool is_number() const { return type == Type::kNumber; }

  // Object lookup; returns nullptr when missing or not an object.
  [[nodiscard]] const JsonValue* Find(std::string_view key) const;

  // Typed accessors with defaults (never throw).
  [[nodiscard]] std::uint64_t AsU64(std::uint64_t fallback = 0) const;
  [[nodiscard]] std::int64_t AsI64(std::int64_t fallback = 0) const;
  [[nodiscard]] double AsDouble(double fallback = 0.0) const;
  [[nodiscard]] const std::string& AsString() const { return raw; }
  [[nodiscard]] bool AsBool(bool fallback = false) const {
    return type == Type::kBool ? boolean : fallback;
  }
};

// The deepest nesting of objects and arrays ParseJson accepts. The
// deepest document this repository writes nests 6 levels (a DSA cell's
// cache entry); the bound keeps the recursive descent's stack use small
// whatever a request frame or a cache file holds.
inline constexpr int kMaxJsonDepth = 64;

// Parses `text` into `out`. Returns false (and fills `error` with
// position + reason when non-null) on malformed input, trailing junk, or
// nesting deeper than kMaxJsonDepth.
[[nodiscard]] bool ParseJson(std::string_view text, JsonValue& out,
                             std::string* error = nullptr);

// Serializes a JsonValue back to compact JSON (objects keep insertion
// order). Numbers are re-emitted verbatim from their raw text, so a
// parse -> filter -> dump round trip never perturbs a value — that is
// what makes the canonical bench-report comparison in bench_soak exact.
[[nodiscard]] std::string DumpJson(const JsonValue& v);

// Escapes `s` as the contents of a JSON string literal (no quotes), with
// the one escaper every writer uses (mem::AppendJsonEscaped): control
// characters and any byte that is not part of a well-formed UTF-8
// sequence become \u00XX, and ParseJson decodes them back to the
// identical byte.
[[nodiscard]] std::string JsonEscape(std::string_view s);

}  // namespace dsa::resilience
