#include "resilience/mini_json.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "mem/json.h"

namespace dsa::resilience {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue& out, std::string* error) {
    SkipWs();
    if (!ParseValue(out)) {
      Fail("value");
      if (error != nullptr) *error = error_;
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      Fail("end of input");
      if (error != nullptr) *error = error_;
      return false;
    }
    return true;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void Fail(const char* expected) {
    if (!error_.empty()) return;  // keep the innermost failure
    char buf[96];
    std::snprintf(buf, sizeof(buf), "expected %s at offset %zu", expected,
                  pos_);
    error_ = buf;
  }

  [[nodiscard]] bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue& out) {  // NOLINT(misc-no-recursion)
    SkipWs();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // The one recursion: bounded, so no input can exhaust the stack.
        if (depth_ == kMaxJsonDepth) {
          Fail(("at most " + std::to_string(kMaxJsonDepth) +
                " levels of nesting").c_str());
          return false;
        }
        ++depth_;
        const bool ok =
            text_[pos_] == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return ok;
      }
      case '"':
        out.type = JsonValue::Type::kString;
        return ParseString(out.raw);
      case 't':
        if (text_.compare(pos_, 4, "true") == 0) {
          out.type = JsonValue::Type::kBool;
          out.boolean = true;
          pos_ += 4;
          return true;
        }
        return false;
      case 'f':
        if (text_.compare(pos_, 5, "false") == 0) {
          out.type = JsonValue::Type::kBool;
          out.boolean = false;
          pos_ += 5;
          return true;
        }
        return false;
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          out.type = JsonValue::Type::kNull;
          pos_ += 4;
          return true;
        }
        return false;
      default: return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue& out) {  // NOLINT(misc-no-recursion)
    if (!Eat('{')) return false;
    out.type = JsonValue::Type::kObject;
    SkipWs();
    if (Eat('}')) return true;
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(key)) {
        Fail("object key");
        return false;
      }
      SkipWs();
      if (!Eat(':')) {
        Fail("':'");
        return false;
      }
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Eat(',')) continue;
      if (Eat('}')) return true;
      Fail("',' or '}'");
      return false;
    }
  }

  bool ParseArray(JsonValue& out) {  // NOLINT(misc-no-recursion)
    if (!Eat('[')) return false;
    out.type = JsonValue::Type::kArray;
    SkipWs();
    if (Eat(']')) return true;
    for (;;) {
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.array.push_back(std::move(value));
      SkipWs();
      if (Eat(',')) continue;
      if (Eat(']')) return true;
      Fail("',' or ']'");
      return false;
    }
  }

  bool ParseString(std::string& out) {
    if (!Eat('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // The writer (mem/json.h) \u00XX-escapes control characters and
          // any byte that is not part of a well-formed UTF-8 sequence.
          // Decode everything below 0x100 back to the single original
          // byte so escape -> parse is a byte-exact round trip even for
          // binary strings; larger code points decode as UTF-8.
          if (code < 0x100) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        digits = true;
      }
      ++pos_;
    }
    if (!digits) {
      pos_ = start;
      return false;
    }
    out.type = JsonValue::Type::kNumber;
    out.raw.assign(text_.substr(start, pos_ - start));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // objects and arrays open around pos_
  std::string error_;
};

// NOLINTNEXTLINE(misc-no-recursion)
void DumpTo(const JsonValue& v, mem::JsonBuilder& w) {
  switch (v.type) {
    case JsonValue::Type::kNull: w.Encoded("null"); break;
    case JsonValue::Type::kBool: w.Bool(v.boolean); break;
    case JsonValue::Type::kNumber: w.Encoded(v.raw); break;
    case JsonValue::Type::kString: w.Str(v.raw); break;
    case JsonValue::Type::kArray:
      w.Array();
      for (const JsonValue& e : v.array) DumpTo(e, w);
      w.End();
      break;
    case JsonValue::Type::kObject:
      w.Object();
      for (const auto& [key, value] : v.object) {
        w.Key(key);
        DumpTo(value, w);
      }
      w.End();
      break;
  }
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t JsonValue::AsU64(std::uint64_t fallback) const {
  if (type != Type::kNumber) return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw.c_str(), &end, 10);
  if (errno != 0 || end == raw.c_str()) return fallback;
  return static_cast<std::uint64_t>(v);
}

std::int64_t JsonValue::AsI64(std::int64_t fallback) const {
  if (type != Type::kNumber) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  if (errno != 0 || end == raw.c_str()) return fallback;
  return static_cast<std::int64_t>(v);
}

double JsonValue::AsDouble(double fallback) const {
  if (type != Type::kNumber) return fallback;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str()) return fallback;
  return v;
}

bool ParseJson(std::string_view text, JsonValue& out, std::string* error) {
  return Parser(text).Parse(out, error);
}

std::string DumpJson(const JsonValue& v) {
  mem::JsonBuilder w;
  DumpTo(v, w);
  return w.Take();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  mem::AppendJsonEscaped(out, s);
  return out;
}

}  // namespace dsa::resilience
