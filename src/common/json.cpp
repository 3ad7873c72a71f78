#include "common/json.h"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace opal {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw std::invalid_argument("json: " + what + " at line " +
                                std::to_string(line) + ":" +
                                std::to_string(col));
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  char take() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  void expect(char c, const char* what) {
    skip_ws();
    if (eof() || peek() != c) fail(std::string("expected ") + what);
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kJsonMaxDepth) {
          fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
        }
        JsonValue v = c == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.str = string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("invalid literal");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("invalid literal");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue{};
      }
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return number();
        fail("unexpected character");
    }
  }

  JsonValue object() {
    expect('{', "'{'");
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = string();
      for (const auto& [existing, unused] : v.members) {
        if (existing == key) fail("duplicate object key \"" + key + "\"");
      }
      expect(':', "':'");
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      if (eof()) fail("unterminated object");
      const char c = take();
      if (c == '}') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
  }

  JsonValue array() {
    expect('[', "'['");
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(value());
      skip_ws();
      if (eof()) fail("unterminated array");
      const char c = take();
      if (c == ']') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
  }

  std::string string() {
    if (take() != '"') fail("expected string");
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              --pos_;
              fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our own writers; reject them as unsupported).
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes unsupported");
          }
          if (code < 0x80) {
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
        default:
          --pos_;
          fail("invalid escape character");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays/objects open around pos_
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (kind != Kind::kObject) {
    throw std::invalid_argument("json: expected object holding \"" +
                                std::string(key) + "\"");
  }
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw std::invalid_argument("json: missing key \"" + std::string(key) +
                                "\"");
  }
  return *v;
}

std::uint64_t JsonValue::as_uint(std::string_view what) const {
  const double n = as_number(what);
  if (n < 0.0 || n != std::floor(n)) {
    throw std::invalid_argument("json: \"" + std::string(what) +
                                "\" must be a non-negative integer");
  }
  // Above 2^53 a double no longer holds every integer, and above 2^64 (or
  // at inf, from an overflowing literal) the cast is undefined.
  if (n > 9007199254740992.0) {
    throw std::invalid_argument("json: \"" + std::string(what) +
                                "\" exceeds 2^53");
  }
  return static_cast<std::uint64_t>(n);
}

double JsonValue::as_number(std::string_view what) const {
  if (kind != Kind::kNumber) {
    throw std::invalid_argument("json: \"" + std::string(what) +
                                "\" must be a number");
  }
  return number;
}

const std::string& JsonValue::as_string(std::string_view what) const {
  if (kind != Kind::kString) {
    throw std::invalid_argument("json: \"" + std::string(what) +
                                "\" must be a string");
  }
  return str;
}

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

}  // namespace opal
