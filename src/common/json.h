// Minimal strict JSON reader — just enough to parse the repo's own trace
// and bench artifacts (opal.step_trace/v4 in particular) without a
// dependency.
//
// Strictness: the full input must be exactly one JSON value (trailing
// non-whitespace is an error); no comments, no trailing commas, no NaN /
// Infinity literals, objects reject duplicate keys. Numbers parse as
// double; string escapes cover the JSON basics (\" \\ \/ \b \f \n \r \t
// and \uXXXX, encoded as UTF-8). Errors throw std::invalid_argument with
// the 1-based line:column of the offending character.
//
// Nesting: arrays and objects may nest at most kJsonMaxDepth deep (the
// v4 step trace nests 4); deeper input throws std::invalid_argument
// instead of exhausting the stack, since the reader recurses once per
// level.
//
// It favors clear errors over speed, and it is not a streaming parser (the
// whole value lives in memory).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace opal {

/// Deepest array/object nesting parse_json accepts (the outermost value
/// counts as depth 1).
inline constexpr std::size_t kJsonMaxDepth = 128;

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;  // kArray
  /// kObject members in source order (duplicate keys are a parse error).
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Object member lookup; throws std::invalid_argument naming `key` when
  /// absent or when this value is not an object.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  /// The number as an unsigned integer; throws when this is not a number,
  /// is negative, is not integral, or exceeds 2^53 (past which a double
  /// cannot hold every integer exactly).
  [[nodiscard]] std::uint64_t as_uint(std::string_view what) const;
  /// The number; throws (naming `what`) when this is not a number.
  [[nodiscard]] double as_number(std::string_view what) const;
  /// The string; throws (naming `what`) when this is not a string.
  [[nodiscard]] const std::string& as_string(std::string_view what) const;
};

/// Parses `text` as exactly one JSON value. Throws std::invalid_argument
/// with a line:column position on any syntax error or on nesting deeper
/// than kJsonMaxDepth.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace opal
