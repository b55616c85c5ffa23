// Minimal self-contained JSON document model (no external dependency).
//
// Supports exactly what the run reports need: null, bool, double, unsigned
// 64-bit integer (kept distinct from double so RNG seeds and event counts
// round-trip exactly), string, array, and object. Objects preserve insertion
// order, so serialized reports have a stable, diffable key order.
//
// dump() emits compact or indented UTF-8; parse() is a strict recursive-
// descent parser for the same subset (numbers with no '.', 'e', or '-' that
// fit in 64 bits come back as the integer arm) and throws
// std::invalid_argument with an offset on malformed input, including input
// nested deeper than kMaxDepth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace pert::runner {

/// Thrown by JsonValue::parse on malformed input, with the byte offset of
/// the error in what(). Derives from std::invalid_argument so pre-existing
/// catch sites keep working; the distinct type lets callers tell "this file
/// is not valid JSON" from other argument errors. Non-finite numbers
/// (NaN / Infinity in any spelling, and literals that overflow a double)
/// are rejected with this error too: the writer never emits them (it dumps
/// non-finite doubles as null), so accepting them on input would only let
/// corrupt reports round-trip silently.
class JsonParseError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(std::uint64_t u) : v_(u) {}
  JsonValue(int i) : v_(static_cast<std::uint64_t>(i)) {}
  JsonValue(const char* s) : v_(std::string(s)) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(Array a) : v_(std::move(a)) {}
  JsonValue(Object o) : v_(std::move(o)) {}

  // Defaulted out of line (json.cc): inlined into every function that builds
  // a document, the variant's copies and moves draw GCC 12
  // -Wmaybe-uninitialized false positives from inside std::vector.
  JsonValue(const JsonValue&);
  JsonValue(JsonValue&&) noexcept;
  JsonValue& operator=(const JsonValue&);
  JsonValue& operator=(JsonValue&&) noexcept;
  ~JsonValue();

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_uint() const { return std::holds_alternative<std::uint64_t>(v_); }
  bool is_number() const { return is_double() || is_uint(); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  /// Any number as double (integers convert).
  double as_double() const {
    return is_uint() ? static_cast<double>(std::get<std::uint64_t>(v_))
                     : std::get<double>(v_);
  }
  std::uint64_t as_uint() const { return std::get<std::uint64_t>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }
  Array& as_array() { return std::get<Array>(v_); }
  Object& as_object() { return std::get<Object>(v_); }

  /// Object member lookup; throws std::out_of_range when absent.
  const JsonValue& at(std::string_view key) const;
  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Appends a member to an object-valued JsonValue.
  void set(std::string key, JsonValue val);

  /// Serializes; indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// Deepest array/object nesting parse() accepts. Reports nest about seven
  /// levels; the bound keeps a hostile document from exhausting the stack.
  static constexpr std::size_t kMaxDepth = 256;

  /// Parses a complete JSON document (trailing garbage is an error).
  static JsonValue parse(std::string_view text);

  friend bool operator==(const JsonValue& a, const JsonValue& b) {
    return a.v_ == b.v_;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::uint64_t, std::string, Array,
               Object>
      v_;
};

}  // namespace pert::runner
