#include "runner/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace pert::runner {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) {  // JSON has no inf/nan; emit null like most dumpers
    out += "null";
    return;
  }
  char buf[32];
  // %.17g round-trips every double exactly.
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

struct Parser {
  std::string_view s;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError("json parse error at offset " + std::to_string(pos) +
                         ": " + what);
  }

  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                              s[pos] == '\n' || s[pos] == '\r'))
      ++pos;
  }

  char peek() {
    if (pos >= s.size()) fail("unexpected end of input");
    return s[pos];
  }

  void expect(char c) {
    if (pos >= s.size() || s[pos] != c)
      fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume_literal(std::string_view lit) {
    if (s.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos >= s.size()) fail("unterminated string");
      const char c = s[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= s.size()) fail("unterminated escape");
        const char e = s[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > s.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad hex digit in \\u escape");
            }
            // Reports only ever escape control characters; encode as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  /// Detects non-finite spellings (NaN, Infinity, nan, inf, any case and
  /// sign) at the current position. JSON has no representation for them;
  /// reject with a typed error instead of the generic "unexpected character".
  bool at_nonfinite_literal() const {
    std::string_view rest = s.substr(pos);
    if (!rest.empty() && (rest.front() == '-' || rest.front() == '+'))
      rest.remove_prefix(1);
    for (std::string_view lit : {"NaN", "nan", "Infinity", "infinity", "inf",
                                 "Inf"})
      if (rest.substr(0, lit.size()) == lit) return true;
    return false;
  }

  JsonValue parse_number() {
    if (at_nonfinite_literal())
      fail("non-finite numbers (NaN/Infinity) are not valid JSON");
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < s.size() && (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                              s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                              s[pos] == '+' || s[pos] == '-'))
      ++pos;
    const std::string_view tok = s.substr(start, pos - start);
    const bool integral =
        tok.find_first_of(".eE-") == std::string_view::npos;
    if (integral) {
      std::uint64_t u = 0;
      const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), u);
      if (ec == std::errc() && p == tok.data() + tok.size()) return JsonValue(u);
    }
    double d = 0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec == std::errc::result_out_of_range)
      fail("number overflows double (non-finite)");
    if (ec != std::errc() || p != tok.data() + tok.size()) fail("bad number");
    if (!std::isfinite(d)) fail("non-finite numbers are not valid JSON");
    return JsonValue(d);
  }

  /// `depth` counts the arrays and objects this value is nested in.
  JsonValue parse_value(std::size_t depth = 0) {
    skip_ws();
    const char c = peek();
    if ((c == '{' || c == '[') && depth == JsonValue::kMaxDepth)
      fail("nesting deeper than " + std::to_string(JsonValue::kMaxDepth) +
           " levels");
    if (c == '{') {
      ++pos;
      JsonValue::Object obj;
      skip_ws();
      if (peek() == '}') { ++pos; return JsonValue(std::move(obj)); }
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        obj.emplace_back(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') { ++pos; continue; }
        expect('}');
        return JsonValue(std::move(obj));
      }
    }
    if (c == '[') {
      ++pos;
      JsonValue::Array arr;
      skip_ws();
      if (peek() == ']') { ++pos; return JsonValue(std::move(arr)); }
      for (;;) {
        arr.push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') { ++pos; continue; }
        expect(']');
        return JsonValue(std::move(arr));
      }
    }
    if (c == '"') return JsonValue(parse_string());
    if (consume_literal("true")) return JsonValue(true);
    if (consume_literal("false")) return JsonValue(false);
    if (consume_literal("null")) return JsonValue(nullptr);
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
      return parse_number();
    if (at_nonfinite_literal())
      fail("non-finite numbers (NaN/Infinity) are not valid JSON");
    fail("unexpected character");
  }
};

void dump_rec(const JsonValue& v, std::string& out, int indent, int depth) {
  const std::string pad(indent > 0 ? static_cast<std::size_t>(indent * (depth + 1)) : 0, ' ');
  const std::string close_pad(indent > 0 ? static_cast<std::size_t>(indent * depth) : 0, ' ');
  const char* nl = indent > 0 ? "\n" : "";
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_uint()) {
    out += std::to_string(v.as_uint());
  } else if (v.is_double()) {
    append_double(out, v.as_double());
  } else if (v.is_string()) {
    append_escaped(out, v.as_string());
  } else if (v.is_array()) {
    const auto& a = v.as_array();
    if (a.empty()) { out += "[]"; return; }
    out += '[';
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i) out += ',';
      out += nl;
      out += pad;
      dump_rec(a[i], out, indent, depth + 1);
    }
    out += nl;
    out += close_pad;
    out += ']';
  } else {
    const auto& o = v.as_object();
    if (o.empty()) { out += "{}"; return; }
    out += '{';
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i) out += ',';
      out += nl;
      out += pad;
      append_escaped(out, o[i].first);
      out += indent > 0 ? ": " : ":";
      dump_rec(o[i].second, out, indent, depth + 1);
    }
    out += nl;
    out += close_pad;
    out += '}';
  }
}

}  // namespace

JsonValue::JsonValue(const JsonValue&) = default;
JsonValue::JsonValue(JsonValue&&) noexcept = default;
JsonValue& JsonValue::operator=(const JsonValue&) = default;
JsonValue& JsonValue::operator=(JsonValue&&) noexcept = default;
JsonValue::~JsonValue() = default;

const JsonValue& JsonValue::at(std::string_view key) const {
  if (const JsonValue* v = find(key)) return *v;
  throw std::out_of_range("json object has no key: " + std::string(key));
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object())
    if (k == key) return &v;
  return nullptr;
}

void JsonValue::set(std::string key, JsonValue val) {
  if (!is_object()) v_ = Object{};
  std::get<Object>(v_).emplace_back(std::move(key), std::move(val));
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_rec(*this, out, indent, 0);
  return out;
}

JsonValue JsonValue::parse(std::string_view text) {
  Parser p{text};
  JsonValue v = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) p.fail("trailing characters after document");
  return v;
}

}  // namespace pert::runner
