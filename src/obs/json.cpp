#include "obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <system_error>

namespace obs {

std::string detail::format_double(double v) {
  // std::to_chars ignores the locale; 17 significant digits always round
  // trip, so the loop ends there for NaN too.
  char buf[32];
  for (int precision = 12;; ++precision) {
    char* end = std::to_chars(buf, buf + sizeof buf, v,
                              std::chars_format::general, precision)
                    .ptr;
    double parsed = 0.0;
    std::from_chars(buf, end, parsed);
    if (parsed == v || precision == 17) return std::string(buf, end);
  }
}

namespace {

void append_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n' || c == '\r' || c == '\t') {
      out += c == '\n' ? "\\n" : c == '\r' ? "\\r" : "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// A lead byte, then `tail` continuation bytes of six bits each; the lead
/// byte's prefix is 0, 110, 1110 or 11110 for zero to three of them.
void append_utf8(std::string& out, std::uint32_t cp) {
  const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  const std::uint32_t prefix = tail == 0 ? 0 : (0xFF00 >> (tail + 1)) & 0xFF;
  out += static_cast<char>(prefix | (cp >> (6 * tail)));
  for (int i = tail - 1; i >= 0; --i) {
    out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
  }
}

/// Recursive descent over one text. Every step returns nullopt or false
/// at the first malformed byte, and the caller only passes that up.
struct Parser {
  std::size_t skip_space() {
    return at_ = std::min(s_.find_first_not_of(" \t\n\r", at_), s_.size());
  }
  /// Consumes `text` if it comes next, after any whitespace if `space`.
  bool take(std::string_view text, bool space = false) {
    if (space) skip_space();
    if (s_.substr(at_, text.size()) != text) return false;
    at_ += text.size();
    return true;
  }
  std::size_t digits() {
    const std::size_t from = at_;
    at_ = std::min(s_.find_first_not_of("0123456789", at_), s_.size());
    return at_ - from;
  }

  std::optional<Json> parse_value(int depth) {
    if (depth > 512 || skip_space() == s_.size()) return std::nullopt;
    if (s_[at_] == '{' || s_[at_] == '[') return parse_container(depth);
    if (std::string text; s_[at_] == '"') {
      return parse_string(text) ? std::optional<Json>(std::move(text))
                                : std::nullopt;
    }
    if (take("true")) return Json(true);
    if (take("false")) return Json(false);
    if (take("null")) return Json();
    return parse_number();
  }

  std::optional<Json> parse_container(int depth) {
    const bool object = take("{");
    const std::string_view close = object ? "}" : "]";
    if (!object) take("[");
    Json::Object members;
    Json::Array elements;
    if (!take(close, true)) {
      do {
        std::string key;
        skip_space();
        if (object && (!parse_string(key) || !take(":", true))) {
          return std::nullopt;
        }
        std::optional<Json> value = parse_value(depth + 1);
        if (!value) return std::nullopt;
        if (object) members.emplace_back(std::move(key), std::move(*value));
        if (!object) elements.push_back(std::move(*value));
      } while (take(",", true));
      if (!take(close, true)) return std::nullopt;
    }
    return object ? Json(std::move(members)) : Json(std::move(elements));
  }

  bool hex4(std::uint32_t& out) {
    const char* first = s_.data() + at_;
    if (s_.size() - at_ < 4) return false;
    at_ += 4;
    const auto [end, ec] = std::from_chars(first, first + 4, out, 16);
    return ec == std::errc{} && end == first + 4;
  }

  bool parse_string(std::string& out) {
    static constexpr std::string_view kEscape = "\"\\/bfnrt";
    static constexpr std::string_view kMeaning = "\"\\/\b\f\n\r\t";
    if (!take("\"")) return false;
    while (at_ < s_.size()) {
      const char c = s_[at_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      const std::size_t e = kEscape.find(at_ < s_.size() ? s_[at_] : '\0');
      if (e != kEscape.npos) {
        ++at_;
        out += kMeaning[e];
        continue;
      }
      std::uint32_t cp = 0;
      std::uint32_t low = 0;
      if (!take("u") || !hex4(cp)) return false;
      if (cp >= 0xD800 && cp < 0xDC00 && take("\\u") && hex4(low) &&
          low >= 0xDC00 && low < 0xE000) {
        cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
      } else if (cp >= 0xD800 && cp < 0xE000) {
        return false;  // an unpaired surrogate
      }
      append_utf8(out, cp);
    }
    return false;  // unterminated
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, checked before any
  /// conversion; an integer past 64 bits becomes a double.
  std::optional<Json> parse_number() {
    const char* first = s_.data() + at_;
    const bool negative = take("-");
    const std::size_t lead = digits();
    if (lead == 0 || (lead > 1 && s_[at_ - lead] == '0')) return std::nullopt;
    const bool fraction = take(".");
    if (fraction && digits() == 0) return std::nullopt;
    const bool exponent = take("e") || take("E");
    if (exponent && !take("+")) take("-");
    if (exponent && digits() == 0) return std::nullopt;
    const auto convert = [first, last = s_.data() + at_](auto v) {
      const bool ok = std::from_chars(first, last, v).ec == std::errc{};
      return ok ? std::optional<Json>(v) : std::nullopt;
    };
    std::optional<Json> integer;
    if (!fraction && !exponent) {
      integer = negative ? convert(std::int64_t{0}) : convert(std::uint64_t{0});
    }
    return integer ? integer : convert(0.0);
  }

  std::string_view s_;
  std::size_t at_ = 0;
};

}  // namespace

Json Json::seconds(double v) {
  Json json(v);
  json.seconds_ = true;
  return json;
}

Json Json::six_digits(double v) {
  char buf[32];
  const auto end = std::to_chars(buf, std::end(buf), v,
                                 std::chars_format::general, 6);
  std::from_chars(buf, end.ptr, v);
  return Json(v);
}

std::optional<double> Json::as_double() const {
  if (const auto* v = get<double>()) return *v;
  if (const auto* v = get<std::uint64_t>()) return static_cast<double>(*v);
  if (const auto* v = get<std::int64_t>()) return static_cast<double>(*v);
  return std::nullopt;
}

const Json* Json::find(std::string_view key) const {
  if (const Object* members = get<Object>()) {
    for (const auto& [name, value] : *members) {
      if (name == key) return &value;
    }
  }
  return nullptr;
}

void Json::write_to(std::string& out, Style style, int depth) const {
  const auto newline = [&](int indent) {  // pretty style only
    if (style == Style::kPretty) out.append("\n").append(2 * indent, ' ');
  };
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        char buf[512];  // %.9f of the largest finite double fits
        if constexpr (std::is_same_v<T, std::nullptr_t>) {
          out += "null";
        } else if constexpr (std::is_same_v<T, bool>) {
          out += v ? "true" : "false";
        } else if constexpr (std::is_integral_v<T>) {
          out.append(buf, std::to_chars(buf, std::end(buf), v).ptr);
        } else if constexpr (std::is_same_v<T, double>) {
          if (!std::isfinite(v)) {
            out += "null";
          } else if (seconds_) {
            out.append(buf, std::to_chars(buf, std::end(buf), v,
                                          std::chars_format::fixed, 9)
                                .ptr);
          } else {
            out += detail::format_double(v);
          }
        } else if constexpr (std::is_same_v<T, std::string>) {
          append_string(out, v);
        } else {  // Array or Object
          constexpr bool kArray = std::is_same_v<T, Array>;
          out += kArray ? '[' : '{';
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0) out += ',';
            newline(depth + 1);
            if constexpr (kArray) {
              v[i].write_to(out, style, depth + 1);
            } else {
              append_string(out, v[i].first);
              out += style == Style::kPretty ? ": " : ":";
              v[i].second.write_to(out, style, depth + 1);
            }
          }
          if (!v.empty()) newline(depth);
          out += kArray ? ']' : '}';
        }
      },
      value_);
}

std::string Json::dump(Style style) const {
  std::string out;
  write_to(out, style, 0);
  out += '\n';
  return out;
}

std::optional<Json> Json::parse(std::string_view text) {
  Parser parser{text};
  std::optional<Json> value = parser.parse_value(0);
  return value && parser.skip_space() == text.size() ? value : std::nullopt;
}

}  // namespace obs
