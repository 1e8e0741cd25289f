// The one JSON module. Every report, snapshot and record line the repo
// writes is an `obs::Json` tree rendered by `dump`, and every one it reads
// back (--check baselines, records JSONL) goes through `parse`, so string
// escaping, number rendering and layout are decided here only. Integers
// render exactly in full 64-bit range; doubles through
// detail::format_double, or as %.9f when built by Json::seconds (simulated
// time at the records' nanosecond resolution). Objects keep insertion
// order, and equal values hold the same data in the same order; a
// double's render form does not count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace obs {

class Json {
 public:
  /// kCompact has no whitespace; kPretty indents by two spaces, one
  /// member per line, as "key": value.
  enum class Style : std::uint8_t { kCompact, kPretty };
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  ///< null
  Json(std::nullptr_t) {}
  Json(bool v) : value_(v) {}
  /// Any integer: std::int64_t if negative, else std::uint64_t, so equal
  /// integers compare equal whatever type built them.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Json(T v) : value_(static_cast<std::uint64_t>(v)) {
    if constexpr (std::is_signed_v<T>) {
      if (v < 0) value_ = static_cast<std::int64_t>(v);
    }
  }
  Json(double v) : value_(v) {}
  Json(std::string v) : value_(std::move(v)) {}
  Json(std::string_view v) : value_(std::string(v)) {}
  Json(const char* v) : value_(std::string(v)) {}
  Json(Array v) : value_(std::move(v)) {}
  Json(Object v) : value_(std::move(v)) {}

  /// A time in seconds, rendered %.9f.
  [[nodiscard]] static Json seconds(double v);
  /// `v` rounded to six significant digits, an iostream's default
  /// precision: the resolution of the bench reports' derived doubles.
  [[nodiscard]] static Json six_digits(double v);

  /// The value if it is a T (std::nullptr_t, bool, std::int64_t,
  /// std::uint64_t, double, std::string, Array or Object), else nullptr.
  template <typename T>
  [[nodiscard]] const T* get() const { return std::get_if<T>(&value_); }
  /// The member named `key` if it is a T, else nullptr.
  template <typename T>
  [[nodiscard]] const T* get(std::string_view key) const {
    const Json* member = find(key);
    return member != nullptr ? member->get<T>() : nullptr;
  }
  /// Any number as a double; empty for every other kind.
  [[nodiscard]] std::optional<double> as_double() const;
  /// The first member named `key`; nullptr if none or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// The value in `style`, ending in a newline: one JSONL line or one
  /// document. A double that is not finite renders as null.
  [[nodiscard]] std::string dump(Style style) const;

  /// Parses one JSON text (RFC 8259). Integers that fit 64 bits stay
  /// exact; other numbers become doubles. Malformed input, a number
  /// beyond double range, an unpaired surrogate or nesting deeper than
  /// 512 levels gives nullopt.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  void write_to(std::string& out, Style style, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
               std::string, Array, Object>
      value_;
  bool seconds_ = false;  ///< built by seconds(): render %.9f
};

namespace detail {
/// Renders `v` as printf's %g at the lowest precision, from 12 up, that
/// parses back to exactly `v`: a value with 12 or fewer significant digits
/// prints as %.12g prints it, and no value loses digits.
[[nodiscard]] std::string format_double(double v);
}  // namespace detail

}  // namespace obs
