// Typed attribute values for events.
//
// Siena (the paper's chosen event-service model, §4.1) represents events
// as sets of (name, type, value) tuples.  AttrValue is the typed value
// part: string, integer, real or boolean, with a total order within each
// type (NaN excepted) and string conversions used by the XML encoding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "common/status.hpp"

namespace aa::event {

enum class ValueType { kString, kInt, kReal, kBool };

const char* value_type_name(ValueType t);
Result<ValueType> value_type_from_name(std::string_view name);

class AttrValue {
 public:
  AttrValue() : v_(std::string()) {}
  AttrValue(std::string v) : v_(std::move(v)) {}          // NOLINT
  AttrValue(const char* v) : v_(std::string(v)) {}        // NOLINT
  AttrValue(std::int64_t v) : v_(v) {}                    // NOLINT
  AttrValue(int v) : v_(static_cast<std::int64_t>(v)) {}  // NOLINT
  AttrValue(double v) : v_(v) {}                          // NOLINT
  AttrValue(bool v) : v_(v) {}                            // NOLINT

  ValueType type() const { return static_cast<ValueType>(v_.index()); }

  bool is_string() const { return type() == ValueType::kString; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_real() const { return type() == ValueType::kReal; }
  bool is_bool() const { return type() == ValueType::kBool; }
  /// Int or real.
  bool is_numeric() const { return is_int() || is_real(); }

  const std::string& str() const { return std::get<std::string>(v_); }
  std::int64_t integer() const { return std::get<std::int64_t>(v_); }
  double real() const { return std::get<double>(v_); }
  bool boolean() const { return std::get<bool>(v_); }

  /// Numeric value as double (int widened); precondition: is_numeric().
  double as_real() const { return is_int() ? static_cast<double>(integer()) : real(); }

  /// Value rendered as text (used by the XML event encoding).
  std::string to_text() const;
  /// Appends to_text() to `out` without building a temporary.
  void append_text(std::string& out) const;
  /// to_text().size(), computed without building the string.
  std::size_t text_size() const;
  /// Inverse of to_text given the declared type.
  static Result<AttrValue> from_text(ValueType type, const std::string& text);

  /// Equality requires same type (int 3 != real 3.0; comparisons that
  /// want numeric widening use compare()).
  bool operator==(const AttrValue& other) const { return v_ == other.v_; }

  /// Three-way comparison within comparable types; numeric types compare
  /// across int/real.  Returns nullopt for incomparable types and for a
  /// NaN operand, so NaN satisfies no constraint but kExists.
  std::optional<int> compare(const AttrValue& other) const;

 private:
  std::variant<std::string, std::int64_t, double, bool> v_;
};

}  // namespace aa::event
