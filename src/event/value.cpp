#include "event/value.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace aa::event {

namespace {

// Room for any double at 17 significant digits (the longest, such as
// "-1.2345678901234567e-308", are 24 characters).
using RealChars = std::array<char, 32>;

/// Writes `v` as printf's "%.17g" would — the wire form's spelling of
/// a real, nan and inf in lower case — and returns the length.
std::size_t real_chars(double v, RealChars& buf) {
  const char* end =
      std::to_chars(buf.data(), buf.data() + buf.size(), v, std::chars_format::general, 17).ptr;
  return static_cast<std::size_t>(end - buf.data());
}

/// Decimal digits of |v| plus the sign.
std::size_t int_chars(std::int64_t v) {
  const auto bits = static_cast<std::uint64_t>(v);
  std::uint64_t magnitude = v < 0 ? 0 - bits : bits;  // exact for INT64_MIN too
  std::size_t n = v < 0 ? 2 : 1;
  while (magnitude >= 10) {
    magnitude /= 10;
    ++n;
  }
  return n;
}

}  // namespace

const char* value_type_name(ValueType t) {
  switch (t) {
    case ValueType::kString: return "string";
    case ValueType::kInt: return "int";
    case ValueType::kReal: return "real";
    case ValueType::kBool: return "bool";
  }
  return "?";
}

Result<ValueType> value_type_from_name(std::string_view name) {
  if (name == "string") return ValueType::kString;
  if (name == "int") return ValueType::kInt;
  if (name == "real") return ValueType::kReal;
  if (name == "bool") return ValueType::kBool;
  return Status(Code::kInvalidArgument, "unknown value type: " + std::string(name));
}

std::string AttrValue::to_text() const {
  std::string out;
  append_text(out);
  return out;
}

void AttrValue::append_text(std::string& out) const {
  switch (type()) {
    case ValueType::kString:
      out += str();
      return;
    case ValueType::kInt: {
      std::array<char, 24> buf{};  // "-9223372036854775808" is 20
      out.append(buf.data(), std::to_chars(buf.data(), buf.data() + buf.size(), integer()).ptr);
      return;
    }
    case ValueType::kReal: {
      RealChars buf;
      out.append(buf.data(), real_chars(real(), buf));
      return;
    }
    case ValueType::kBool:
      out += boolean() ? "true" : "false";
      return;
  }
}

std::size_t AttrValue::text_size() const {
  switch (type()) {
    case ValueType::kString:
      return str().size();
    case ValueType::kInt:
      return int_chars(integer());
    case ValueType::kReal: {
      RealChars buf;
      return real_chars(real(), buf);
    }
    case ValueType::kBool:
      return boolean() ? 4 : 5;
  }
  return 0;
}

Result<AttrValue> AttrValue::from_text(ValueType type, const std::string& text) {
  switch (type) {
    case ValueType::kString:
      return AttrValue(text);
    case ValueType::kInt: {
      std::int64_t v = 0;
      const auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || p != text.data() + text.size()) {
        return Status(Code::kInvalidArgument, "bad int: '" + text + "'");
      }
      return AttrValue(v);
    }
    case ValueType::kReal: {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (text.empty() || end != text.c_str() + text.size()) {
        return Status(Code::kInvalidArgument, "bad real: '" + text + "'");
      }
      return AttrValue(v);
    }
    case ValueType::kBool: {
      if (text == "true") return AttrValue(true);
      if (text == "false") return AttrValue(false);
      return Status(Code::kInvalidArgument, "bad bool: '" + text + "'");
    }
  }
  return Status(Code::kInternal, "unhandled type");
}

std::optional<int> AttrValue::compare(const AttrValue& other) const {
  if (is_numeric() && other.is_numeric()) {
    const double a = as_real();
    const double b = other.as_real();
    if (std::isnan(a) || std::isnan(b)) return std::nullopt;  // NaN is unordered
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type() != other.type()) return std::nullopt;
  switch (type()) {
    case ValueType::kString: {
      const int c = str().compare(other.str());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kBool:
      return static_cast<int>(boolean()) - static_cast<int>(other.boolean());
    default:
      return std::nullopt;  // unreachable: numerics handled above
  }
}

}  // namespace aa::event
