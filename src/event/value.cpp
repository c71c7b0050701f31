#include "event/value.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace aa::event {

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
  switch (type()) {
    case ValueType::kString:
      return str();
    case ValueType::kInt:
      return std::to_string(integer());
    case ValueType::kReal: {
      std::ostringstream out;
      out.precision(17);
      out << real();
      return out.str();
    }
    case ValueType::kBool:
      return boolean() ? "true" : "false";
  }
  return {};
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
