#include "event/filter.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace aa::event {

const char* op_name(Op op) {
  switch (op) {
    case Op::kEq: return "=";
    case Op::kNe: return "!=";
    case Op::kLt: return "<";
    case Op::kLe: return "<=";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
    case Op::kPrefix: return "prefix";
    case Op::kSuffix: return "suffix";
    case Op::kSubstring: return "contains";
    case Op::kExists: return "exists";
  }
  return "?";
}

Result<Op> op_from_name(std::string_view name) {
  if (name == "=" || name == "==") return Op::kEq;
  if (name == "!=") return Op::kNe;
  if (name == "<") return Op::kLt;
  if (name == "<=") return Op::kLe;
  if (name == ">") return Op::kGt;
  if (name == ">=") return Op::kGe;
  if (name == "prefix") return Op::kPrefix;
  if (name == "suffix") return Op::kSuffix;
  if (name == "contains") return Op::kSubstring;
  if (name == "exists") return Op::kExists;
  return Status(Code::kInvalidArgument, "unknown operator: " + std::string(name));
}

namespace {
bool starts_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}
bool ends_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(s.size() - p.size(), p.size(), p) == 0;
}
bool contains(const std::string& s, const std::string& p) {
  return s.find(p) != std::string::npos;
}
/// Characters describe() backslash-escapes inside a quoted string.
bool needs_backslash(char c) { return c == '"' || c == '\\'; }
/// True when `v` is a real whose to_text() spelling has no point,
/// exponent or letter ("20", "-0"), so parse_filter would read it back
/// as an int; describe() appends ".0" to it.  Shorter finite integers
/// print in full under to_text's 17 significant digits, longer ones
/// with an exponent.
bool spelled_as_int(const AttrValue& v) {
  return v.is_real() && std::isfinite(v.real()) && v.real() == std::trunc(v.real()) &&
         std::fabs(v.real()) < 1e17;
}
}  // namespace

bool op_matches(Op op, const AttrValue& v, const AttrValue& operand) {
  switch (op) {
    case Op::kExists:
      return true;
    case Op::kPrefix:
      return v.is_string() && operand.is_string() && starts_with(v.str(), operand.str());
    case Op::kSuffix:
      return v.is_string() && operand.is_string() && ends_with(v.str(), operand.str());
    case Op::kSubstring:
      return v.is_string() && operand.is_string() && contains(v.str(), operand.str());
    default:
      break;
  }
  const auto c = v.compare(operand);
  if (!c.has_value()) return false;  // incomparable types never match
  switch (op) {
    case Op::kEq: return *c == 0;
    case Op::kNe: return *c != 0;
    case Op::kLt: return *c < 0;
    case Op::kLe: return *c <= 0;
    case Op::kGt: return *c > 0;
    case Op::kGe: return *c >= 0;
    default: return false;
  }
}

bool Constraint::matches(const AttrValue& v) const { return op_matches(op, v, value); }

const std::string& Constraint::attribute() const {
  static const std::string kEmpty;
  return atom == kNoAtom ? kEmpty : atom_name(atom);
}

bool Constraint::implies(const Constraint& weaker) const {
  if (atom != weaker.atom) return false;
  // Anything implies bare existence.
  if (weaker.op == Op::kExists) return true;
  if (op == Op::kExists) return false;

  // Equality: satisfied only by exactly `value`, so implication reduces
  // to whether that witness satisfies the weaker constraint.
  if (op == Op::kEq) return weaker.matches(value);

  if (op == Op::kNe) {
    return weaker.op == Op::kNe && value == weaker.value;
  }

  // String containment lattice.
  if (op == Op::kPrefix || op == Op::kSuffix || op == Op::kSubstring) {
    if (!value.is_string() || !weaker.value.is_string()) return false;
    const std::string& p = value.str();
    const std::string& q = weaker.value.str();
    if (op == Op::kPrefix && weaker.op == Op::kPrefix) return starts_with(p, q);
    if (op == Op::kSuffix && weaker.op == Op::kSuffix) return ends_with(p, q);
    if (weaker.op == Op::kSubstring) return contains(p, q);
    return false;
  }

  // Ordering ops: both bounds must be comparable.
  const auto c = value.compare(weaker.value);
  if (!c.has_value()) return false;
  const int cmp = *c;  // value <=> weaker.value
  switch (op) {
    case Op::kLt:
      // v < value
      if (weaker.op == Op::kLt || weaker.op == Op::kLe) return cmp <= 0;
      if (weaker.op == Op::kNe) return cmp <= 0;  // v < value <= y  =>  v != y
      return false;
    case Op::kLe:
      // v <= value
      if (weaker.op == Op::kLt) return cmp < 0;
      if (weaker.op == Op::kLe) return cmp <= 0;
      if (weaker.op == Op::kNe) return cmp < 0;  // v <= value < y  =>  v != y
      return false;
    case Op::kGt:
      // v > value
      if (weaker.op == Op::kGt || weaker.op == Op::kGe) return cmp >= 0;
      if (weaker.op == Op::kNe) return cmp >= 0;
      return false;
    case Op::kGe:
      // v >= value
      if (weaker.op == Op::kGt) return cmp > 0;
      if (weaker.op == Op::kGe) return cmp >= 0;
      if (weaker.op == Op::kNe) return cmp > 0;
      return false;
    default:
      return false;
  }
}

std::string Constraint::describe() const {
  // The rendering is re-parseable by parse_filter (string values are
  // quoted and escaped, reals always read back as reals), which is what
  // lets rules serialise filters to XML.
  std::string out = attribute();
  out += ' ';
  out += op_name(op);
  if (op != Op::kExists) {
    out += ' ';
    if (value.is_string()) {
      out += '"';
      for (char c : value.str()) {
        if (needs_backslash(c)) out += '\\';
        out += c;
      }
      out += '"';
    } else {
      value.append_text(out);
      if (spelled_as_int(value)) out += ".0";
    }
  }
  return out;
}

std::size_t Constraint::describe_size() const {
  std::size_t size = attribute().size() + 1 + std::char_traits<char>::length(op_name(op));
  if (op != Op::kExists) {
    size += 1;
    if (value.is_string()) {
      const std::string& s = value.str();
      size += 2 + s.size() + static_cast<std::size_t>(std::ranges::count_if(s, needs_backslash));
    } else {
      size += value.text_size() + (spelled_as_int(value) ? 2 : 0);
    }
  }
  return size;
}

Filter& Filter::where(std::string_view attribute, Op op, AttrValue value) {
  constraints_.push_back(Constraint(attribute, op, std::move(value)));
  return *this;
}

Filter& Filter::where(AtomId atom, Op op, AttrValue value) {
  constraints_.push_back(Constraint(atom, op, std::move(value)));
  return *this;
}

bool Filter::matches(const Event& e) const {
  for (const Constraint& c : constraints_) {
    const AttrValue* v = e.get(c.atom);
    if (v == nullptr || !c.matches(*v)) return false;
  }
  return true;
}

bool Filter::covers(const Filter& other) const {
  for (const Constraint& mine : constraints_) {
    bool implied = false;
    for (const Constraint& theirs : other.constraints_) {
      if (theirs.implies(mine)) {
        implied = true;
        break;
      }
    }
    if (!implied) return false;
  }
  return true;
}

bool Filter::overlaps(const Filter& other) const {
  // Provable disjointness on any shared attribute refutes overlap.
  for (const Constraint& a : constraints_) {
    for (const Constraint& b : other.constraints_) {
      if (a.atom != b.atom) continue;
      // eq pinned on one side: the other side must accept the witness.
      if (a.op == Op::kEq && !b.matches(a.value)) return false;
      if (b.op == Op::kEq && !a.matches(b.value)) return false;
      // Disjoint prefix constraints.
      if (a.op == Op::kPrefix && b.op == Op::kPrefix && a.value.is_string() &&
          b.value.is_string()) {
        const std::string& p = a.value.str();
        const std::string& q = b.value.str();
        if (!starts_with(p, q) && !starts_with(q, p)) return false;
      }
      // Upper bound strictly below lower bound.
      auto is_upper = [](Op op) { return op == Op::kLt || op == Op::kLe; };
      auto is_lower = [](Op op) { return op == Op::kGt || op == Op::kGe; };
      const Constraint* upper = nullptr;
      const Constraint* lower = nullptr;
      if (is_upper(a.op) && is_lower(b.op)) {
        upper = &a;
        lower = &b;
      } else if (is_upper(b.op) && is_lower(a.op)) {
        upper = &b;
        lower = &a;
      }
      if (upper != nullptr) {
        const auto c = lower->value.compare(upper->value);
        if (c.has_value()) {
          if (*c > 0) return false;  // lower bound above upper bound
          if (*c == 0 && (upper->op == Op::kLt || lower->op == Op::kGt)) return false;
        }
      }
    }
  }
  return true;
}

std::string Filter::describe() const {
  if (constraints_.empty()) return "<any>";
  std::string out;
  for (const Constraint& c : constraints_) {
    if (&c != &constraints_.front()) out += " and ";
    out += c.describe();
  }
  return out;
}

std::size_t Filter::describe_size() const {
  if (constraints_.empty()) return 5;  // "<any>"
  std::size_t size = 5 * (constraints_.size() - 1);  // " and " separators
  for (const Constraint& c : constraints_) size += c.describe_size();
  return size;
}

void write_filter(BufWriter& w, const Filter& f) {
  w.u32(static_cast<std::uint32_t>(f.constraints().size()));
  for (const Constraint& c : f.constraints()) {
    w.str(c.attribute());
    w.u8(static_cast<std::uint8_t>(c.op));
    w.u8(static_cast<std::uint8_t>(c.value.type()));
    w.str(c.value.to_text());
  }
}

Filter read_filter(BufReader& r) {
  const std::uint32_t n = r.u32();
  std::vector<Constraint> constraints;
  for (std::uint32_t i = 0; i < n && !r.failed(); ++i) {
    const std::string attribute = r.str();
    const std::uint8_t op = r.u8();
    const std::uint8_t type = r.u8();
    const std::string text = r.str();
    if (r.failed()) break;
    // An operator or type byte out of range, or text its type refuses,
    // is corruption: fail the reader as a short read does.
    if (op > static_cast<std::uint8_t>(Op::kExists) ||
        type > static_cast<std::uint8_t>(ValueType::kBool)) {
      r.fail();
      break;
    }
    auto value = AttrValue::from_text(static_cast<ValueType>(type), text);
    if (!value.is_ok()) {
      r.fail();
      break;
    }
    constraints.emplace_back(attribute, static_cast<Op>(op), std::move(value).value());
  }
  return Filter(std::move(constraints));
}

}  // namespace aa::event
