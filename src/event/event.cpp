#include "event/event.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <vector>

namespace aa::event {

namespace {

std::atomic<std::uint64_t> g_serializations{0};

/// Attribute indices in name order — the wire form's canonical order,
/// independent of interning order (see atom.hpp).
template <typename AttrList>
std::vector<std::uint32_t> name_order(const AttrList& attrs) {
  std::vector<std::uint32_t> order(attrs.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return atom_name(attrs[a].first) < atom_name(attrs[b].first);
  });
  return order;
}

}  // namespace

struct Event::EventData {
  AttrList attrs;  // sorted by AtomId, unique keys
  // Lazily-computed XML length; 0 = unknown.  Written through shared
  // handles on first use — benign in the single-threaded simulator (and
  // idempotent: every writer stores the same value).
  mutable std::size_t wire_cache = 0;
  // Same contract for the binary codec's length (wire::Codec kBinary).
  mutable std::size_t binary_cache = 0;

  Attr* find(AtomId atom) {
    auto it = std::lower_bound(
        attrs.begin(), attrs.end(), atom,
        [](const Attr& a, AtomId id) { return a.first < id; });
    return it != attrs.end() && it->first == atom ? it : nullptr;
  }
  const Attr* find(AtomId atom) const {
    return const_cast<EventData*>(this)->find(atom);
  }
};

Event::Event(std::string type) { set(type_atom(), std::move(type)); }

const Event::AttrList& Event::attributes() const {
  static const AttrList kEmpty;
  return data_ == nullptr ? kEmpty : data_->attrs;
}

Event::EventData& Event::mutable_data() {
  if (data_ == nullptr) {
    data_ = std::make_shared<EventData>();
  } else if (data_.use_count() > 1) {
    data_ = std::make_shared<EventData>(*data_);
  }
  data_->wire_cache = 0;
  data_->binary_cache = 0;
  return *data_;
}

Event& Event::set(AtomId atom, AttrValue value) {
  EventData& d = mutable_data();
  if (Attr* existing = d.find(atom)) {
    existing->second = std::move(value);
    return *this;
  }
  auto it = std::lower_bound(
      d.attrs.begin(), d.attrs.end(), atom,
      [](const Attr& a, AtomId id) { return a.first < id; });
  d.attrs.insert(it, Attr{atom, std::move(value)});
  return *this;
}

Event& Event::set(std::string_view name, AttrValue value) {
  return set(intern(name), std::move(value));
}

const AttrValue* Event::get(AtomId atom) const {
  if (data_ == nullptr) return nullptr;
  const Attr* a = data_->find(atom);
  return a == nullptr ? nullptr : &a->second;
}

const AttrValue* Event::get(std::string_view name) const {
  const AtomId atom = lookup_atom(name);
  return atom == kNoAtom ? nullptr : get(atom);
}

std::optional<std::string> Event::get_string(AtomId atom) const {
  const AttrValue* v = get(atom);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return v->str();
}

std::optional<std::int64_t> Event::get_int(AtomId atom) const {
  const AttrValue* v = get(atom);
  if (v == nullptr || !v->is_int()) return std::nullopt;
  return v->integer();
}

std::optional<double> Event::get_real(AtomId atom) const {
  const AttrValue* v = get(atom);
  if (v == nullptr || !v->is_numeric()) return std::nullopt;
  return v->as_real();
}

std::optional<bool> Event::get_bool(AtomId atom) const {
  const AttrValue* v = get(atom);
  if (v == nullptr || !v->is_bool()) return std::nullopt;
  return v->boolean();
}

std::optional<std::string> Event::get_string(std::string_view name) const {
  const AtomId atom = lookup_atom(name);
  return atom == kNoAtom ? std::nullopt : get_string(atom);
}

std::optional<std::int64_t> Event::get_int(std::string_view name) const {
  const AtomId atom = lookup_atom(name);
  return atom == kNoAtom ? std::nullopt : get_int(atom);
}

std::optional<double> Event::get_real(std::string_view name) const {
  const AtomId atom = lookup_atom(name);
  return atom == kNoAtom ? std::nullopt : get_real(atom);
}

std::optional<bool> Event::get_bool(std::string_view name) const {
  const AtomId atom = lookup_atom(name);
  return atom == kNoAtom ? std::nullopt : get_bool(atom);
}

bool Event::operator==(const Event& other) const {
  if (data_ == other.data_) return true;
  return attributes() == other.attributes();
}

xml::Element Event::to_xml() const {
  const AttrList& attrs = attributes();
  xml::Element root("event");
  for (std::uint32_t i : name_order(attrs)) {
    const auto& [atom, value] = attrs[i];
    xml::Element attr("attr");
    attr.set_attribute("name", atom_name(atom));
    attr.set_attribute("type", value_type_name(value.type()));
    attr.set_attribute("value", value.to_text());
    root.add_child(std::move(attr));
  }
  return root;
}

Result<Event> Event::from_xml(const xml::Element& element) {
  if (element.name() != "event") {
    return Status(Code::kInvalidArgument, "expected <event>, got <" + element.name() + ">");
  }
  Event e;
  for (const xml::Element* attr : element.children_named("attr")) {
    const auto name = attr->attribute("name");
    const auto type_name = attr->attribute("type");
    const auto value_text = attr->attribute("value");
    if (!name || !type_name || !value_text) {
      return Status(Code::kInvalidArgument, "<attr> needs name, type, value");
    }
    auto type = value_type_from_name(*type_name);
    if (!type.is_ok()) return type.status();
    auto value = AttrValue::from_text(type.value(), *value_text);
    if (!value.is_ok()) return value.status();
    e.set(*name, std::move(value).value());
  }
  return e;
}

std::string Event::to_xml_string() const {
  g_serializations.fetch_add(1, std::memory_order_relaxed);
  return xml::to_string(to_xml());
}

Result<Event> Event::parse(std::string_view xml_text) {
  auto doc = xml::parse(xml_text);
  if (!doc.is_ok()) return doc.status();
  return from_xml(doc.value());
}

namespace {

/// Length of to_xml_string()'s document, from the attributes alone:
/// "<event/>" when empty, else "<event>" ... "</event>" around one
///   <attr name="N" type="T" value="V"/>
/// per attribute — 32 fixed bytes plus the three escaped attribute
/// values.  Only string values can hold an escapable character; every
/// other value's text (digits, sign, '.', 'e', nan, inf, true, false)
/// is its own escape.
std::size_t xml_size(const Event::AttrList& attrs) {
  if (attrs.empty()) return 8;
  std::size_t size = 15;
  for (const auto& [atom, value] : attrs) {
    size += 32 + xml::escaped_size(atom_name(atom)) +
            xml::escaped_size(value_type_name(value.type())) +
            (value.is_string() ? xml::escaped_size(value.str()) : value.text_size());
  }
  return size;
}

}  // namespace

std::size_t Event::wire_size() const {
  if (data_ == nullptr) return xml_size(AttrList{});
  if (data_->wire_cache == 0) data_->wire_cache = xml_size(data_->attrs);
  return data_->wire_cache;
}

namespace {

/// Byte cost of one binary-encoded value (to_binary's value shapes).
std::size_t binary_value_size(const AttrValue& v) {
  switch (v.type()) {
    case ValueType::kString:
      return varint_size(v.str().size()) + v.str().size();
    case ValueType::kInt:
      return varint_size(zigzag(v.integer()));
    case ValueType::kReal:
      return 8;
    case ValueType::kBool:
      return 1;
  }
  return 0;
}

void write_binary_value(BufWriter& w, const AttrValue& v) {
  switch (v.type()) {
    case ValueType::kString:
      w.vstr(v.str());
      return;
    case ValueType::kInt:
      w.svarint(v.integer());
      return;
    case ValueType::kReal:
      w.f64(v.real());
      return;
    case ValueType::kBool:
      w.boolean(v.boolean());
      return;
  }
}

Result<AttrValue> read_binary_value(BufReader& r, ValueType type) {
  switch (type) {
    case ValueType::kString:
      return AttrValue(r.vstr());
    case ValueType::kInt:
      return AttrValue(r.svarint());
    case ValueType::kReal:
      return AttrValue(r.f64());
    case ValueType::kBool:
      return AttrValue(r.boolean());
  }
  return Status(Code::kInvalidArgument, "unknown value type tag");
}

}  // namespace

void Event::to_binary(BufWriter& w) const {
  const AttrList& attrs = attributes();
  w.varint(attrs.size());
  for (std::uint32_t i : name_order(attrs)) {
    const auto& [atom, value] = attrs[i];
    w.vstr(atom_name(atom));
    w.u8(static_cast<std::uint8_t>(value.type()));
    write_binary_value(w, value);
  }
}

Result<Event> Event::from_binary(BufReader& r) {
  const std::uint64_t count = r.varint();
  Event e;
  for (std::uint64_t i = 0; i < count && !r.failed(); ++i) {
    const std::string name = r.vstr();
    const std::uint8_t tag = r.u8();
    if (r.failed()) break;
    if (tag > static_cast<std::uint8_t>(ValueType::kBool)) {
      return Status(Code::kInvalidArgument,
                    "bad attribute type tag " + std::to_string(tag));
    }
    auto value = read_binary_value(r, static_cast<ValueType>(tag));
    if (!value.is_ok()) return value.status();
    if (r.failed()) break;
    e.set(name, std::move(value).value());
  }
  if (r.failed()) {
    return Status(Code::kInvalidArgument, "truncated binary event");
  }
  return e;
}

std::size_t Event::binary_wire_size() const {
  auto compute = [](const AttrList& attrs) {
    std::size_t size = varint_size(attrs.size());
    for (const auto& [atom, value] : attrs) {
      const std::string& name = atom_name(atom);
      size += varint_size(name.size()) + name.size() + 1 + binary_value_size(value);
    }
    return size;
  };
  if (data_ == nullptr) return compute(AttrList{});
  if (data_->binary_cache == 0) data_->binary_cache = compute(data_->attrs);
  return data_->binary_cache;
}

std::string Event::describe() const {
  const AttrList& attrs = attributes();
  std::ostringstream out;
  out << "event{";
  bool first = true;
  for (std::uint32_t i : name_order(attrs)) {
    if (!first) out << ", ";
    first = false;
    out << atom_name(attrs[i].first) << "=" << attrs[i].second.to_text();
  }
  out << "}";
  return out.str();
}

std::uint64_t Event::serializations() {
  return g_serializations.load(std::memory_order_relaxed);
}

}  // namespace aa::event
