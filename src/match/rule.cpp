#include "match/rule.hpp"

#include <cstdlib>

#include "event/filter_parser.hpp"

namespace aa::match {

bool Rule::could_handle_type(const std::string& type) const {
  for (const TriggerPattern& t : triggers) {
    // A trigger "could handle" the type if its constraints on the type
    // attribute accept it (other attributes unconstrained here).
    bool type_ok = true;
    for (const auto& c : t.filter.constraints()) {
      if (c.atom != event::type_atom()) continue;
      if (!c.matches(event::AttrValue(type))) {
        type_ok = false;
        break;
      }
    }
    if (type_ok) return true;
  }
  return false;
}

// --- XML form ---

xml::Element Rule::to_xml() const {
  xml::Element root("rule");
  root.set_attribute("name", name);
  root.set_attribute("cooldown_ms", std::to_string(cooldown / 1000));
  for (const auto& t : triggers) {
    xml::Element e("trigger");
    e.set_attribute("alias", t.alias);
    e.set_attribute("window_ms", std::to_string(t.window / 1000));
    e.set_attribute("filter", t.filter.describe());
    root.add_child(std::move(e));
  }
  for (const auto& f : facts) {
    xml::Element e("fact");
    e.set_attribute("alias", f.alias);
    e.set_attribute("filter", f.filter.describe());
    root.add_child(std::move(e));
  }
  for (const auto& j : joins) {
    xml::Element e("join");
    auto operand = [&](const char* side, const Operand& op) {
      if (op.constant.has_value()) {
        e.set_attribute(std::string(side) + "_value", op.constant->to_text());
        e.set_attribute(std::string(side) + "_type",
                        event::value_type_name(op.constant->type()));
      } else {
        e.set_attribute(side, op.alias + "." + op.attr);
      }
    };
    operand("left", j.left);
    e.set_attribute("op", event::op_name(j.op));
    operand("right", j.right);
    root.add_child(std::move(e));
  }
  for (const auto& s : spatials) {
    xml::Element e("near");
    e.set_attribute("left", s.left_alias);
    e.set_attribute("right", s.right_alias);
    if (s.max_meters >= 0) e.set_attribute("meters", std::to_string(s.max_meters));
    if (s.max_walk_seconds >= 0) {
      e.set_attribute("walk_seconds", std::to_string(s.max_walk_seconds));
    }
    root.add_child(std::move(e));
  }
  xml::Element emit_el("emit");
  emit_el.set_attribute("type", emit.type);
  for (const auto& a : emit.sets) {
    xml::Element set_el("set");
    set_el.set_attribute("name", a.name);
    if (a.constant.has_value()) {
      set_el.set_attribute("value", a.constant->to_text());
      set_el.set_attribute("value_type", event::value_type_name(a.constant->type()));
    } else {
      set_el.set_attribute("from", a.from_alias + "." + a.from_attr);
    }
    emit_el.add_child(std::move(set_el));
  }
  root.add_child(std::move(emit_el));
  return root;
}

namespace {
Result<Operand> parse_operand(const xml::Element& e, const std::string& side) {
  if (const auto ref = e.attribute(side)) {
    const auto dot = ref->find('.');
    if (dot == std::string::npos) {
      return Status(Code::kInvalidArgument, "operand must be alias.attr: " + *ref);
    }
    return Operand::ref(ref->substr(0, dot), ref->substr(dot + 1));
  }
  const auto value = e.attribute(side + "_value");
  const auto type_name = e.attribute(side + "_type");
  if (!value || !type_name) {
    return Status(Code::kInvalidArgument, "join side '" + side + "' missing");
  }
  auto type = event::value_type_from_name(*type_name);
  if (!type.is_ok()) return type.status();
  auto v = event::AttrValue::from_text(type.value(), *value);
  if (!v.is_ok()) return v.status();
  return Operand::lit(std::move(v).value());
}
}  // namespace

Result<Rule> Rule::from_xml(const xml::Element& element) {
  if (element.name() != "rule") return Status(Code::kInvalidArgument, "expected <rule>");
  Rule rule;
  rule.name = element.attribute("name").value_or("");
  if (rule.name.empty()) return Status(Code::kInvalidArgument, "<rule> needs a name");
  rule.cooldown =
      duration::millis(std::atoll(element.attribute("cooldown_ms").value_or("0").c_str()));

  for (const xml::Element* t : element.children_named("trigger")) {
    const auto alias = t->attribute("alias");
    const auto filter_text = t->attribute("filter");
    if (!alias || !filter_text) {
      return Status(Code::kInvalidArgument, "<trigger> needs alias and filter");
    }
    auto filter = event::parse_filter(*filter_text);
    if (!filter.is_ok()) return filter.status();
    TriggerPattern p;
    p.alias = *alias;
    p.filter = std::move(filter).value();
    p.window = duration::millis(std::atoll(t->attribute("window_ms").value_or("0").c_str()));
    rule.triggers.push_back(std::move(p));
  }
  if (rule.triggers.empty()) {
    return Status(Code::kInvalidArgument, "<rule> needs at least one trigger");
  }

  for (const xml::Element* f : element.children_named("fact")) {
    const auto alias = f->attribute("alias");
    const auto filter_text = f->attribute("filter");
    if (!alias || !filter_text) {
      return Status(Code::kInvalidArgument, "<fact> needs alias and filter");
    }
    auto filter = event::parse_filter(*filter_text);
    if (!filter.is_ok()) return filter.status();
    rule.facts.push_back(FactPattern{*alias, std::move(filter).value()});
  }

  // Joins, spatial conditions and <set>s name bound events by alias, so
  // a repeated one would be ambiguous.
  std::vector<const std::string*> aliases;
  for (const TriggerPattern& t : rule.triggers) aliases.push_back(&t.alias);
  for (const FactPattern& f : rule.facts) aliases.push_back(&f.alias);
  for (std::size_t i = 0; i < aliases.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (*aliases[i] == *aliases[j]) {
        return Status(Code::kInvalidArgument, "<rule> repeats alias '" + *aliases[i] + "'");
      }
    }
  }

  for (const xml::Element* j : element.children_named("join")) {
    auto left = parse_operand(*j, "left");
    if (!left.is_ok()) return left.status();
    auto right = parse_operand(*j, "right");
    if (!right.is_ok()) return right.status();
    auto op = event::op_from_name(j->attribute("op").value_or("="));
    if (!op.is_ok()) return op.status();
    rule.joins.push_back(
        JoinCondition{std::move(left).value(), op.value(), std::move(right).value()});
  }

  for (const xml::Element* s : element.children_named("near")) {
    SpatialCondition cond;
    cond.left_alias = s->attribute("left").value_or("");
    cond.right_alias = s->attribute("right").value_or("");
    if (cond.left_alias.empty() || cond.right_alias.empty()) {
      return Status(Code::kInvalidArgument, "<near> needs left and right aliases");
    }
    if (const auto m = s->attribute("meters")) cond.max_meters = std::strtod(m->c_str(), nullptr);
    if (const auto w = s->attribute("walk_seconds")) {
      cond.max_walk_seconds = std::strtod(w->c_str(), nullptr);
    }
    rule.spatials.push_back(std::move(cond));
  }

  const xml::Element* emit_el = element.child("emit");
  if (emit_el == nullptr) return Status(Code::kInvalidArgument, "<rule> needs <emit>");
  rule.emit.type = emit_el->attribute("type").value_or("");
  if (rule.emit.type.empty()) return Status(Code::kInvalidArgument, "<emit> needs type");
  for (const xml::Element* set_el : emit_el->children_named("set")) {
    Assignment a;
    a.name = set_el->attribute("name").value_or("");
    if (a.name.empty()) return Status(Code::kInvalidArgument, "<set> needs name");
    if (const auto from = set_el->attribute("from")) {
      const auto dot = from->find('.');
      if (dot == std::string::npos) {
        return Status(Code::kInvalidArgument, "<set from> must be alias.attr");
      }
      a.from_alias = from->substr(0, dot);
      a.from_attr = from->substr(dot + 1);
    } else {
      const auto value = set_el->attribute("value");
      if (!value) return Status(Code::kInvalidArgument, "<set> needs from or value");
      const auto type_name = set_el->attribute("value_type").value_or("string");
      auto type = event::value_type_from_name(type_name);
      if (!type.is_ok()) return type.status();
      auto v = event::AttrValue::from_text(type.value(), *value);
      if (!v.is_ok()) return v.status();
      a.constant = std::move(v).value();
    }
    rule.emit.sets.push_back(std::move(a));
  }
  return rule;
}

std::string Rule::to_xml_string() const { return xml::to_string(to_xml()); }

Result<Rule> Rule::parse(std::string_view text) {
  auto doc = xml::parse(text);
  if (!doc.is_ok()) return doc.status();
  return from_xml(doc.value());
}

}  // namespace aa::match
