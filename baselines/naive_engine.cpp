#include "baselines/naive_engine.hpp"

#include <optional>
#include <sstream>

#include "common/geo.hpp"

namespace aa::baselines {

using match::Rule;
using Binding = NaiveEngine::Binding;

namespace {

const event::Event* bound(const Binding& binding, const std::string& alias) {
  for (const auto& [a, e] : binding) {
    if (a == alias) return e;
  }
  return nullptr;
}

std::optional<event::AttrValue> resolve(const match::Operand& op, const Binding& binding) {
  if (op.constant.has_value()) return op.constant;
  const event::Event* e = bound(binding, op.alias);
  if (e == nullptr) return std::nullopt;
  const event::AttrValue* v = e->get(op.attr);
  if (v == nullptr) return std::nullopt;
  return *v;
}

// A condition over an alias not bound yet is vacuously true: it is
// re-checked on every longer binding, once everything is bound.
bool join_holds(const match::JoinCondition& join, const Binding& binding) {
  if (!join.left.constant.has_value() && bound(binding, join.left.alias) == nullptr) return true;
  if (!join.right.constant.has_value() && bound(binding, join.right.alias) == nullptr) {
    return true;
  }
  const auto left = resolve(join.left, binding);
  const auto right = resolve(join.right, binding);
  // Bound but attribute missing: the condition fails.
  if (!left.has_value() || !right.has_value()) return false;
  const event::Constraint c{"", join.op, *right};
  return c.matches(*left);
}

bool spatial_holds(const match::SpatialCondition& cond, const Binding& binding) {
  const event::Event* l = bound(binding, cond.left_alias);
  const event::Event* r = bound(binding, cond.right_alias);
  if (l == nullptr || r == nullptr) return true;  // defer
  const auto llat = l->get_real("lat"), llon = l->get_real("lon");
  const auto rlat = r->get_real("lat"), rlon = r->get_real("lon");
  if (!llat || !llon || !rlat || !rlon) return false;
  const GeoPoint a{*llat, *llon};
  const GeoPoint b{*rlat, *rlon};
  if (cond.max_meters >= 0 && geo_distance_m(a, b) > cond.max_meters) return false;
  if (cond.max_walk_seconds >= 0 && walking_time_s(a, b) > cond.max_walk_seconds) return false;
  return true;
}

/// True when every join and spatial condition of `rule` holds for a
/// (possibly partial) binding.
bool conditions_hold(const Rule& rule, const Binding& binding) {
  for (const auto& j : rule.joins) {
    if (!join_holds(j, binding)) return false;
  }
  for (const auto& s : rule.spatials) {
    if (!spatial_holds(s, binding)) return false;
  }
  return true;
}

/// The value `a` assigns under `binding`: its constant, or the bound
/// alias's attribute; null when the alias is unbound or lacks it.
const event::AttrValue* assigned_value(const match::Assignment& a, const Binding& binding) {
  if (a.constant.has_value()) return &*a.constant;
  const event::Event* src = bound(binding, a.from_alias);
  return src == nullptr ? nullptr : src->get(a.from_attr);
}

/// The event `rule` synthesises from a complete binding at `now`: the
/// emit spec's assignments, stamped with `now` and the rule's name.
event::Event emitted_event(const Rule& rule, const Binding& binding, SimTime now) {
  event::Event out(rule.emit.type);
  for (const auto& a : rule.emit.sets) {
    if (const event::AttrValue* v = assigned_value(a, binding)) out.set(a.name, *v);
  }
  out.set_time(now);
  out.set("rule", rule.name);
  return out;
}

// Every attribute of `e` except its time, as "name=value;" in AtomId
// order.
std::string emission_key(const event::Event& e) {
  std::ostringstream out;
  for (const auto& [atom, value] : e.attributes()) {
    if (atom == event::time_atom()) continue;
    out << event::atom_name(atom) << '=' << value.to_text() << ';';
  }
  return out.str();
}
}  // namespace

void NaiveEngine::on_event(const event::Event& e, SimTime now, const Sink& sink) {
  for (const Rule& rule : rules_) {
    for (std::size_t i = 0; i < rule.triggers.size(); ++i) {
      if (!rule.triggers[i].filter.matches(e)) continue;
      Binding binding;
      binding.emplace_back(rule.triggers[i].alias, &e);
      if (!conditions_hold(rule, binding)) continue;
      extend(rule, binding, 0, i, now, sink);
    }
  }
  history_.push_back(e);
}

void NaiveEngine::extend(const Rule& rule, Binding& binding, std::size_t next_trigger,
                         std::size_t seed_index, SimTime now, const Sink& sink) {
  if (next_trigger == rule.triggers.size()) {
    bind_facts(rule, binding, 0, now, sink);
    return;
  }
  if (next_trigger == seed_index) {
    extend(rule, binding, next_trigger + 1, seed_index, now, sink);
    return;
  }
  const auto& trigger = rule.triggers[next_trigger];
  // Full-history rescan: every event is a candidate, filtered inline.
  for (const event::Event& candidate : history_) {
    ++candidates_;
    if (candidate.time() < now - trigger.window) continue;
    if (!trigger.filter.matches(candidate)) continue;
    binding.emplace_back(trigger.alias, &candidate);
    if (conditions_hold(rule, binding)) {
      extend(rule, binding, next_trigger + 1, seed_index, now, sink);
    }
    binding.pop_back();
  }
}

void NaiveEngine::bind_facts(const Rule& rule, Binding& binding, std::size_t next_fact,
                             SimTime now, const Sink& sink) {
  if (next_fact == rule.facts.size()) {
    fire(rule, binding, now, sink);
    return;
  }
  const auto& pattern = rule.facts[next_fact];
  // Deliberately unindexed: linear scan through every fact.
  for (const auto& [id, fact] : kb_.snapshot()) {
    ++candidates_;
    if (!pattern.filter.matches(*fact)) continue;
    binding.emplace_back(pattern.alias, fact);
    if (conditions_hold(rule, binding)) {
      bind_facts(rule, binding, next_fact + 1, now, sink);
    }
    binding.pop_back();
  }
}

void NaiveEngine::fire(const Rule& rule, const Binding& binding, SimTime now,
                       const Sink& sink) {
  const event::Event out = emitted_event(rule, binding, now);
  if (rule.cooldown > 0) {
    const std::string key = rule.name + "|" + emission_key(out);
    auto it = last_fired_.find(key);
    if (it != last_fired_.end() && now - it->second < rule.cooldown) return;
    last_fired_[key] = now;
  }
  sink(out);
}

}  // namespace aa::baselines
