#include "baselines/naive_engine.hpp"

#include <sstream>

namespace aa::baselines {

using match::Binding;
using match::Rule;

namespace {
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
      if (!match::conditions_hold(rule, binding)) continue;
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
    if (match::conditions_hold(rule, binding)) {
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
    if (match::conditions_hold(rule, binding)) {
      bind_facts(rule, binding, next_fact + 1, now, sink);
    }
    binding.pop_back();
  }
}

void NaiveEngine::fire(const Rule& rule, const Binding& binding, SimTime now,
                       const Sink& sink) {
  const event::Event out = match::emitted_event(rule, binding, now);
  if (rule.cooldown > 0) {
    const std::string key = rule.name + "|" + emission_key(out);
    auto it = last_fired_.find(key);
    if (it != last_fired_.end() && now - it->second < rule.cooldown) return;
    last_fired_[key] = now;
  }
  sink(out);
}

}  // namespace aa::baselines
