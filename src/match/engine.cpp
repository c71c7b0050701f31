#include "match/engine.hpp"

#include <sstream>

namespace aa::match {

namespace {
// Hard cap per trigger window so a silent subscriber can't accumulate
// unbounded state; oldest events are shed first.
constexpr std::size_t kMaxWindowEvents = 4096;
}  // namespace

void MatchEngine::add_rule(Rule rule) {
  RuleState state;
  state.rule = std::move(rule);
  for (const auto& t : state.rule.triggers) state.windows[t.alias];
  states_.push_back(std::move(state));
}

bool MatchEngine::remove_rule(const std::string& name) {
  for (auto it = states_.begin(); it != states_.end(); ++it) {
    if (it->rule.name == name) {
      states_.erase(it);
      return true;
    }
  }
  return false;
}

bool MatchEngine::handles_type(const std::string& type) const {
  for (const RuleState& state : states_) {
    if (state.rule.could_handle_type(type)) return true;
  }
  return false;
}

void MatchEngine::expire(RuleState& state, SimTime now) {
  for (const auto& t : state.rule.triggers) {
    auto& window = state.windows[t.alias];
    while (!window.empty() &&
           (window.front().time() < now - t.window || window.size() > kMaxWindowEvents)) {
      window.pop_front();
    }
  }
}

void MatchEngine::on_event(const event::Event& e, SimTime now, const Sink& sink) {
  ++stats_.events_processed;
  for (RuleState& state : states_) {
    expire(state, now);
    // An arriving event seeds at most one firing attempt per trigger it
    // matches; it joins other aliases only via their windows, so a
    // single event never binds two aliases of the same firing.
    std::vector<std::size_t> matching;
    for (std::size_t i = 0; i < state.rule.triggers.size(); ++i) {
      if (state.rule.triggers[i].filter.matches(e)) matching.push_back(i);
    }
    for (std::size_t i : matching) {
      ++stats_.trigger_matches;
      try_fire(state, i, e, now, sink);
    }
    for (std::size_t i : matching) {
      state.windows[state.rule.triggers[i].alias].push_back(e);
    }
  }
}

void MatchEngine::try_fire(RuleState& state, std::size_t seed_trigger, const event::Event& seed,
                           SimTime now, const Sink& sink) {
  Binding binding;
  binding.emplace_back(state.rule.triggers[seed_trigger].alias, &seed);
  if (!conditions_hold(state.rule, binding)) return;
  extend(state, binding, 0, seed_trigger, now, sink);
}

void MatchEngine::extend(RuleState& state, Binding& binding, std::size_t next_trigger,
                         std::size_t seed_index, SimTime now, const Sink& sink) {
  if (next_trigger == state.rule.triggers.size()) {
    bind_facts(state, binding, 0, sink, now);
    return;
  }
  if (next_trigger == seed_index) {
    extend(state, binding, next_trigger + 1, seed_index, now, sink);
    return;
  }
  const auto& trigger = state.rule.triggers[next_trigger];
  const auto& window = state.windows[trigger.alias];
  for (const event::Event& candidate : window) {
    if (candidate.time() < now - trigger.window) continue;  // stale
    ++stats_.candidate_bindings;
    binding.emplace_back(trigger.alias, &candidate);
    if (conditions_hold(state.rule, binding)) {
      extend(state, binding, next_trigger + 1, seed_index, now, sink);
    }
    binding.pop_back();
  }
}

void MatchEngine::bind_facts(RuleState& state, Binding& binding, std::size_t next_fact,
                             const Sink& sink, SimTime now) {
  if (next_fact == state.rule.facts.size()) {
    fire(state, binding, now, sink);
    return;
  }
  const auto& pattern = state.rule.facts[next_fact];
  // Join pushdown: equality joins between this fact pattern and an
  // already-bound alias become extra probe constraints, so the
  // knowledge-base index narrows candidates to the joined value instead
  // of every fact matching the base filter ("pref.user = loc.user"
  // probes user=bob, not all preferences).
  event::Filter probe = pattern.filter;
  for (const auto& join : state.rule.joins) {
    if (join.op != event::Op::kEq) continue;
    const Operand* fact_side = nullptr;
    const Operand* other_side = nullptr;
    if (join.left.alias == pattern.alias && !join.left.constant.has_value()) {
      fact_side = &join.left;
      other_side = &join.right;
    } else if (join.right.alias == pattern.alias && !join.right.constant.has_value()) {
      fact_side = &join.right;
      other_side = &join.left;
    } else {
      continue;
    }
    if (other_side->constant.has_value()) {
      probe.where(fact_side->attr, event::Op::kEq, *other_side->constant);
      continue;
    }
    const event::Event* bound_event = bound(binding, other_side->alias);
    if (bound_event == nullptr) continue;
    const event::AttrValue* v = bound_event->get(other_side->attr);
    if (v != nullptr) probe.where(fact_side->attr, event::Op::kEq, *v);
  }
  for (const Fact* fact : kb_.query(probe)) {
    ++stats_.candidate_bindings;
    binding.emplace_back(pattern.alias, fact);
    if (conditions_hold(state.rule, binding)) {
      bind_facts(state, binding, next_fact + 1, sink, now);
    }
    binding.pop_back();
  }
}

std::string MatchEngine::emission_key(const event::Event& e) {
  // Canonical (AtomId-sorted) order is deterministic within a process,
  // which is all a cooldown key needs.
  std::ostringstream out;
  for (const auto& [atom, value] : e.attributes()) {
    if (atom == event::time_atom()) continue;
    out << event::atom_name(atom) << '=' << value.to_text() << ';';
  }
  return out.str();
}

void MatchEngine::fire(RuleState& state, const Binding& binding, SimTime now,
                       const Sink& sink) {
  const event::Event out = emitted_event(state.rule, binding, now);

  if (state.rule.cooldown > 0) {
    const std::string key = state.rule.name + "|" + emission_key(out);
    auto it = last_fired_.find(key);
    if (it != last_fired_.end() && now - it->second < state.rule.cooldown) {
      ++stats_.cooldown_suppressed;
      return;
    }
    last_fired_[key] = now;
  }
  ++stats_.matches_emitted;
  sink(out);
}

}  // namespace aa::match
