#include "match/engine.hpp"

#include <algorithm>

namespace aa::match {

namespace {
// Hard cap per trigger window so a silent subscriber can't accumulate
// unbounded state; oldest events are shed first.
constexpr std::size_t kMaxWindowEvents = 4096;

const std::string kTypeName = "type";
const std::string kTimeName = "time";
const std::string kRuleName = "rule";

// Join pushdown: equality joins between `pattern` and an already-bound
// alias become extra probe constraints, so the knowledge-base index
// narrows candidates to the joined value instead of every fact matching
// the base filter ("pref.user = loc.user" probes user=bob, not all
// preferences).
event::Filter fact_probe(const Rule& rule, const FactPattern& pattern, const Binding& binding) {
  event::Filter probe = pattern.filter;
  for (const auto& join : rule.joins) {
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
  return probe;
}
}  // namespace

void MatchEngine::add_rule(Rule rule) {
  RuleState state;
  state.rule = std::move(rule);
  const Rule& r = state.rule;
  for (const auto& t : r.triggers) state.windows[t.alias];
  // A binding grows as: the seed trigger, the other triggers in order,
  // then the facts.  bound() reads an alias's first entry, so the key is
  // fixed once the first entry of every alias an assignment reads is in.
  for (std::size_t seed = 0; seed < r.triggers.size(); ++seed) {
    std::vector<const std::string*> order{&r.triggers[seed].alias};
    for (std::size_t t = 0; t < r.triggers.size(); ++t) {
      if (t != seed) order.push_back(&r.triggers[t].alias);
    }
    for (const FactPattern& f : r.facts) order.push_back(&f.alias);
    std::size_t depth = 1;
    for (const Assignment& a : r.emit.sets) {
      if (a.constant.has_value()) continue;
      const auto it = std::find_if(order.begin(), order.end(),
                                   [&](const std::string* alias) { return *alias == a.from_alias; });
      // An alias the rule never binds contributes nothing to the event.
      if (it != order.end()) {
        depth = std::max(depth, static_cast<std::size_t>(it - order.begin()) + 1);
      }
    }
    state.key_depth.push_back(r.cooldown > 0 ? depth : kNoKey);
  }
  state.type_value = r.emit.type;
  state.name_value = r.name;
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
  if (conditions_hold(state.rule, binding)) descend(state, binding, seed_trigger, now, sink);
}

// `binding` satisfies the rule's conditions so far.  Returns true when a
// completion fired beneath the depth where its key was decided: every
// other completion up to that depth would emit the same, cooling event.
bool MatchEngine::descend(RuleState& state, Binding& binding, std::size_t seed_trigger,
                          SimTime now, const Sink& sink) {
  if (binding.size() != state.key_depth[seed_trigger]) {
    return extend(state, binding, seed_trigger, now, sink);
  }
  // Every completion of this binding has one key, and `now` is fixed for
  // the whole call, so a cooling key stays cooling for all of them.
  render_key(state, binding);
  const auto it = last_fired_.find(key_);
  if (it != last_fired_.end() && now - it->second < state.rule.cooldown) {
    ++stats_.cooldown_suppressed;
  } else {
    extend(state, binding, seed_trigger, now, sink);
  }
  return false;
}

bool MatchEngine::extend(RuleState& state, Binding& binding, std::size_t seed_trigger,
                         SimTime now, const Sink& sink) {
  const Rule& rule = state.rule;
  const std::size_t depth = binding.size();
  auto try_candidate = [&](const std::string& alias, const event::Event* candidate) {
    ++stats_.candidate_bindings;
    binding.emplace_back(alias, candidate);
    const bool done =
        conditions_hold(rule, binding) && descend(state, binding, seed_trigger, now, sink);
    binding.pop_back();
    return done;
  };
  if (depth < rule.triggers.size()) {
    // The triggers in index order, skipping the seed's.
    const auto& trigger = rule.triggers[depth - 1 < seed_trigger ? depth - 1 : depth];
    for (const event::Event& candidate : state.windows[trigger.alias]) {
      if (candidate.time() < now - trigger.window) continue;  // stale
      if (try_candidate(trigger.alias, &candidate)) return true;
    }
    return false;
  }
  if (depth < rule.triggers.size() + rule.facts.size()) {
    const FactPattern& pattern = rule.facts[depth - rule.triggers.size()];
    for (const Fact* fact : kb_.query(fact_probe(rule, pattern, binding))) {
      if (try_candidate(pattern.alias, fact)) return true;
    }
    return false;
  }
  return fire(state, binding, now, sink);
}

// Renders into key_ the cooldown key of the event `binding` would emit,
// byte for byte rule.name + "|" + each attribute of
// emitted_event(rule, binding, now) in AtomId order as "name=value;",
// "time" left out — without building the event.  Later assignments
// overwrite earlier ones, and "rule" is stamped last.  A name nothing
// has interned yet sorts after every interned one, in the order
// emitted_event's set() calls would intern it.
void MatchEngine::render_key(const RuleState& state, const Binding& binding) {
  key_parts_.clear();
  std::uint64_t unseen = std::uint64_t{1} << 32;
  auto put = [&](const std::string& name, const event::AttrValue& value) {
    if (name == kTimeName) return;  // overwritten by the emission time
    for (KeyPart& part : key_parts_) {
      if (*part.name == name) {
        part.value = &value;
        return;
      }
    }
    const event::AtomId atom = event::lookup_atom(name);
    key_parts_.push_back({atom == event::kNoAtom ? unseen++ : atom, &name, &value});
  };
  put(kTypeName, state.type_value);
  for (const Assignment& a : state.rule.emit.sets) {
    if (const event::AttrValue* v = assigned_value(a, binding)) put(a.name, *v);
  }
  put(kRuleName, state.name_value);
  std::sort(key_parts_.begin(), key_parts_.end(),
            [](const KeyPart& a, const KeyPart& b) { return a.order < b.order; });
  key_.assign(state.rule.name);
  key_ += '|';
  for (const KeyPart& part : key_parts_) {
    key_ += *part.name;
    key_ += '=';
    if (part.value->is_string()) {
      key_ += part.value->str();
    } else {
      key_ += part.value->to_text();
    }
    key_ += ';';
  }
}

bool MatchEngine::fire(RuleState& state, const Binding& binding, SimTime now,
                       const Sink& sink) {
  const event::Event out = emitted_event(state.rule, binding, now);
  if (state.rule.cooldown > 0) {
    // descend() found this key idle; re-render it now that the event's
    // names are interned, so the stored key is exactly the emitted one's.
    render_key(state, binding);
    last_fired_[key_] = now;
  }
  ++stats_.matches_emitted;
  sink(out);
  return state.rule.cooldown > 0;
}

}  // namespace aa::match
