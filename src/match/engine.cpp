#include "match/engine.hpp"

#include <algorithm>
#include <optional>

#include "common/geo.hpp"

namespace aa::match {

namespace {
// Hard cap per trigger window so a silent subscriber can't accumulate
// unbounded state; oldest events are shed first.
constexpr std::size_t kMaxWindowEvents = 4096;

// The cooldown table is swept no sooner than at this many keys.
constexpr std::size_t kMinSweep = 64;

// CompiledRule::names' first two entries.
constexpr std::size_t kTypeName = 0;
constexpr std::size_t kRuleName = 1;

std::optional<double> real_of(const event::AttrValue* v) {
  if (v == nullptr || !v->is_numeric()) return std::nullopt;
  return v->as_real();
}
}  // namespace

bool MatchEngine::Attr::resolved() {
  if (atom == event::kNoAtom) atom = event::lookup_atom(name);
  return atom != event::kNoAtom;
}

const event::AttrValue* MatchEngine::Attr::in(const event::Event& e) {
  return resolved() ? e.get(atom) : nullptr;
}

event::AtomId MatchEngine::Attr::interned() {
  if (atom == event::kNoAtom) atom = event::intern(name);
  return atom;
}

void MatchEngine::add_rule(Rule rule) {
  CompiledRule r;
  r.rule = std::move(rule);
  const Rule& spec = r.rule;
  const std::size_t triggers = spec.triggers.size();
  const std::size_t slots = triggers + spec.facts.size();
  auto slot_of = [&](const std::string& alias) {
    for (std::size_t t = 0; t < triggers; ++t) {
      if (spec.triggers[t].alias == alias) return t;
    }
    for (std::size_t f = 0; f < spec.facts.size(); ++f) {
      if (spec.facts[f].alias == alias) return triggers + f;
    }
    return kUnbound;
  };
  auto operand = [&](const match::Operand& op) {
    if (op.constant.has_value()) return Operand{kConstant, {}, *op.constant};
    return Operand{slot_of(op.alias), Attr{op.attr}, {}};
  };
  r.windows.resize(triggers);
  r.binding.assign(slots, nullptr);

  for (std::size_t seed = 0; seed < triggers; ++seed) {
    SeedPlan plan;
    plan.levels.resize(slots);
    std::vector<std::size_t> level_of(slots);
    std::size_t next = 0;
    auto place = [&](std::size_t slot) {
      level_of[slot] = next;
      plan.levels[next++].slot = slot;
    };
    place(seed);
    for (std::size_t t = 0; t < triggers; ++t) {
      if (t != seed) place(t);
    }
    for (std::size_t f = 0; f < spec.facts.size(); ++f) place(triggers + f);
    // The level at which both slots are bound; kUnbound when one never
    // is, so the condition waits forever and never fails.
    auto last_level = [&](std::size_t a, std::size_t b) {
      std::size_t at = 0;
      for (std::size_t slot : {a, b}) {
        if (slot == kUnbound) return kUnbound;
        if (slot != kConstant) at = std::max(at, level_of[slot]);
      }
      return at;
    };
    for (const JoinCondition& j : spec.joins) {
      Join join{operand(j.left), j.op, operand(j.right)};
      const std::size_t at = last_level(join.left.slot, join.right.slot);
      if (at != kUnbound) plan.levels[at].joins.push_back(std::move(join));
    }
    for (const SpatialCondition& s : spec.spatials) {
      const Near near{slot_of(s.left_alias), slot_of(s.right_alias), s.max_meters,
                      s.max_walk_seconds};
      const std::size_t at = last_level(near.left, near.right);
      if (at != kUnbound) plan.levels[at].nears.push_back(near);
    }
    if (spec.cooldown > 0) {
      // The emitted event depends only on the aliases its <set>s read.
      plan.key_level = 0;
      for (const Assignment& a : spec.emit.sets) {
        if (a.constant.has_value()) continue;
        const std::size_t slot = slot_of(a.from_alias);
        if (slot != kUnbound) plan.key_level = std::max(plan.key_level, level_of[slot]);
      }
      const std::size_t key_slot = plan.levels[plan.key_level].slot;
      plan.key_memo = key_slot < triggers;
      for (const Assignment& a : spec.emit.sets) {
        const std::size_t slot = a.constant.has_value() ? kConstant : slot_of(a.from_alias);
        if (slot < slots && slot != key_slot) plan.key_memo = false;
      }
    }
    r.seeds.push_back(std::move(plan));
  }

  // Join pushdown: an equality join between a fact and a constant or an
  // alias bound before it becomes an extra probe constraint, so the
  // knowledge-base index narrows candidates to the joined value instead
  // of every fact matching the base filter ("pref.user = loc.user"
  // probes user=bob, not all preferences).
  for (std::size_t f = 0; f < spec.facts.size(); ++f) {
    const FactPattern& pattern = spec.facts[f];
    FactProbe fact;
    fact.probe = pattern.filter;
    fact.base = pattern.filter.constraints().size();
    for (const JoinCondition& j : spec.joins) {
      if (j.op != event::Op::kEq) continue;
      const match::Operand* fact_side = &j.left;
      const match::Operand* other_side = &j.right;
      if (j.left.constant.has_value() || j.left.alias != pattern.alias) {
        if (j.right.constant.has_value() || j.right.alias != pattern.alias) continue;
        std::swap(fact_side, other_side);
      }
      Operand other = operand(*other_side);
      if (other.slot != kConstant && (other.slot == kUnbound || other.slot >= triggers + f)) {
        continue;  // not bound before this fact
      }
      fact.pushdowns.push_back(Pushdown{Attr{fact_side->attr}, std::move(other)});
    }
    r.facts.push_back(std::move(fact));
  }

  r.names = {EmitName{Attr{"type"}}, EmitName{Attr{"rule"}}};
  for (const Assignment& a : spec.emit.sets) {
    std::size_t name = 0;
    while (name < r.names.size() && r.names[name].attr.name != a.name) ++name;
    if (name == r.names.size()) r.names.push_back(EmitName{Attr{a.name}, a.name != "time"});
    r.sets.push_back(Assign{name, a.constant.has_value()
                                      ? Operand{kConstant, {}, *a.constant}
                                      : Operand{slot_of(a.from_alias), Attr{a.from_attr}, {}}});
  }
  r.type_value = spec.emit.type;
  r.name_value = spec.name;
  max_cooldown_ = std::max(max_cooldown_, spec.cooldown);
  rules_.push_back(std::move(r));
}

bool MatchEngine::remove_rule(const std::string& name) {
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if (it->rule.name == name) {
      rules_.erase(it);
      return true;
    }
  }
  return false;
}

bool MatchEngine::handles_type(const std::string& type) const {
  for (const CompiledRule& r : rules_) {
    if (r.rule.could_handle_type(type)) return true;
  }
  return false;
}

const event::AttrValue* MatchEngine::read(Operand& op,
                                          const std::vector<const event::Event*>& binding) {
  if (op.slot == kConstant) return &op.constant;
  if (op.slot == kUnbound) return nullptr;
  return op.attr.in(*binding[op.slot]);
}

// A bound alias lacking a joined attribute fails the condition.
bool MatchEngine::holds(Level& level, const std::vector<const event::Event*>& binding) {
  for (Join& j : level.joins) {
    const event::AttrValue* left = read(j.left, binding);
    const event::AttrValue* right = read(j.right, binding);
    if (left == nullptr || right == nullptr || !event::op_matches(j.op, *left, *right)) {
      return false;
    }
  }
  for (const Near& near : level.nears) {
    const event::Event& l = *binding[near.left];
    const event::Event& r = *binding[near.right];
    const auto llat = real_of(lat_.in(l)), llon = real_of(lon_.in(l));
    const auto rlat = real_of(lat_.in(r)), rlon = real_of(lon_.in(r));
    if (!llat || !llon || !rlat || !rlon) return false;
    const GeoPoint a{*llat, *llon};
    const GeoPoint b{*rlat, *rlon};
    if (near.max_meters >= 0 && geo_distance_m(a, b) > near.max_meters) return false;
    if (near.max_walk_seconds >= 0 && walking_time_s(a, b) > near.max_walk_seconds) return false;
  }
  return true;
}

void MatchEngine::expire(CompiledRule& r, SimTime now) {
  for (std::size_t t = 0; t < r.windows.size(); ++t) {
    auto& window = r.windows[t];
    const SimTime oldest = now - r.rule.triggers[t].window;
    while (!window.empty() &&
           (window.front().time < oldest || window.size() > kMaxWindowEvents)) {
      window.pop_front();
    }
  }
}

void MatchEngine::on_event(const event::Event& e, SimTime now, const Sink& sink) {
  ++stats_.events_processed;
  for (CompiledRule& r : rules_) {
    expire(r, now);
    // An arriving event seeds at most one firing attempt per trigger it
    // matches; it joins other aliases only via their windows, so a
    // single event never binds two aliases of the same firing.
    seeds_.clear();
    for (std::size_t i = 0; i < r.rule.triggers.size(); ++i) {
      if (r.rule.triggers[i].filter.matches(e)) seeds_.push_back(i);
    }
    for (std::size_t i : seeds_) {
      ++stats_.trigger_matches;
      SeedPlan& seed = r.seeds[i];
      r.binding[i] = &e;
      if (holds(seed.levels[0], r.binding)) descend(r, seed, 0, now, sink, nullptr);
    }
    for (std::size_t i : seeds_) r.windows[i].push_back(WindowEntry{e, e.time()});
  }
}

// Levels 0..`level` of `seed` are bound and hold; `cooling_until` is
// the memo of the window entry bound at `level`, if any.  Returns true
// when a completion fired beneath the level where its key was decided:
// every other completion up to that level would emit the same, cooling
// event.
bool MatchEngine::descend(CompiledRule& r, SeedPlan& seed, std::size_t level, SimTime now,
                          const Sink& sink, SimTime* cooling_until) {
  if (level != seed.key_level) return extend(r, seed, level + 1, now, sink);
  // Every completion of this binding has one key, and `now` is fixed for
  // the whole call, so a cooling key stays cooling for all of them.
  const bool memo = seed.key_memo && cooling_until != nullptr;
  if (memo && now < *cooling_until) {
    ++stats_.cooldown_suppressed;
    return false;
  }
  const bool settled = render_key(r);
  const auto it = last_fired_.find(key_);
  if (it != last_fired_.end() && now - it->second < r.rule.cooldown) {
    ++stats_.cooldown_suppressed;
    // The key is this window event's alone and, its names all interned,
    // renders the same from now on; its fire time only grows, and `now`
    // never decreases, so it cools at least this long.
    if (memo && settled) *cooling_until = it->second + r.rule.cooldown;
  } else {
    extend(r, seed, level + 1, now, sink);
  }
  return false;
}

// Binds `level` of `seed` to each candidate in turn: the window's live
// events for a trigger, the probe's facts for a fact pattern.
bool MatchEngine::extend(CompiledRule& r, SeedPlan& seed, std::size_t level, SimTime now,
                         const Sink& sink) {
  if (level == seed.levels.size()) return fire(r, now, sink);
  Level& at = seed.levels[level];
  auto try_candidate = [&](const event::Event* candidate, SimTime* cooling_until) {
    ++stats_.candidate_bindings;
    r.binding[at.slot] = candidate;
    return holds(at, r.binding) && descend(r, seed, level, now, sink, cooling_until);
  };
  if (at.slot < r.windows.size()) {
    const SimTime oldest = now - r.rule.triggers[at.slot].window;
    for (WindowEntry& candidate : r.windows[at.slot]) {
      if (candidate.time < oldest) continue;  // stale
      if (try_candidate(&candidate.event, &candidate.cooling_until)) return true;
    }
    return false;
  }
  for (const Fact* fact : probe(r, r.facts[at.slot - r.windows.size()])) {
    if (try_candidate(fact, nullptr)) return true;
  }
  return false;
}

const std::vector<const Fact*>& MatchEngine::probe(CompiledRule& r, FactProbe& fact) {
  fact.probe.truncate(fact.base);
  for (Pushdown& p : fact.pushdowns) {
    if (const event::AttrValue* v = read(p.other, r.binding)) {
      fact.probe.where(p.fact_attr.interned(), event::Op::kEq, *v);
    }
  }
  kb_.query(fact.probe, fact.found);
  return fact.found;
}

// Renders into key_ the cooldown key of the event the binding would
// emit, byte for byte rule.name + "|" + each attribute of that event in
// AtomId order as "name=value;", "time" left out — without building the
// event.  Later assignments overwrite earlier ones (a missing source
// leaves the earlier value), and "rule" is stamped last.  A name nothing
// has interned yet sorts after every interned one, in the order fire()'s
// set() calls would intern it.  Returns true when every part's name
// was interned, so the binding renders this key from now on.
bool MatchEngine::render_key(CompiledRule& r) {
  for (EmitName& n : r.names) n.value = nullptr;
  const std::uint64_t first_unseen = std::uint64_t{1} << 32;
  std::uint64_t unseen = first_unseen;
  auto put = [&](EmitName& n, const event::AttrValue& value) {
    if (!n.in_key) return;
    if (n.value == nullptr) n.order = n.attr.resolved() ? n.attr.atom : unseen++;
    n.value = &value;
  };
  put(r.names[kTypeName], r.type_value);
  for (Assign& a : r.sets) {
    if (const event::AttrValue* v = read(a.source, r.binding)) put(r.names[a.name], *v);
  }
  put(r.names[kRuleName], r.name_value);
  key_parts_.clear();
  for (const EmitName& n : r.names) {
    if (n.value != nullptr) key_parts_.push_back(&n);
  }
  std::sort(key_parts_.begin(), key_parts_.end(),
            [](const EmitName* a, const EmitName* b) { return a->order < b->order; });
  key_.assign(r.rule.name);
  key_ += '|';
  for (const EmitName* n : key_parts_) {
    key_ += n->attr.name;
    key_ += '=';
    n->value->append_text(key_);
    key_ += ';';
  }
  return unseen == first_unseen;
}

// Records that key_ fired at `now`.  A key idle for the longest cooldown
// of any rule added can cool no binding again (`now` never decreases),
// so the sweep drops exactly the entries no lookup could find cooling.
void MatchEngine::remember_key(SimTime now) {
  last_fired_.insert_or_assign(key_, now);
  if (last_fired_.size() >= sweep_at_) {
    std::erase_if(last_fired_,
                  [&](const auto& entry) { return now - entry.second >= max_cooldown_; });
    sweep_at_ = std::max(kMinSweep, 2 * last_fired_.size());
  }
  stats_.cooldown_keys = last_fired_.size();
}

// The event is built with the oracle's emitted_event steps in its order
// (type, each present <set>, time, rule), so names are interned as
// they always were.
bool MatchEngine::fire(CompiledRule& r, SimTime now, const Sink& sink) {
  event::Event out(r.rule.emit.type);
  for (Assign& a : r.sets) {
    if (const event::AttrValue* v = read(a.source, r.binding)) {
      out.set(r.names[a.name].attr.interned(), *v);
    }
  }
  out.set_time(now);
  out.set(r.names[kRuleName].attr.interned(), r.name_value);
  const bool cooled = r.rule.cooldown > 0;
  if (cooled) {
    // descend() found this key idle; re-render it now that the event's
    // names are interned, so the stored key is exactly the emitted one's.
    render_key(r);
    remember_key(now);
  }
  ++stats_.matches_emitted;
  sink(out);
  return cooled;
}

}  // namespace aa::match
