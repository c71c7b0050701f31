// The incremental matching engine.
//
// §1.1: "It is relatively straightforward to make these inferences if
// the small set of items is known; the major difficulty is in
// extracting the correlated set in the first place, from the huge
// number of items available."  The engine does that extraction
// incrementally: each trigger pattern keeps a sliding window of the
// events that matched it; an arriving event only joins against those
// windows and against indexed knowledge-base probes, instead of
// rescanning history (the naive strategy of baselines/naive_engine.hpp,
// which the C7 ablation times it against and the tests compare with).
//
// add_rule compiles each rule once (DESIGN.md §14) and on_event runs
// only the compiled form: aliases are dense slots (triggers, then
// facts), a binding is an array of event pointers, each join and
// spatial condition is tested once, at the depth where its last alias
// binds, and attribute names are resolved to AtomIds on first use.
//
// A rule with a cooldown decides it as soon as every alias its emit
// spec reads is bound: a binding whose key is cooling is not joined any
// further, and once a key fires the enumeration below that depth stops,
// because every completion would emit the same event.  Keys are
// rendered into a reused buffer and kept in a hash map swept of idle
// keys; a window entry whose key alone decides the cooldown remembers
// how long it cools, so rescanning it costs no lookup.
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "match/knowledge.hpp"
#include "match/rule.hpp"

namespace aa::match {

struct EngineStats {
  std::uint64_t events_processed = 0;
  std::uint64_t trigger_matches = 0;
  // Bindings explored: each window event or fact tried against a
  // partial binding.  Completions of a binding dropped for its cooldown
  // are never explored, so they are not counted.
  std::uint64_t candidate_bindings = 0;
  std::uint64_t matches_emitted = 0;
  // Bindings dropped because their emission key was cooling, counted
  // once at the depth where the key was decided — as soon as the emit
  // spec's aliases are bound, which may be before the fact join.
  std::uint64_t cooldown_suppressed = 0;
  // Emission keys held for their cooldown.  A key whose cooldown has
  // passed is swept out as the table grows, so this stays bounded by
  // the keys fired within one cooldown, not by every key ever fired.
  std::uint64_t cooldown_keys = 0;
};

class MatchEngine {
 public:
  using Sink = std::function<void(const event::Event&)>;

  explicit MatchEngine(KnowledgeBase& kb) : kb_(kb) {}

  /// Compiles `rule`.  Precondition: its trigger and fact aliases are
  /// distinct (Rule::from_xml rejects a repeat).
  void add_rule(Rule rule);
  bool remove_rule(const std::string& name);

  /// True if some rule's triggers accept events of this type — the
  /// "unknown event type" test that routes to discovery matchlets (§5).
  bool handles_type(const std::string& type) const;

  /// Feeds one event at virtual time `now`; synthesised events go to
  /// `sink`.  Precondition: `now` never decreases from call to call.
  void on_event(const event::Event& e, SimTime now, const Sink& sink);

  const EngineStats& stats() const { return stats_; }

 private:
  // An attribute the rule names, resolved to its AtomId on first use.
  // A name nothing has interned is on no event or fact, so it reads as
  // absent until something interns it; compiling interns nothing.
  struct Attr {
    std::string name;
    event::AtomId atom = event::kNoAtom;

    /// True once the name has an AtomId (looked up, never interned).
    bool resolved();
    /// The attribute's value on `e`, or null.
    const event::AttrValue* in(const event::Event& e);
    /// The AtomId, interning the name if nothing has yet.
    event::AtomId interned();
  };

  // A join operand or an emitted value: attribute `attr` of the event
  // bound in `slot`, or `constant`.  An alias the rule never binds reads
  // as absent.
  static constexpr std::size_t kConstant = static_cast<std::size_t>(-1);
  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-2);
  struct Operand {
    std::size_t slot = kConstant;
    Attr attr;
    event::AttrValue constant;
  };

  struct Join {
    Operand left;
    event::Op op = event::Op::kEq;
    Operand right;
  };

  struct Near {
    std::size_t left = 0;  // slots
    std::size_t right = 0;
    double max_meters = -1.0;
    double max_walk_seconds = -1.0;
  };

  // One depth of an enumeration: the slot it binds and the conditions
  // whose last alias that slot is.
  struct Level {
    std::size_t slot = 0;
    std::vector<Join> joins;
    std::vector<Near> nears;
  };

  // The enumeration one trigger seeds: the seed, the other triggers in
  // index order, then the facts.  `key_level` is the level at which
  // every alias the emit spec reads is bound (kNoKey without a
  // cooldown).  `key_memo` is set when that level binds a window event
  // and the key reads no other slot, so the key is a function of that
  // event alone and its window entry may remember it cooling.
  static constexpr std::size_t kNoKey = static_cast<std::size_t>(-1);
  struct SeedPlan {
    std::vector<Level> levels;
    std::size_t key_level = kNoKey;
    bool key_memo = false;
  };

  // A trigger window's event, with its time (read by every stale check)
  // and the time until which its key is known to cool (see key_memo).
  struct WindowEntry {
    event::Event event;
    SimTime time = 0;
    SimTime cooling_until = std::numeric_limits<SimTime>::min();
  };

  // An equality join pushed onto a fact probe: the fact's attribute
  // must equal `other`, read from an alias bound before the fact.
  struct Pushdown {
    Attr fact_attr;
    Operand other;
  };

  // A fact pattern's knowledge-base probe: the pattern's `base`
  // constraints, then one equality per pushdown whose value is present,
  // rewritten per probe.  `found` is the query's reused buffer.
  struct FactProbe {
    event::Filter probe;
    std::size_t base = 0;
    std::vector<Pushdown> pushdowns;
    std::vector<const Fact*> found;
  };

  // An attribute name of the emitted event.  `value` and `order` are
  // render_key's working state: the name's value under the current
  // binding and its sort position.
  struct EmitName {
    Attr attr;
    bool in_key = true;  // false for "time", overwritten by the stamp
    const event::AttrValue* value = nullptr;
    std::uint64_t order = 0;
  };
  struct Assign {
    std::size_t name = 0;  // index into CompiledRule::names
    Operand source;
  };

  struct CompiledRule {
    Rule rule;
    std::vector<std::deque<WindowEntry>> windows;  // per trigger, oldest first
    std::vector<SeedPlan> seeds;                    // per trigger
    std::vector<FactProbe> facts;
    std::vector<const event::Event*> binding;  // per slot
    std::vector<EmitName> names;  // [0] "type", [1] "rule", then the <set>s'
    std::vector<Assign> sets;     // the emit spec's <set>s, in order
    event::AttrValue type_value;  // the emitted "type" unless a <set> overrides it
    event::AttrValue name_value;  // stamped as "rule", last
  };

  static const event::AttrValue* read(Operand& op,
                                      const std::vector<const event::Event*>& binding);
  bool holds(Level& level, const std::vector<const event::Event*>& binding);
  void expire(CompiledRule& r, SimTime now);
  bool descend(CompiledRule& r, SeedPlan& seed, std::size_t level, SimTime now,
               const Sink& sink, SimTime* cooling_until);
  bool extend(CompiledRule& r, SeedPlan& seed, std::size_t level, SimTime now,
              const Sink& sink);
  const std::vector<const Fact*>& probe(CompiledRule& r, FactProbe& fact);
  bool fire(CompiledRule& r, SimTime now, const Sink& sink);
  bool render_key(CompiledRule& r);
  void remember_key(SimTime now);

  KnowledgeBase& kb_;
  std::vector<CompiledRule> rules_;
  Attr lat_{"lat"};
  Attr lon_{"lon"};
  std::vector<std::size_t> seeds_;  // on_event's matching triggers, reused
  // Rendered emission key (rule name + "|" + attributes) -> the time it
  // last fired.  Swept of keys idle for max_cooldown_ once it reaches
  // sweep_at_ entries.
  std::unordered_map<std::string, SimTime> last_fired_;
  SimDuration max_cooldown_ = 0;  // over every rule added so far
  std::size_t sweep_at_ = 0;
  std::string key_;                          // render_key's output, reused
  std::vector<const EmitName*> key_parts_;   // render_key's sort, reused
  EngineStats stats_;
};

}  // namespace aa::match
