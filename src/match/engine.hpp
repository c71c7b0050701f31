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
// which the C7 ablation times it against).
//
// A rule with a cooldown decides it as soon as every alias its emit
// spec reads is bound (DESIGN.md §14): a binding whose key is cooling is
// not joined any further, and once a key fires the enumeration below
// that depth stops, because every completion would emit the same event.
#pragma once

#include <deque>
#include <functional>
#include <map>

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
};

class MatchEngine {
 public:
  using Sink = std::function<void(const event::Event&)>;

  explicit MatchEngine(KnowledgeBase& kb) : kb_(kb) {}

  void add_rule(Rule rule);
  bool remove_rule(const std::string& name);

  /// True if some rule's triggers accept events of this type — the
  /// "unknown event type" test that routes to discovery matchlets (§5).
  bool handles_type(const std::string& type) const;

  /// Feeds one event at virtual time `now`; synthesised events go to
  /// `sink`.
  void on_event(const event::Event& e, SimTime now, const Sink& sink);

  const EngineStats& stats() const { return stats_; }

 private:
  struct RuleState {
    Rule rule;
    // Window buffer per trigger alias, oldest first.
    std::map<std::string, std::deque<event::Event>> windows;
    // Per seed trigger: the binding size at which every alias the emit
    // spec reads is bound, so the cooldown key is fixed; kNoKey for a
    // rule without a cooldown.
    std::vector<std::size_t> key_depth;
    // The values emitted_event stamps as "type" and "rule".
    event::AttrValue type_value;
    event::AttrValue name_value;
  };
  static constexpr std::size_t kNoKey = static_cast<std::size_t>(-1);

  // One attribute of the key being rendered: its sort position (the
  // AtomId, or past every AtomId for a name not interned yet), name and
  // value.
  struct KeyPart {
    std::uint64_t order;
    const std::string* name;
    const event::AttrValue* value;
  };

  void expire(RuleState& state, SimTime now);
  void try_fire(RuleState& state, std::size_t seed_trigger, const event::Event& seed,
                SimTime now, const Sink& sink);
  bool descend(RuleState& state, Binding& binding, std::size_t seed_trigger, SimTime now,
               const Sink& sink);
  bool extend(RuleState& state, Binding& binding, std::size_t seed_trigger, SimTime now,
              const Sink& sink);
  bool fire(RuleState& state, const Binding& binding, SimTime now, const Sink& sink);
  void render_key(const RuleState& state, const Binding& binding);

  KnowledgeBase& kb_;
  std::vector<RuleState> states_;
  std::map<std::string, SimTime> last_fired_;  // rule name + key -> time
  std::string key_;                            // render_key's output, reused
  std::vector<KeyPart> key_parts_;             // reused by render_key
  EngineStats stats_;
};

}  // namespace aa::match
