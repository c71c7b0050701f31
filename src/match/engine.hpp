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
  std::uint64_t candidate_bindings = 0;  // partial bindings explored
  std::uint64_t matches_emitted = 0;
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
  };

  void expire(RuleState& state, SimTime now);
  void try_fire(RuleState& state, std::size_t seed_trigger, const event::Event& seed,
                SimTime now, const Sink& sink);
  void extend(RuleState& state, Binding& binding, std::size_t next_trigger,
              std::size_t seed_index, SimTime now, const Sink& sink);
  void bind_facts(RuleState& state, Binding& binding, std::size_t next_fact, const Sink& sink,
                  SimTime now);
  void fire(RuleState& state, const Binding& binding, SimTime now, const Sink& sink);
  static std::string emission_key(const event::Event& e);

  KnowledgeBase& kb_;
  std::vector<RuleState> states_;
  std::map<std::string, SimTime> last_fired_;  // rule name + key -> time
  EngineStats stats_;
};

}  // namespace aa::match
