// Naive rescan matcher: the C7 ablation baseline and the tests' oracle
// for MatchEngine.
//
// Keeps every event ever seen and, on each arrival, re-enumerates full
// candidate tuples against the complete history with no per-trigger
// windows or knowledge-base index probes (facts are matched by linear
// scan); asymptotically it is the "huge number of items" strawman the
// paper's matching service must avoid.
//
// It interprets each rule by alias, on every partial binding, with its
// own copy of the rule semantics (naive_engine.cpp): a binding is a list
// of (alias, event) pairs, every join and spatial condition is looked up
// by name and re-tested at each depth, and the emitted event is built by
// name.  MatchEngine shares none of that code — it compiles each rule
// into slots — so on in-window data the two cross-check.
//
// The cooldown is checked the simple way: on every complete binding,
// against a key rendered from the emitted event itself.  MatchEngine
// decides it earlier and renders the key itself.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "match/knowledge.hpp"
#include "match/rule.hpp"

namespace aa::baselines {

class NaiveEngine {
 public:
  using Sink = std::function<void(const event::Event&)>;
  /// A (possibly partial) binding of aliases to events and facts.
  using Binding = std::vector<std::pair<std::string, const event::Event*>>;

  explicit NaiveEngine(match::KnowledgeBase& kb) : kb_(kb) {}

  void add_rule(match::Rule rule) { rules_.push_back(std::move(rule)); }

  void on_event(const event::Event& e, SimTime now, const Sink& sink);

  std::uint64_t candidate_bindings() const { return candidates_; }

 private:
  void extend(const match::Rule& rule, Binding& binding, std::size_t next_trigger,
              std::size_t seed_index, SimTime now, const Sink& sink);
  void bind_facts(const match::Rule& rule, Binding& binding, std::size_t next_fact,
                  SimTime now, const Sink& sink);
  void fire(const match::Rule& rule, const Binding& binding, SimTime now, const Sink& sink);

  match::KnowledgeBase& kb_;
  std::vector<match::Rule> rules_;
  std::vector<event::Event> history_;
  std::map<std::string, SimTime> last_fired_;  // rule name + key -> time
  std::uint64_t candidates_ = 0;
};

}  // namespace aa::baselines
