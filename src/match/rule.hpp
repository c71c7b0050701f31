// The correlation rule language of the matching engine.
//
// §1.1 sets the job: detect "spatial, temporal and logical
// relationships" across items like "it is 20ºC in South Street at
// 16.30", "Bob is in North Street at 16.45", "Bob likes ice cream, but
// only when the weather is hot", "Janetta's ... is open between 9.00
// and 17.00" — and distil them into one meaningful suggestion.
//
// A Rule has:
//   * triggers — event patterns (content filter + sliding time window);
//     one instance of each must be present for the rule to fire;
//   * facts    — knowledge-base patterns bound alongside the triggers;
//   * joins    — relational conditions across bound aliases
//     ("temp.celsius > pref.min_celsius", "loc.user = pref.user");
//   * spatial conditions — geographic predicates over aliases carrying
//     lat/lon attributes (within metres / within walking seconds);
//   * an emit spec — the higher-level event synthesised on a match
//     (§1.1: "the output events will be higher-level (more semantically
//     meaningful) than the input events"), with a cooldown to suppress
//     repeated identical suggestions.
//
// Every trigger and fact names a distinct alias: joins, spatial
// conditions and <set>s refer to bound events by alias, so a repeat
// would be ambiguous.  from_xml rejects one, and MatchEngine::add_rule
// takes distinct aliases as its precondition.  MatchEngine compiles a
// rule once into slot-indexed form; baselines::NaiveEngine interprets
// it by alias as the tests' oracle.
//
// Rules serialise to XML, which is what lets handler code travel as
// bundles through the storage architecture to discovery matchlets (§5).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "event/event.hpp"
#include "event/filter.hpp"
#include "xml/xml.hpp"

namespace aa::match {

/// One side of a join: a bound alias attribute or a constant.
struct Operand {
  std::string alias;  // empty => constant
  std::string attr;
  std::optional<event::AttrValue> constant;

  static Operand ref(std::string alias, std::string attr) {
    return Operand{std::move(alias), std::move(attr), std::nullopt};
  }
  static Operand lit(event::AttrValue v) { return Operand{"", "", std::move(v)}; }
};

struct JoinCondition {
  Operand left;
  event::Op op = event::Op::kEq;
  Operand right;
};

/// Geographic predicate between two aliases with lat/lon attributes.
struct SpatialCondition {
  std::string left_alias;
  std::string right_alias;
  /// max_meters >= 0: straight-line proximity.
  double max_meters = -1.0;
  /// max_walk_seconds >= 0: pedestrian reachability ("close enough to
  /// get there before it closes").
  double max_walk_seconds = -1.0;
};

struct TriggerPattern {
  std::string alias;
  event::Filter filter;
  SimDuration window = 0;  // how long a matching event stays bindable
};

struct FactPattern {
  std::string alias;
  event::Filter filter;
};

struct Assignment {
  std::string name;
  std::optional<event::AttrValue> constant;
  std::string from_alias;  // used when constant is empty
  std::string from_attr;
};

struct EmitSpec {
  std::string type;
  std::vector<Assignment> sets;
};

class Rule {
 public:
  std::string name;
  SimDuration cooldown = 0;
  std::vector<TriggerPattern> triggers;
  std::vector<FactPattern> facts;
  std::vector<JoinCondition> joins;
  std::vector<SpatialCondition> spatials;
  EmitSpec emit;

  /// True if the rule has a trigger that could match an event whose
  /// "type" attribute equals `type` (used for unknown-type discovery).
  bool could_handle_type(const std::string& type) const;

  xml::Element to_xml() const;
  static Result<Rule> from_xml(const xml::Element& element);
  std::string to_xml_string() const;
  static Result<Rule> parse(std::string_view text);
};

}  // namespace aa::match
