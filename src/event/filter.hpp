// Content-based filters over events, with Siena's covering relations.
//
// A Filter is a conjunction of attribute constraints (Carzaniga et al.,
// TOCS 2001).  Two relations drive the distributed router (src/pubsub):
//
//   * matches(event)   — does an event satisfy the filter?
//   * covers(other)    — is every event matching `other` guaranteed to
//                        match this filter?  Routers use covering to
//                        prune subscription forwarding: a subscription
//                        already covered by a forwarded one need not be
//                        propagated.
//
// covers() is *sound but conservative*: it may answer false for a pair
// where covering actually holds (e.g. via unsatisfiability of the
// covered filter), but never answers true incorrectly.  The property
// tests in tests/event_filter_test.cpp enforce soundness by sampling.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "event/atom.hpp"
#include "event/event.hpp"

namespace aa::event {

enum class Op {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kPrefix,     // strings
  kSuffix,     // strings
  kSubstring,  // strings
  kExists,     // any value of any type
};

const char* op_name(Op op);
Result<Op> op_from_name(std::string_view name);

/// True when `v op operand` holds: Constraint::matches with `operand` as
/// the constraint's value (the matching engine's joins compare two
/// bound values with it in place).
bool op_matches(Op op, const AttrValue& v, const AttrValue& operand);

/// One attribute constraint.  The attribute is held as an interned
/// AtomId (event/atom.hpp), so matching probes events by integer key;
/// the spelling is recovered via attribute() only for serialisation and
/// logs.
struct Constraint {
  Constraint() = default;
  Constraint(std::string_view attribute, Op op, AttrValue value = AttrValue())
      : atom(intern(attribute)), op(op), value(std::move(value)) {}
  Constraint(AtomId atom, Op op, AttrValue value = AttrValue())
      : atom(atom), op(op), value(std::move(value)) {}

  AtomId atom = kNoAtom;
  Op op = Op::kExists;
  AttrValue value;  // ignored for kExists

  /// The interned spelling ("" for a default-constructed constraint).
  const std::string& attribute() const;

  bool matches(const AttrValue& v) const;

  /// True when satisfying *this* guarantees satisfying `weaker`
  /// (both constraints are on the same attribute).
  bool implies(const Constraint& weaker) const;

  /// `attr op value`, re-parseable by parse_filter: string values are
  /// double-quoted, with each '"' and backslash inside escaped by a
  /// backslash, and a real reads back as a real — to_text's spelling,
  /// with ".0" after an integral one ("20.0"), and inf, -inf, nan.
  std::string describe() const;
  /// describe().size(), computed without building the string.
  std::size_t describe_size() const;

  bool operator==(const Constraint&) const = default;
};

class Filter {
 public:
  Filter() = default;
  explicit Filter(std::vector<Constraint> constraints) : constraints_(std::move(constraints)) {}

  /// Fluent builder: f.where("type", Op::kEq, "temp").where("value", Op::kGt, 20.0)
  Filter& where(std::string_view attribute, Op op, AttrValue value = AttrValue());
  Filter& where(AtomId atom, Op op, AttrValue value = AttrValue());

  const std::vector<Constraint>& constraints() const { return constraints_; }
  bool empty() const { return constraints_.empty(); }
  /// Keeps the first `n` constraints and drops the rest, keeping the
  /// storage, so a probe rewritten per query reuses its buffer.
  void truncate(std::size_t n) {
    if (n < constraints_.size()) constraints_.resize(n);
  }

  bool matches(const Event& e) const;

  /// Covering: every event matching `other` matches *this*.  The empty
  /// filter matches everything, hence covers every filter.
  bool covers(const Filter& other) const;

  /// Conservative satisfiability of (this AND other): false only when
  /// the two filters are provably disjoint on some attribute.  Used for
  /// advertisement/subscription overlap in the router.
  bool overlaps(const Filter& other) const;

  /// Constraints joined by " and "; "<any>" for the empty filter.
  std::string describe() const;
  /// describe().size(), computed without building the string (the XML
  /// codec's filter size).
  std::size_t describe_size() const;

  bool operator==(const Filter&) const = default;

 private:
  std::vector<Constraint> constraints_;
};

/// Byte serialisation (crash-durable broker checkpoints and any other
/// persisted routing state).  Attributes travel as their interned
/// spelling and are re-interned on read, so the round-trip is stable
/// across processes/incarnations; values travel as typed text
/// (AttrValue::to_text/from_text).
void write_filter(BufWriter& w, const Filter& f);
/// Fail-soft like BufReader: a truncated/corrupt buffer sets the
/// reader's failed() flag and returns what was parsed so far.
Filter read_filter(BufReader& r);

/// A subscription: who wants events matching what.
struct Subscription {
  std::uint64_t id = 0;
  std::string subscriber;
  Filter filter;
};

/// An advertisement: a publisher's declaration of the events it emits.
struct Advertisement {
  std::uint64_t id = 0;
  std::string publisher;
  Filter filter;
};

}  // namespace aa::event
