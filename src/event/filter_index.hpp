// Predicate index over filters.  A filter holding an equality is found
// through one *access predicate* (Fabret et al., "Filtering Algorithms
// and Implementation for Very Fast Publish/Subscribe Systems", SIGMOD
// 2001).
//
// The naive matching path tests every stored filter against every event,
// so per-publish cost grows as publications × subscriptions.  The index
// splits the stored filters by their own shape (DESIGN.md §5.1):
//
//   * Keyed filters: at least one equality with a non-NaN value.  add()
//     marks the equality whose posting list is shortest at that moment
//     as the filter's access predicate.  A keyed filter posts only its
//     equalities, into per-attribute hash tables keyed by the value
//     (numerics by their widened double, the same widening
//     AttrValue::compare applies, so a key is exactly one equivalence
//     class of equality).  The access posting sits in a counted,
//     "marked" prefix of its list.  match() walks only the marked prefix
//     under each key the event hits and verifies each candidate's other
//     constraints against the event with Constraint::matches.  Cost:
//     the candidates under the event's equalities.
//   * Unkeyed filters: no equality, or only NaN ones.  They post
//     nothing; match() verifies every constraint of each one against
//     the event.  Cost: one probe per unkeyed filter.
//   * The empty filter matches every event at no probe.
//
// For keyed filters the cost follows what the event can match, not the
// filters *stored* — the sublinearity Carzaniga et al. require of a
// scalable content-based router.  Every filter verified is one "probe";
// callers surface the probe count so benchmarks can compare it with the
// cost of a linear scan over the same filters.
//
// Attribute tables are keyed by interned AtomId (event/atom.hpp), and
// the equality tables under them by value: match() hashes each value
// the event carries under an indexed attribute, a string value as a
// string.
//
// NaN compares with nothing (AttrValue::compare): a NaN equality is
// never a key, and a NaN event value finds none.
//
// The same equality postings answer Siena's two covering questions for
// the router.  Only an equal equality implies an equality, so a filter
// covering f has its access predicate among f's equalities, or has no
// equality at all: covering_candidates(f) reads the marked prefixes
// under f's equalities plus the unkeyed filters.  A keyed filter's other
// equalities stay posted after the marked prefix, so every filter r
// covers sits in the posting list of each of r's equalities:
// covered_candidates(r) reads the whole list of r's rarest one.  Both
// return supersets, which callers confirm with Filter::covers.
//
// FilterIndex is semantics-identical to the linear scan by
// construction; tests/event_test.cpp cross-checks it against the oracle
// over randomized filters and events covering every Op, and the
// covering probes against a brute-force covers() scan.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "event/event.hpp"
#include "event/filter.hpp"

namespace aa::event {

class FilterIndex {
 public:
  /// Indexes `filter` under `id`.  Re-adding an id replaces its previous
  /// filter (mirrors the routers' idempotent re-subscribe).
  void add(std::uint64_t id, const Filter& filter);

  /// Removes a filter; unknown ids are a no-op.
  void remove(std::uint64_t id);

  bool contains(std::uint64_t id) const { return filters_.contains(id); }
  std::size_t size() const { return filters_.size(); }
  bool empty() const { return filters_.empty(); }

  /// Appends the ids of every filter matching `e` to `out` (unordered,
  /// each once; sort if dispatch order matters).  Returns the number of
  /// index probes this match performed.
  std::uint64_t match(const Event& e, std::vector<std::uint64_t>& out) const;

  /// Calls `visit(id)` on a superset of the stored filters that cover
  /// `f`: those whose access predicate is one of f's equalities, then
  /// every filter with no equality (the empty filter included).  Stops
  /// at the first `visit` returning true and returns whether one did.
  /// An id can be visited twice when `f` repeats an equality.
  template <typename Visit>
  bool covering_candidates(const Filter& f, Visit&& visit) const;

  /// Appends to `out` a superset of the stored filters `r` covers: the
  /// posting list of r's rarest equality, or every stored filter when
  /// `r` has none.  `r` need not be stored; ids may repeat.
  void covered_candidates(const Filter& r, std::vector<std::uint64_t>& out) const;

 private:
  // Posting lists hold dense slot numbers, not 64-bit ids: candidates
  // then read flat arrays (slot_filter_, slot_access_ indexed by slot)
  // instead of hashing ids, which is what keeps a probe cheap even at
  // 100k stored filters.
  using Slot = std::uint32_t;
  using Ids = std::vector<Slot>;

  /// An equality posting list; it holds keyed filters only.  Its first
  /// `marked` slots are the filters whose access predicate this
  /// equality is — match()'s candidates for an event with this value.
  struct EqIds {
    Ids slots;
    Slot marked = 0;
  };

  /// Per-attribute equality tables, by value type.
  struct AttrTables {
    std::unordered_map<std::string, EqIds> eq_str;
    std::unordered_map<double, EqIds> eq_num;
    EqIds eq_bool[2];

    /// The posting list for value `v`, or nullptr when none is stored
    /// (a NaN finds nothing).
    const EqIds* find(const AttrValue& v) const;
    bool empty() const;
  };

  static constexpr std::uint32_t kNoAccess = ~std::uint32_t{0};

  /// Posts equality `c` of the filter in `slot`; `access`: `c` is its
  /// access predicate.
  void post(const Constraint& c, Slot slot, bool access);
  void unpost(const Constraint& c, Slot slot, bool access);
  /// The posting list of equality `c`, or nullptr when `c` is not an
  /// equality or no stored filter holds it.
  const EqIds* find_eq(const Constraint& c) const;
  /// Whether candidate `slot` satisfies every constraint of its filter
  /// other than its access predicate (every one, when it has none).
  bool verify(Slot slot, const Event& e) const;

  std::unordered_map<AtomId, AttrTables> attrs_;
  std::unordered_map<std::uint64_t, Slot> filters_;
  // Slot-indexed filters and metadata; freed slots are recycled.  The
  // filter is kept so remove() can locate every posting and match() can
  // verify candidates.
  std::vector<std::uint64_t> slot_id_;
  std::vector<Filter> slot_filter_;
  // Index of the access predicate in the filter, or kNoAccess.
  std::vector<std::uint32_t> slot_access_;
  std::vector<Slot> free_slots_;
  // Filters with no constraints match every event (raw ids).
  std::vector<std::uint64_t> match_all_;
  // Non-empty filters with no access predicate (no posted equality).
  Ids unkeyed_;
};

template <typename Visit>
bool FilterIndex::covering_candidates(const Filter& f, Visit&& visit) const {
  // A covering filter's access predicate is implied by one of f's
  // equalities, so it has the same key: it sits in that list's prefix.
  for (const Constraint& c : f.constraints()) {
    const EqIds* list = find_eq(c);
    if (list == nullptr) continue;
    for (Slot i = 0; i < list->marked; ++i) {
      if (visit(slot_id_[list->slots[i]])) return true;
    }
  }
  for (Slot slot : unkeyed_) {
    if (visit(slot_id_[slot])) return true;
  }
  for (std::uint64_t id : match_all_) {
    if (visit(id)) return true;
  }
  return false;
}

}  // namespace aa::event
