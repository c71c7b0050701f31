// Counting-algorithm predicate index over filters (Yan & Garcia-Molina,
// "Index Structures for Selective Dissemination of Information").
//
// The naive matching path tests every stored filter against every event,
// so per-publish cost grows as publications × subscriptions.  The index
// decomposes each filter into its attribute constraints and posts each
// constraint into a per-attribute, per-operator table:
//
//   * kEq / kExists      — hash tables keyed by the constraint value
//                          (numerics keyed by their widened double, the
//                          same widening AttrValue::compare applies, so
//                          index results are exactly the oracle's);
//   * kLt/kLe/kGt/kGe    — ordered maps keyed by the bound, answered
//                          with a range scan from the event value;
//   * kPrefix            — a sorted prefix table probed once per prefix
//                          of the event string;
//   * everything else    — a per-attribute residual list tested with
//                          Constraint::matches (kNe, kSuffix,
//                          kSubstring, and odd-typed constraints).
//
// Matching an event walks its attributes, collects the satisfied
// constraints from each table, and counts per filter id; a filter
// matches exactly when its satisfied count equals its constraint count.
// Cost is proportional to the constraints *satisfied*, not the filters
// *stored* — the sublinearity Carzaniga et al. require of a scalable
// content-based router.  Every posting-list entry visited is one
// "probe"; callers surface the probe count so benchmarks can compare it
// with the cost of a linear scan over the same filters.
//
// Attribute tables are keyed by interned AtomId (event/atom.hpp), so
// walking an event's attributes probes the index with integer hashes —
// no string hashing on the match path.
//
// NaN-valued constraints go to the residual list, and a NaN event value
// skips the equality and range tables: NaN compares with nothing
// (AttrValue::compare), so it satisfies only kExists.
//
// The same equality postings answer Siena's two covering questions for
// the router (DESIGN.md §5.1).  Only an equal equality implies an
// equality, so every filter with an equality constraint is reachable
// through one of them: add() marks the equality whose posting list is
// shortest at that moment as the filter's *access predicate*, kept in a
// counted prefix of that list.  covering_candidates(f) reads the marked
// prefixes under f's equalities plus the filters with no equality;
// covered_candidates(r) reads the whole list of r's rarest equality.
// Both return supersets, which callers confirm with Filter::covers.
//
// FilterIndex is semantics-identical to the linear scan by
// construction; tests/event_test.cpp cross-checks it against the oracle
// over randomized filters and events covering every Op, and the
// covering probes against a brute-force covers() scan.
#pragma once

#include <cstdint>
#include <map>
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

  /// Appends the ids of every filter matching `e` to `out` (unordered;
  /// sort if dispatch order matters).  Returns the number of index
  /// probes this match performed.
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
  // Posting lists hold dense slot numbers, not 64-bit ids: the counting
  // pass then runs over flat arrays (counts_/stamp_ indexed by slot)
  // instead of hashing ids, which is what keeps a probe cheaper than a
  // naive Constraint::matches call even at 100k stored filters.
  using Slot = std::uint32_t;
  using Ids = std::vector<Slot>;

  /// Posting lists for one ordered-map key: constraints whose bound is
  /// this key, split by bound strictness (kLt/kGt vs kLe/kGe).
  struct Bucket {
    Ids strict;
    Ids nonstrict;
    bool empty() const { return strict.empty() && nonstrict.empty(); }
  };

  /// An equality posting list.  Its first `marked` slots are the
  /// filters whose access predicate this equality is.
  struct EqIds {
    Ids slots;
    Slot marked = 0;
  };

  /// Residual constraint evaluated directly against the event value.
  struct Residual {
    Constraint constraint;
    Slot slot;
  };

  /// Per-attribute operator tables.
  struct AttrTables {
    Ids exists;
    std::unordered_map<std::string, EqIds> eq_str;
    std::unordered_map<double, EqIds> eq_num;
    EqIds eq_bool[2];
    // Upper-bound constraints (v < bound, v <= bound), keyed by bound.
    std::map<double, Bucket> upper_num;
    std::map<std::string, Bucket, std::less<>> upper_str;
    // Lower-bound constraints (v > bound, v >= bound).
    std::map<double, Bucket> lower_num;
    std::map<std::string, Bucket, std::less<>> lower_str;
    // kPrefix constraints keyed by the required prefix.
    std::map<std::string, Ids, std::less<>> prefix;
    std::vector<Residual> residual;

    bool empty() const;
  };

  struct Stored {
    Filter filter;
    Slot slot;
  };

  static constexpr std::uint32_t kNoAccess = ~std::uint32_t{0};

  /// `access`: `c` is its filter's access predicate.
  void post(const Constraint& c, Slot slot, bool access);
  void unpost(const Constraint& c, Slot slot, bool access);
  /// The posting list of equality `c`, or nullptr when `c` is not an
  /// equality or no stored filter holds it.
  const EqIds* find_eq(const Constraint& c) const;

  std::unordered_map<AtomId, AttrTables> attrs_;
  // Stored filters, kept so remove() can locate every posting and
  // match() knows each filter's slot.
  std::unordered_map<std::uint64_t, Stored> filters_;
  // Slot-indexed filter metadata; freed slots are recycled.
  std::vector<std::uint64_t> slot_id_;
  std::vector<std::uint32_t> slot_needed_;  // constraint count to satisfy
  // Index of the access predicate in the filter, or kNoAccess.
  std::vector<std::uint32_t> slot_access_;
  std::vector<Slot> free_slots_;
  // Filters with no constraints match every event (raw ids).
  std::vector<std::uint64_t> match_all_;
  // Non-empty filters with no access predicate (no posted equality).
  Ids unkeyed_;
  // Per-match scratch: satisfied-constraint counts, validity stamped by
  // epoch so nothing is cleared between matches.
  mutable std::vector<std::uint32_t> counts_;
  mutable std::vector<std::uint32_t> stamp_;
  mutable std::vector<Slot> touched_;
  mutable std::uint32_t epoch_ = 0;
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
