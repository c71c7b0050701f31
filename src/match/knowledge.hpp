// The knowledge base: the "global knowledge base comprising elements
// such as GIS, web-based systems, databases, semi-structured data"
// (§1.1) that the matching service correlates event streams against.
//
// Facts are typed attribute records (the same representation as events:
// a fact is knowledge shaped like "user=bob likes=icecream
// min_celsius=18").  The store maintains an inverted index over
// (attribute, string-value) equality pairs so the common rule probe —
// "facts with kind=preference and user=bob" — touches only candidate
// facts rather than scanning; the C7 bench quantifies the difference.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "event/event.hpp"
#include "event/filter.hpp"

namespace aa::match {

/// Knowledge is represented exactly like events: named typed attributes.
using Fact = event::Event;
using FactId = std::uint64_t;

struct KnowledgeStats {
  std::uint64_t indexed_queries = 0;
  std::uint64_t scan_queries = 0;
  std::uint64_t facts_examined = 0;
};

class KnowledgeBase {
 public:
  FactId add(Fact fact);
  /// Inserts a fact under an externally assigned id (replication path:
  /// replicas must agree with the authority on ids).  Replaces any
  /// existing fact with that id.
  void insert(FactId id, Fact fact);
  bool remove(FactId id);
  /// Replaces the fact with `id`; false if absent.
  bool update(FactId id, Fact fact);

  const Fact* fact(FactId id) const;
  std::size_t size() const { return facts_.size(); }

  /// All facts matching the filter, in id order.  Uses the inverted
  /// index when the filter has at least one string-equality constraint;
  /// scans otherwise.
  std::vector<const Fact*> query(const event::Filter& filter) const;
  /// The same, written into `out` (cleared first), so a caller probing
  /// per event reuses one buffer.
  void query(const event::Filter& filter, std::vector<const Fact*>& out) const;

  /// Every (id, fact) pair in id order (replication state transfer, and
  /// the naive baseline's unindexed scan).
  std::vector<std::pair<FactId, const Fact*>> snapshot() const;

  const KnowledgeStats& stats() const { return stats_; }

 private:
  void index_fact(FactId id, const Fact& fact);
  void unindex_fact(FactId id, const Fact& fact);

  std::map<FactId, Fact> facts_;
  // (attribute, string value) -> fact ids.
  // String-equality index keyed by (interned attribute, value).
  std::map<std::pair<event::AtomId, std::string>, std::set<FactId>> index_;
  FactId next_id_ = 1;
  mutable KnowledgeStats stats_;
};

}  // namespace aa::match
