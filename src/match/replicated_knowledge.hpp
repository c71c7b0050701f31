// Knowledge-base replication over the event service.
//
// §1.2: "In order to do this matching, both the events and the
// knowledge base must be delivered to the locations at which the
// matching computation occurs."  A single shared in-memory knowledge
// base would hide exactly the distribution problem the paper poses, so
// matchlets bind to *per-host replicas* kept consistent through the
// same pub/sub substrate that carries user events (§5: "Both classes
// of events are supported by a Siena-like P2P system"):
//
//   * writes go to the authority, which assigns the fact id and
//     publishes a "fact-update" event carrying the fact as XML;
//   * every replica host subscribes to fact-update events and applies
//     them to its local KnowledgeBase (eventual consistency — matching
//     at a host sees a fact one bus-propagation delay after the write);
//   * a replica created late receives a state transfer (copy of the
//     authority's current facts), modelling a new matchlet host syncing
//     the knowledge base from the storage architecture.
//
// Every replica lives in this process, so an update's fact XML is
// parsed once, not once per replica: the first replica to apply it
// keeps the parsed fact (a copy-on-write handle) beside the update, and
// a later replica reuses it when its own update carries the same
// fact_xml text.  An update superseded in flight carries other text
// and parses its own.  The entry is dropped once as many replicas as
// exist have applied it, or, if some replica never receives the update
// (its host was down), once no handle outside the memo carries it: the
// memo holds only updates in flight.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "match/knowledge.hpp"
#include "pubsub/event_service.hpp"

namespace aa::match {

struct ReplicationStats {
  std::uint64_t updates_published = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t state_transfers = 0;
};

class ReplicatedKnowledge {
 public:
  /// `authority_host` is where update events are published from.
  ReplicatedKnowledge(pubsub::EventService& bus, sim::HostId authority_host);

  // --- Authoritative write API ---
  FactId add(Fact fact);
  bool remove(FactId id);
  bool update(FactId id, Fact fact);

  /// The authority's own copy (reads at the write point).
  KnowledgeBase& master() { return master_; }
  const KnowledgeBase& master() const { return master_; }

  /// The replica matchlets on `host` bind to; created (with state
  /// transfer) on first use.
  KnowledgeBase& replica(sim::HostId host);

  const ReplicationStats& stats() const { return stats_; }

  static constexpr const char* kUpdateEventType = "fact-update";

 private:
  /// An "add" update some replica has parsed, while it is in flight.
  struct Parsed {
    FactId id = 0;
    event::Event update;  // holds the fact_xml text later replicas compare
    Fact fact;
    std::size_t applied = 0;
  };

  void publish_update(const char* op, FactId id, const Fact* fact);
  void apply(KnowledgeBase& kb, const event::Event& update);

  pubsub::EventService& bus_;
  sim::HostId authority_;
  KnowledgeBase master_;
  std::map<sim::HostId, std::unique_ptr<KnowledgeBase>> replicas_;
  // Updates in flight, in the order a replica first parsed them.
  std::vector<Parsed> parsed_;
  ReplicationStats stats_;
};

}  // namespace aa::match
