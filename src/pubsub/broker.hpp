// A content-based routing broker (the Siena model, Carzaniga et al.).
//
// Brokers form an acyclic overlay.  Subscriptions flow away from the
// subscriber and install reverse routing state: a table entry
// (filter, interface) means "subscribers in the direction of that
// interface want events matching filter".  A publication arriving on
// interface J is forwarded to every other interface that has a matching
// entry, and delivered to matching local clients.
//
// Subscription propagation is pruned by *covering* (event/filter.hpp):
// a subscription is not forwarded to a neighbour that has already been
// sent a covering subscription from this broker — the covering filter
// already attracts every event the covered one needs.  Unsubscription
// restores any forwarding the removed subscription was suppressing.
//
// Forwarding invariant.  For every neighbour n, a table entry not
// learned from n and not in forwarded_[n] is covered by a filter in
// forwarded_[n], or advert_allows(n, ·) rejects it.  A subscribe
// establishes this for its own entry; only withdrawing a forwarded
// filter (an unsubscribe, a re-subscribe that changes it,
// remove_neighbour) can break it, and then only for entries that filter
// covered.  So reforward_covered re-examines just those, found through
// FilterIndex::covered_candidates, and covered_at probes the index's
// covering candidates instead of scanning forwarded_[n] (DESIGN.md
// §5.1).  add_neighbour does not replay the table, so every link must
// exist before the first subscription flows: SienaNetwork::connect
// returns kFailedPrecondition once its bus has issued a subscription or
// an advertisement.  An id always arrives from one direction: a moved
// client re-subscribes under fresh ids (SienaNetwork::attach_client).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "event/event.hpp"
#include "event/filter.hpp"
#include "event/filter_index.hpp"
#include "pubsub/messages.hpp"
#include "sim/durable_disk.hpp"
#include "sim/network.hpp"
#include "wire/codec.hpp"

namespace aa::sim {
class ReliableTransport;
}

namespace aa::pubsub {

struct BrokerStats {
  std::uint64_t publications_routed = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t subscriptions_forwarded = 0;
  std::uint64_t subscriptions_suppressed = 0;  // covering prunes
  // FilterIndex probes (FilterIndex::match): keyed candidates and
  // unkeyed filters verified.
  std::uint64_t index_probes = 0;
  // Crash durability (enable_checkpoints / recover):
  std::uint64_t checkpoints = 0;        // routing-table checkpoint writes
  std::uint64_t checkpoint_bytes = 0;   // bytes issued for those writes
  std::uint64_t recoveries = 0;
  std::uint64_t recovered_entries = 0;  // table + advert entries restored
  std::uint64_t sync_requests = 0;      // recovery syncs sent to peers
  std::uint64_t sync_replies = 0;       // peer replies applied
  std::uint64_t sync_retries = 0;       // resends after timeout (stale peer)
  std::uint64_t sync_give_ups = 0;      // peers that never answered
  /// Stamped publications discarded as already routed here — nonzero
  /// only when a crash/fault overlap re-injected a processed packet
  /// (messages.hpp: PublishMsg::pub_id).
  std::uint64_t duplicate_publishes_discarded = 0;

  /// Field-wise sum (SienaNetwork::total_broker_stats).
  BrokerStats& operator+=(const BrokerStats& o);
};

class Broker {
 public:
  /// `codec` is the bus-wide wire codec (SienaNetwork's), which prices
  /// every send.
  Broker(sim::Network& net, sim::HostId host, const wire::Codec& codec);

  sim::HostId host() const { return host_; }

  /// Advertisement-forwarding mode (off by default): subscriptions are
  /// propagated to a neighbour only when an advertisement that arrived
  /// *from* that neighbour overlaps them — i.e. subscriptions chase
  /// publishers instead of flooding (Carzaniga et al.'s advertisement
  /// semantics).  Advertisements themselves are flooded.  All brokers
  /// of an overlay must agree on the mode.
  void set_advertisement_forwarding(bool on) { advertisement_forwarding_ = on; }

  /// Routes all broker-to-broker traffic through `transport` (ack +
  /// retry, sim/reliable.hpp) instead of raw datagrams, so forwarding
  /// survives link faults and partitions.  Client-facing sends are
  /// unaffected.  Wired up by SienaNetwork::enable_reliable_transport();
  /// nullptr restores the raw path.
  void set_transport(sim::ReliableTransport* transport) { transport_ = transport; }

  /// Declares a neighbour broker (call on both endpoints; the overlay
  /// must remain acyclic — SienaNetwork enforces a tree).  The table is
  /// not replayed toward the new neighbour, so link before any
  /// subscription arrives (SienaNetwork::connect enforces this).
  void add_neighbour(sim::HostId broker_host);
  void remove_neighbour(sim::HostId broker_host);
  const std::set<sim::HostId>& neighbours() const { return neighbours_; }

  /// Handles an incoming protocol message (wired up by SienaNetwork).
  void on_message(const sim::Packet& packet);

  const BrokerStats& stats() const { return stats_; }

  /// Number of routing-table entries (for table-size scaling metrics).
  std::size_t table_size() const { return table_.size(); }
  /// Entries learned from neighbour brokers (interior routing state).
  std::size_t transit_entries() const;

  /// Checkpoints the subscription/advertisement tables to `disk` after
  /// every routing-state mutation (ping-pong format, sim/durable_disk).
  /// Wired up by SienaNetwork::enable_broker_checkpoints().
  void enable_checkpoints(sim::DurableDisk& disk);

  /// Crash recovery: wipes routing state (the crash lost it), restores
  /// the last durable checkpoint, then reconciles with each neighbour
  /// via SyncRequest/SyncReply with timeout + backoff — a peer that is
  /// itself down or stale is retried, then given up on.  Called by the
  /// churn recovery hook (SienaNetwork::attach_churn).
  void recover();

 private:
  // An interface is either a neighbour broker or a locally attached
  // client host; kClient entries cause client delivery messages.
  struct Iface {
    enum class Kind { kBroker, kClient } kind;
    sim::HostId host;

    auto operator<=>(const Iface&) const = default;
  };

  struct Entry {
    event::Filter filter;
    Iface source;
  };

  void handle_subscribe(std::uint64_t id, const event::Filter& filter, Iface source);
  void handle_unsubscribe(std::uint64_t id, Iface source);
  void handle_advertise(std::uint64_t id, const event::Filter& filter, Iface source);
  void route_publish(const event::Event& e, std::optional<sim::HostId> arrival_broker,
                     std::uint64_t pub_id = 0);

  /// In advertisement mode: may a subscription with `filter` flow to
  /// `neighbour` (i.e. does an advertisement from that direction
  /// overlap it)?  Always true when the mode is off.
  bool advert_allows(sim::HostId neighbour, const event::Filter& filter) const;

  /// True if a filter already forwarded to `neighbour` covers `filter`.
  bool covered_at(sim::HostId neighbour, const event::Filter& filter,
                  std::uint64_t ignore_id) const;

  /// `departed` no longer travels toward `neighbour`: forwards there, in
  /// ascending id order, the covering-maximal entries it covered that
  /// nothing forwarded that way still covers.
  void reforward_covered(sim::HostId neighbour, const event::Filter& departed);

  /// Unsubscribes `id`, already erased from table_ and index_, toward
  /// every neighbour it was forwarded to, re-forwarding what `filter`
  /// covered.
  void withdraw(std::uint64_t id, const event::Filter& filter);

  void send_subscribe(sim::HostId neighbour, std::uint64_t id, const event::Filter& filter);

  /// Broker-to-broker send: reliable transport when configured, raw
  /// kBrokerProto datagram otherwise.
  void send_broker(sim::HostId neighbour, std::any body, std::size_t wire_size);

  /// Writes a routing-state checkpoint if checkpointing is enabled.
  /// Called after every table_/adverts_/forwarded_ mutation.
  void checkpoint();
  Bytes serialize_routing_state() const;
  void restore_routing_state(const Bytes& payload);
  void handle_sync_request(sim::HostId peer, std::uint64_t round);
  void handle_sync_reply(sim::HostId peer, const SyncReplyMsg& reply);
  void send_sync_request(sim::HostId peer);
  void on_sync_timeout(sim::HostId peer);

  sim::Network& net_;
  sim::HostId host_;
  const wire::Codec& codec_;
  sim::ReliableTransport* transport_ = nullptr;
  bool advertisement_forwarding_ = false;
  std::set<sim::HostId> neighbours_;
  std::map<std::uint64_t, Entry> table_;
  // Predicate index over table_ filters; maintained alongside every
  // table_ mutation.
  event::FilterIndex index_;
  // Per neighbour: subscription ids we have forwarded to it.
  std::map<sim::HostId, std::set<std::uint64_t>> forwarded_;
  // Advertisements seen, by id (filter + the interface they came from).
  std::map<std::uint64_t, Entry> adverts_;
  // Stamped publication ids already routed here (PublishMsg::pub_id);
  // in-memory only, so it is cleared on recover() like a restarted
  // process would — downstream brokers' sets catch what the crash
  // forgot.
  std::set<std::uint64_t> seen_publishes_;
  // route_publish's scratch, reused so routing a publication allocates
  // nothing here: matched subscription ids and destination hosts.
  std::vector<std::uint64_t> matched_;
  std::vector<sim::HostId> forward_to_;
  std::vector<sim::HostId> deliver_to_;
  // Crash durability (nullptr when checkpointing is off).
  sim::DurableDisk* disk_ = nullptr;
  std::uint64_t ckpt_seq_ = 0;
  std::uint64_t sync_round_ = 0;  // bumped per recover(); stale replies ignored
  struct SyncState {
    int attempts = 0;
    SimDuration delay = 0;
    sim::TaskId timer = sim::kInvalidTask;
  };
  std::map<sim::HostId, SyncState> pending_sync_;
  BrokerStats stats_;
};

}  // namespace aa::pubsub
