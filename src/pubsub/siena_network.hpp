// The distributed event service: a network of content-based brokers
// arranged in an acyclic overlay, with clients attached to access
// brokers (§4.1 — "a general-purpose system such as Siena would be
// ideal for this purpose ... it shows evidence of being globally
// scalable").
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "pubsub/broker.hpp"
#include "pubsub/event_service.hpp"
#include "sim/churn.hpp"
#include "sim/reliable.hpp"

namespace aa::pubsub {

class SienaNetwork final : public EventService {
 public:
  /// Creates one broker on each of `broker_hosts`.  Clients may live on
  /// any other host (or share a broker's host — they still talk to it
  /// through the network, at loopback latency).  The bus speaks
  /// kBrokerProto and kClientProto, so one network carries one bus.
  /// `codec` (wire/codec.hpp) prices every send of this bus, client or
  /// broker; it affects accounted wire sizes only — message bodies stay
  /// in-memory structs in the simulator.
  SienaNetwork(sim::Network& net, std::vector<sim::HostId> broker_hosts,
               wire::WireCodec codec = wire::WireCodec::kXml);
  ~SienaNetwork() override;

  SienaNetwork(const SienaNetwork&) = delete;
  SienaNetwork& operator=(const SienaNetwork&) = delete;

  /// Connects two brokers.  Rejects links that would create a cycle
  /// (the routing scheme requires an acyclic overlay), and any link once
  /// this bus has issued a subscription or an advertisement
  /// (kFailedPrecondition): Broker::add_neighbour does not replay
  /// routing state, so a later link would carry no routes.
  Status connect(sim::HostId broker_a, sim::HostId broker_b);

  /// Builds a balanced binary tree over all brokers (in creation
  /// order).  Like connect(), it must run before the first subscribe()
  /// or advertise(), and only once: it returns connect()'s first
  /// refusal and links nothing after it.
  Status connect_tree();

  /// Enables Siena's advertisement semantics on every broker: once on,
  /// subscriptions propagate only toward overlapping advertisements, so
  /// publishers must advertise() before their events can travel beyond
  /// their access broker.  Like connect(), it is rejected
  /// (kFailedPrecondition) once this bus has issued a subscription or an
  /// advertisement: subscriptions already forwarded under the other mode
  /// would stay where it put them.
  Status set_advertisement_forwarding(bool on);

  /// Routes broker-to-broker forwarding through an ack/retry reliable
  /// transport (protocol "ps.broker.r", sim/reliable.hpp), so routing
  /// state and publications survive link faults and partitions (lost
  /// messages are retransmitted after heal).  Client<->broker hops stay
  /// raw datagrams — co-locate clients with their access broker when a
  /// workload needs end-to-end reliability under faults.  Off by
  /// default, so benches on a clean network are unchanged.
  void enable_reliable_transport(const sim::ReliableParams& params = {});
  sim::ReliableTransport* reliable_transport() { return transport_.get(); }

  /// Checkpoints every broker's routing tables to `disk` and, with the
  /// reliable transport enabled, parks broker traffic the transport
  /// gave up on (peer crashed — incarnation give-up) in a stalled queue
  /// that is re-sent when the peer rejoins, so publications outlive a
  /// broker crash instead of retrying into a void.
  void enable_broker_checkpoints(sim::DurableDisk& disk);

  /// Registers per-broker recovery hooks: a broker host rejoining via
  /// `churn` restores its routing state (checkpoint + peer sync) before
  /// kJoin observers run.
  void attach_churn(sim::ChurnInjector& churn);

  /// Broker-to-broker packets awaiting a crashed peer's return.
  std::size_t stalled_packets() const;

  /// Attaches a client to an access broker.  Must precede subscribe /
  /// publish calls for that client.  Re-attaching an already-attached
  /// client moves it: its live subscriptions are unsubscribed at the
  /// old access broker and re-issued at the new one, so delivery
  /// follows the client.  The moved subscriptions travel under fresh
  /// broker-side ids; subscribe()'s return value stays the handle.
  void attach_client(sim::HostId client_host, sim::HostId broker_host);

  /// Access broker chosen as the topologically nearest broker.
  void attach_client_nearest(sim::HostId client_host);

  // EventService:
  std::uint64_t subscribe(sim::HostId client, const event::Filter& filter,
                          Deliver deliver) override;
  void unsubscribe(sim::HostId client, std::uint64_t subscription_id) override;
  void publish(sim::HostId client, const event::Event& e) override;
  void advertise(sim::HostId client, const event::Filter& filter) override;

  /// Re-issues an existing advertisement with a new filter (a publisher
  /// widening or narrowing its declared event class); the update is
  /// flooded through the overlay.  An `id` not in advertisements() is
  /// rejected (kNotFound) and nothing is sent.
  Status re_advertise(sim::HostId client, std::uint64_t id, const event::Filter& filter);

  Broker* broker(sim::HostId host);
  const std::vector<sim::HostId>& broker_hosts() const { return broker_hosts_; }

  /// Sum of broker stats across the overlay.
  BrokerStats total_broker_stats() const;
  /// Routing-table entries learned from neighbour brokers, summed
  /// across the overlay (interior routing state).
  std::size_t total_transit_entries() const;
  /// Largest single broker routing table in the overlay.
  std::size_t max_table_entries() const;

  const std::vector<event::Advertisement>& advertisements() const { return advertisements_; }

 private:
  struct ClientSub {
    event::Filter filter;
    Deliver deliver;
    // The id brokers route it under: the handle until a move renews it.
    std::uint64_t wire_id;
  };
  struct ClientState {
    sim::HostId access_broker = sim::kNoHost;
    std::map<std::uint64_t, ClientSub> subs;
    // Local dispatch index: one delivery arrives per client, fanned out
    // to the matching subscription callbacks.
    event::FilterIndex index;
  };

  /// Whether the bus has issued a subscription or an advertisement, after
  /// which links and the advertisement mode are fixed.
  bool routing_started() const { return next_sub_id_ > 1 || next_adv_id_ > 1; }
  void on_client_message(sim::HostId client_host, const sim::Packet& packet);
  ClientState& client_state(sim::HostId client_host);

  void on_transport_give_up(const sim::Packet& packet);
  void flush_stalled(sim::HostId host);

  sim::Network& net_;
  std::vector<sim::HostId> broker_hosts_;
  const wire::Codec& codec_;
  std::unique_ptr<sim::ReliableTransport> transport_;
  sim::DurableDisk* disk_ = nullptr;
  std::uint64_t watcher_id_ = 0;
  // Broker traffic the transport gave up on because the destination
  // crashed; flushed (re-sent) when the destination rejoins.  Parked by
  // *source* host: flush_stalled re-sends in (source, park order), and
  // that order is the order of the re-sent packets on the wire.
  std::vector<std::vector<sim::Packet>> stalled_;
  std::map<sim::HostId, std::unique_ptr<Broker>> brokers_;
  std::map<sim::HostId, ClientState> clients_;
  // on_client_message's matched subscription ids, reused per delivery.
  std::vector<std::uint64_t> dispatch_ids_;
  std::vector<event::Advertisement> advertisements_;
  std::uint64_t next_sub_id_ = 1;
  std::uint64_t next_adv_id_ = 1;
  std::uint64_t next_pub_id_ = 0;  // producer-side publication stamps
};

}  // namespace aa::pubsub
