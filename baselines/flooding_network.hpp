// Flooding baseline: the same acyclic broker overlay as SienaNetwork,
// but publications are flooded to every broker regardless of
// subscriptions; filtering happens only at the edge (access brokers
// deliver to their matching local clients).  Ablation for C1: overlay
// distribution *without* content-based routing state.  Every message is
// priced as XML.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "pubsub/event_service.hpp"
#include "pubsub/messages.hpp"

namespace aa::baselines {

class FloodingNetwork final : public pubsub::EventService {
 public:
  FloodingNetwork(sim::Network& net, std::vector<sim::HostId> broker_hosts);
  ~FloodingNetwork() override;

  FloodingNetwork(const FloodingNetwork&) = delete;
  FloodingNetwork& operator=(const FloodingNetwork&) = delete;

  void connect(sim::HostId broker_a, sim::HostId broker_b);
  /// Builds a binary tree over all brokers (in creation order).
  void connect_tree();
  void attach_client(sim::HostId client_host, sim::HostId broker_host);

  std::uint64_t subscribe(sim::HostId client, const event::Filter& filter,
                          Deliver deliver) override;
  void unsubscribe(sim::HostId client, std::uint64_t subscription_id) override;
  void publish(sim::HostId client, const event::Event& e) override;

  std::uint64_t broker_messages() const { return broker_messages_; }

 private:
  struct BrokerState {
    std::set<sim::HostId> neighbours;
    // Local client subscriptions: client host -> filters.
    std::map<sim::HostId, std::vector<std::pair<std::uint64_t, event::Filter>>> local;
  };
  struct ClientSub {
    std::uint64_t id;
    event::Filter filter;
    Deliver deliver;
  };
  struct ClientState {
    sim::HostId access_broker = sim::kNoHost;
    std::vector<ClientSub> subs;
  };

  void on_broker_message(sim::HostId broker, const sim::Packet& packet);
  void on_client_message(sim::HostId client_host, const sim::Packet& packet);
  void flood(sim::HostId at_broker, const event::Event& e,
             std::optional<sim::HostId> arrival);

  sim::Network& net_;
  std::vector<sim::HostId> broker_hosts_;
  std::map<sim::HostId, BrokerState> brokers_;
  std::map<sim::HostId, ClientState> clients_;
  std::uint64_t next_sub_id_ = 1;
  std::uint64_t broker_messages_ = 0;
};

}  // namespace aa::baselines
