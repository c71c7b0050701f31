#include "baselines/flooding_network.hpp"

#include <set>

#include "wire/codec.hpp"

namespace aa::baselines {

using pubsub::DeliverMsg;
using pubsub::kBrokerProto;
using pubsub::kClientProto;
using pubsub::PublishMsg;
using pubsub::SubscribeMsg;
using pubsub::UnsubscribeMsg;

namespace {
constexpr std::size_t kTreeFanout = 2;
}  // namespace

FloodingNetwork::FloodingNetwork(sim::Network& net, std::vector<sim::HostId> broker_hosts)
    : net_(net), broker_hosts_(std::move(broker_hosts)) {
  for (sim::HostId h : broker_hosts_) {
    brokers_[h];
    net_.register_handler(
        h, kBrokerProto, [this, h](const sim::Packet& p) { on_broker_message(h, p); });
  }
}

FloodingNetwork::~FloodingNetwork() {
  for (const auto& [h, b] : brokers_) net_.unregister_handler(h, kBrokerProto);
  for (const auto& [h, c] : clients_) net_.unregister_handler(h, kClientProto);
}

void FloodingNetwork::connect(sim::HostId broker_a, sim::HostId broker_b) {
  brokers_[broker_a].neighbours.insert(broker_b);
  brokers_[broker_b].neighbours.insert(broker_a);
}

void FloodingNetwork::connect_tree() {
  for (std::size_t i = 1; i < broker_hosts_.size(); ++i) {
    connect(broker_hosts_[(i - 1) / kTreeFanout], broker_hosts_[i]);
  }
}

void FloodingNetwork::attach_client(sim::HostId client_host, sim::HostId broker_host) {
  clients_[client_host].access_broker = broker_host;
  net_.register_handler(client_host, kClientProto, [this, client_host](const sim::Packet& p) {
    on_client_message(client_host, p);
  });
}

std::uint64_t FloodingNetwork::subscribe(sim::HostId client, const event::Filter& filter,
                                         Deliver deliver) {
  ClientState& state = clients_.at(client);
  const std::uint64_t id = next_sub_id_++;
  state.subs.push_back(ClientSub{id, filter, std::move(deliver)});
  SubscribeMsg msg{id, filter};
  const std::size_t size = wire::xml_codec().size(msg);
  net_.send(client, state.access_broker, kBrokerProto, std::move(msg), size);
  return id;
}

void FloodingNetwork::unsubscribe(sim::HostId client, std::uint64_t subscription_id) {
  ClientState& state = clients_.at(client);
  std::erase_if(state.subs, [&](const ClientSub& s) { return s.id == subscription_id; });
  net_.send(client, state.access_broker, kBrokerProto, UnsubscribeMsg{subscription_id},
            wire::xml_codec().size(UnsubscribeMsg{subscription_id}));
}

void FloodingNetwork::publish(sim::HostId client, const event::Event& e) {
  ClientState& state = clients_.at(client);
  PublishMsg pub{e};
  const std::size_t size = wire::xml_codec().size(pub);
  net_.send(client, state.access_broker, kBrokerProto, std::move(pub), size);
}

void FloodingNetwork::on_broker_message(sim::HostId broker, const sim::Packet& packet) {
  ++broker_messages_;
  BrokerState& state = brokers_.at(broker);
  const bool from_broker = state.neighbours.contains(packet.src);

  if (const auto* sub = sim::packet_body<SubscribeMsg>(packet)) {
    // Subscriptions stay at the access broker; no propagation needed
    // because publications visit every broker anyway.
    state.local[packet.src].emplace_back(sub->id, sub->filter);
  } else if (const auto* unsub = sim::packet_body<UnsubscribeMsg>(packet)) {
    auto it = state.local.find(packet.src);
    if (it != state.local.end()) {
      std::erase_if(it->second, [&](const auto& p) { return p.first == unsub->id; });
    }
  } else if (const auto* pub = sim::packet_body<PublishMsg>(packet)) {
    flood(broker, pub->event,
          from_broker ? std::optional<sim::HostId>(packet.src) : std::nullopt);
  }
}

void FloodingNetwork::flood(sim::HostId at_broker, const event::Event& e,
                            std::optional<sim::HostId> arrival) {
  BrokerState& state = brokers_.at(at_broker);
  const std::size_t size = wire::xml_codec().size(DeliverMsg{e});
  // Edge filtering: deliver to matching local clients.
  std::set<sim::HostId> deliver_to;
  for (const auto& [client, subs] : state.local) {
    for (const auto& [id, filter] : subs) {
      if (filter.matches(e)) {
        deliver_to.insert(client);
        break;
      }
    }
  }
  for (sim::HostId c : deliver_to) {
    net_.send(at_broker, c, kClientProto, DeliverMsg{e}, size);
  }
  // Flood on the spanning tree (acyclic overlay: no duplicate paths).
  for (sim::HostId n : state.neighbours) {
    if (arrival && *arrival == n) continue;
    net_.send(at_broker, n, kBrokerProto, PublishMsg{e}, size);
  }
}

void FloodingNetwork::on_client_message(sim::HostId client_host, const sim::Packet& packet) {
  const auto* msg = sim::packet_body<DeliverMsg>(packet);
  if (msg == nullptr) return;
  for (const ClientSub& sub : clients_.at(client_host).subs) {
    if (sub.filter.matches(msg->event)) sub.deliver(msg->event);
  }
}

}  // namespace aa::baselines
