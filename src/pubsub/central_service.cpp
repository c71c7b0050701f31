#include "pubsub/central_service.hpp"

#include <set>

#include "wire/codec.hpp"

namespace aa::pubsub {

CentralService::CentralService(sim::Network& net, sim::HostId server_host)
    : net_(net), server_(server_host) {
  net_.register_handler(server_, kBrokerProto,
                        [this](const sim::Packet& p) { on_server_message(p); });
}

CentralService::~CentralService() {
  net_.unregister_handler(server_, kBrokerProto);
  for (const auto& [h, subs] : client_subs_) {
    net_.unregister_handler(h, kClientProto);
  }
}

void CentralService::ensure_client(sim::HostId client_host) {
  if (client_subs_.contains(client_host)) return;
  client_subs_[client_host];  // create
  net_.register_handler(client_host, kClientProto, [this, client_host](const sim::Packet& p) {
    on_client_message(client_host, p);
  });
}

std::uint64_t CentralService::subscribe(sim::HostId client, const event::Filter& filter,
                                        Deliver deliver) {
  ensure_client(client);
  const std::uint64_t id = next_sub_id_++;
  client_subs_[client].push_back(ClientSub{id, filter, std::move(deliver)});
  SubscribeMsg msg{id, filter};
  const std::size_t size = wire::xml_codec().size(msg);
  net_.send(client, server_, kBrokerProto, std::move(msg), size);
  return id;
}

void CentralService::unsubscribe(sim::HostId client, std::uint64_t subscription_id) {
  ensure_client(client);
  std::erase_if(client_subs_[client],
                [&](const ClientSub& s) { return s.id == subscription_id; });
  net_.send(client, server_, kBrokerProto, UnsubscribeMsg{subscription_id},
            wire::xml_codec().size(UnsubscribeMsg{subscription_id}));
}

void CentralService::publish(sim::HostId client, const event::Event& e) {
  PublishMsg pub{e};
  const std::size_t size = wire::xml_codec().size(pub);
  net_.send(client, server_, kBrokerProto, std::move(pub), size);
}

void CentralService::on_server_message(const sim::Packet& packet) {
  ++server_messages_;
  if (const auto* sub = sim::packet_body<SubscribeMsg>(packet)) {
    server_subs_[sub->id] = ServerSub{sub->filter, packet.src};
    server_index_.add(sub->id, sub->filter);
  } else if (const auto* unsub = sim::packet_body<UnsubscribeMsg>(packet)) {
    server_subs_.erase(unsub->id);
    server_index_.remove(unsub->id);
  } else if (const auto* pub = sim::packet_body<PublishMsg>(packet)) {
    std::set<sim::HostId> deliver_to;
    std::vector<std::uint64_t> matched;
    index_probes_ += server_index_.match(pub->event, matched);
    for (std::uint64_t id : matched) {
      auto it = server_subs_.find(id);
      if (it != server_subs_.end()) deliver_to.insert(it->second.client);
    }
    const std::size_t size = wire::xml_codec().size(DeliverMsg{pub->event});
    for (sim::HostId c : deliver_to) {
      net_.send(server_, c, kClientProto, DeliverMsg{pub->event}, size);
    }
  }
}

void CentralService::on_client_message(sim::HostId client_host, const sim::Packet& packet) {
  const auto* msg = sim::packet_body<DeliverMsg>(packet);
  if (msg == nullptr) return;
  for (const ClientSub& sub : client_subs_[client_host]) {
    if (sub.filter.matches(msg->event)) sub.deliver(msg->event);
  }
}

}  // namespace aa::pubsub
