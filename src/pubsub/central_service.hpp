// Elvin-style centralised event service (§3): "it uses a client-server
// architecture, limiting its scalability."  One server host matches
// every publication against every subscription.  Baseline for the C1
// scalability experiment.
#pragma once

#include <map>
#include <vector>

#include "event/filter_index.hpp"
#include "pubsub/event_service.hpp"
#include "pubsub/messages.hpp"

namespace aa::pubsub {

class CentralService final : public EventService {
 public:
  CentralService(sim::Network& net, sim::HostId server_host);
  ~CentralService() override;

  CentralService(const CentralService&) = delete;
  CentralService& operator=(const CentralService&) = delete;

  std::uint64_t subscribe(sim::HostId client, const event::Filter& filter,
                          Deliver deliver) override;
  void unsubscribe(sim::HostId client, std::uint64_t subscription_id) override;
  void publish(sim::HostId client, const event::Event& e) override;

  sim::HostId server_host() const { return server_; }
  std::uint64_t server_index_probes() const { return index_probes_; }
  std::uint64_t server_messages() const { return server_messages_; }

 private:
  struct ServerSub {
    event::Filter filter;
    sim::HostId client;
  };
  struct ClientSub {
    std::uint64_t id;
    event::Filter filter;
    Deliver deliver;
  };

  void on_server_message(const sim::Packet& packet);
  void on_client_message(sim::HostId client_host, const sim::Packet& packet);
  void ensure_client(sim::HostId client_host);

  sim::Network& net_;
  sim::HostId server_;
  std::map<std::uint64_t, ServerSub> server_subs_;
  event::FilterIndex server_index_;
  std::map<sim::HostId, std::vector<ClientSub>> client_subs_;
  std::uint64_t next_sub_id_ = 1;
  std::uint64_t index_probes_ = 0;
  std::uint64_t server_messages_ = 0;
};

}  // namespace aa::pubsub
