// The generic global event service interface (§4.1).
//
// "A P2P architecture may be used to distribute both low-level
// sensor-derived events, and high-level synthesised events produced by
// the contextual matching engine.  We propose that a general-purpose
// system such as Siena would be ideal for this purpose."
//
// Implementations, matching the paper's state of the art survey (§3):
//   * SienaNetwork      — distributed content-based routing over an
//                         acyclic broker overlay with covering-based
//                         subscription pruning (the paper's choice).
//                         With one broker it is the Elvin-style single
//                         server ("client-server architecture, limiting
//                         its scalability"), C1's central baseline.
//   * FloodingNetwork   — broker overlay that floods every publication
//                         (ablation: overlay without content-based
//                         routing).
//   * ScribeNetwork     — rendezvous multicast over the Plaxton overlay.
#pragma once

#include <cstdint>
#include <functional>

#include "event/event.hpp"
#include "event/filter.hpp"
#include "sim/network.hpp"

namespace aa::pubsub {

class EventService {
 public:
  virtual ~EventService() = default;

  /// Invoked at the subscriber's host when a matching event arrives.
  using Deliver = std::function<void(const event::Event&)>;

  /// Registers interest; returns a service-unique subscription id.
  virtual std::uint64_t subscribe(sim::HostId client, const event::Filter& filter,
                                  Deliver deliver) = 0;
  virtual void unsubscribe(sim::HostId client, std::uint64_t subscription_id) = 0;

  /// Publishes an event from `client`'s host.
  virtual void publish(sim::HostId client, const event::Event& e) = 0;

  /// Declares the class of events a publisher will emit (§3: "Event
  /// producers advertise the events that they generate").  Purely
  /// declarative in this implementation: routers use subscriptions for
  /// routing state; advertisements are validated against publications.
  virtual void advertise(sim::HostId client, const event::Filter& filter) {
    (void)client;
    (void)filter;
  }
};

}  // namespace aa::pubsub
