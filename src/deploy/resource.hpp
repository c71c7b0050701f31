// Resource advertisement and monitoring (§4.4).
//
// "Nodes will advertise their resource availability, physical and
// logical connectivity, geographic location etc. via publish events on
// a P2P system.  The events may be subscribed to by the evolution
// engine ... Nodes may disappear from the network either gracefully, in
// which case they will publish events warning of their imminent
// withdrawal, or without warning, in which case the loss may eventually
// be detected by other monitoring components, which will publish events
// on their behalf."
//
// Three pieces:
//   * ResourceAdvertiser — periodic "resource-advert" events per host,
//     plus a "resource-withdraw" on graceful departure;
//   * FailureMonitor — a monitoring component that pings advertised
//     hosts and publishes "resource-withdraw" for silent crashes;
//   * ResourceView — the evolution engine's subscription-fed table of
//     live nodes and their properties.
#pragma once

#include <map>
#include <set>
#include <string>

#include "pubsub/event_service.hpp"
#include "sim/scheduler.hpp"

namespace aa::deploy {

struct HostResources {
  sim::HostId host = sim::kNoHost;
  std::string region;
  std::set<std::string> capabilities;
  double storage_mb = 0;
  SimTime last_advert = 0;
  bool withdrawn = false;
};

class ResourceAdvertiser {
 public:
  ResourceAdvertiser(sim::Network& net, pubsub::EventService& bus, SimDuration period);
  ~ResourceAdvertiser();

  ResourceAdvertiser(const ResourceAdvertiser&) = delete;
  ResourceAdvertiser& operator=(const ResourceAdvertiser&) = delete;

  /// Starts advertising a host's resources.
  void advertise(sim::HostId host, std::string region, std::set<std::string> capabilities,
                 double storage_mb = 1024.0);
  /// Graceful departure: publishes the withdrawal warning (the host is
  /// still up when this is published; take it down afterwards).
  void withdraw(sim::HostId host);
  void stop(sim::HostId host);

  static event::Event advert_event(const HostResources& r);

 private:
  void tick();

  sim::Network& net_;
  pubsub::EventService& bus_;
  SimDuration period_;
  std::map<sim::HostId, HostResources> hosts_;
  sim::TaskId task_ = sim::kInvalidTask;
};

/// Detects silent crashes: pings each host seen in advert events; a
/// missing pong inside the timeout publishes "resource-withdraw" on the
/// victim's behalf.
class FailureMonitor {
 public:
  FailureMonitor(sim::Network& net, pubsub::EventService& bus, sim::HostId monitor_host,
                 SimDuration probe_period, SimDuration pong_timeout);
  ~FailureMonitor();

  FailureMonitor(const FailureMonitor&) = delete;
  FailureMonitor& operator=(const FailureMonitor&) = delete;

  int failures_detected() const { return failures_; }

 private:
  void probe();
  void on_message(const sim::Packet& packet);

  sim::Network& net_;
  pubsub::EventService& bus_;
  sim::HostId host_;
  SimDuration pong_timeout_;
  std::set<sim::HostId> watched_;
  std::map<sim::HostId, std::uint64_t> outstanding_;  // host -> ping seq
  std::uint64_t next_seq_ = 1;
  sim::TaskId task_ = sim::kInvalidTask;
  std::uint64_t sub_id_ = 0;
  int failures_ = 0;
};

/// Subscription-fed table of advertised resources.
class ResourceView {
 public:
  ResourceView(pubsub::EventService& bus, sim::HostId view_host,
               SimDuration advert_ttl = duration::minutes(5));

  const std::map<sim::HostId, HostResources>& hosts() const { return hosts_; }
  /// Hosts currently considered live: advertised within the TTL (as of
  /// `now`) and not withdrawn, in host order.  The pointers point into
  /// the view and stay valid while it lives (entries are updated in
  /// place, never erased).
  std::vector<const HostResources*> live(SimTime now) const;
  std::vector<const HostResources*> live_in_region(SimTime now,
                                                   const std::string& region) const;

  /// Hook invoked on each withdrawal event (drives reactive repair).
  std::function<void(sim::HostId)> on_withdraw;

 private:
  std::map<sim::HostId, HostResources> hosts_;
  SimDuration ttl_;
};

}  // namespace aa::deploy
