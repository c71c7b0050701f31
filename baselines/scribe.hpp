// Rendezvous (Scribe-style) publish/subscribe over the Plaxton overlay.
//
// §4.1/§5 call for the event service to run *on the P2P substrate*
// ("Both classes of events are supported by a Siena-like P2P system").
// The broker-tree SienaNetwork models the classic deployment; this
// class is the P2P realisation, after Scribe (Rowstron et al., also
// Pastry-based and contemporary with the paper):
//
//   * each event type is a topic whose rendezvous node is the root of
//     hash("topic:" + type);
//   * a subscription routes a JOIN toward the rendezvous; every node on
//     the path becomes a forwarder and records the previous hop as a
//     child, building a multicast tree rooted at the rendezvous;
//   * a publication routes to the rendezvous and is multicast down the
//     tree; content filters are evaluated at the edge (subscriber
//     hosts), exactly as in Scribe.
//
// Filters without an equality constraint on "type" join the catch-all
// topic; publications are additionally sent to the catch-all tree only
// while it has subscribers.
//
// Tree maintenance is soft state: subscribers re-JOIN periodically, and
// forwarders prune children that miss `kRefreshMisses` refresh periods,
// so churn-broken paths heal within a few periods.
#pragma once

#include <deque>
#include <map>
#include <set>

#include "overlay/overlay_network.hpp"
#include "pubsub/event_service.hpp"

namespace aa::baselines {

struct ScribeStats {
  std::uint64_t joins_routed = 0;
  std::uint64_t publishes_routed = 0;
  std::uint64_t multicast_messages = 0;
  std::uint64_t pruned_children = 0;
};

class ScribeNetwork final : public pubsub::EventService {
 public:
  struct Params {
    /// Subscription soft-state refresh period; 0 disables refresh
    /// (static-membership experiments).
    SimDuration refresh_period = duration::seconds(30);
  };

  /// Every participating client host must be an overlay member.
  ScribeNetwork(sim::Network& net, overlay::OverlayNetwork& overlay, Params params);
  ScribeNetwork(sim::Network& net, overlay::OverlayNetwork& overlay)
      : ScribeNetwork(net, overlay, Params{}) {}
  ~ScribeNetwork() override;

  ScribeNetwork(const ScribeNetwork&) = delete;
  ScribeNetwork& operator=(const ScribeNetwork&) = delete;

  std::uint64_t subscribe(sim::HostId client, const event::Filter& filter,
                          Deliver deliver) override;
  void unsubscribe(sim::HostId client, std::uint64_t subscription_id) override;
  void publish(sim::HostId client, const event::Event& e) override;

  /// The topic an event of this type maps to, and its rendezvous key.
  static std::string topic_of_type(const std::string& type);
  static ObjectId rendezvous_key(const std::string& topic);
  /// Topic a filter subscribes to (type-equality constraint or the
  /// catch-all).
  static std::string topic_of_filter(const event::Filter& filter);

  /// Forwarder children of `topic` at `host` (introspection for tests).
  std::size_t children_at(sim::HostId host, const std::string& topic) const;

  const ScribeStats& stats() const { return stats_; }

  static constexpr const char* kCatchAllTopic = "*";

 private:
  struct Child {
    sim::HostId host = sim::kNoHost;
    bool is_client = false;  // true: deliver; false: relay
    SimTime last_refresh = 0;

    auto operator<=>(const Child&) const = default;
  };
  struct ClientSub {
    std::uint64_t id;
    std::string topic;
    event::Filter filter;
    Deliver deliver;
  };

  struct RecentSet;

  void ensure_host(sim::HostId host);
  void handle_routed(sim::HostId host, const ObjectId& key, const Bytes& payload,
                     bool at_root);
  void on_multicast(sim::HostId host, const sim::Packet& packet);
  /// Records `child` under (host, topic) and climbs toward the
  /// rendezvous if this node's own membership is missing or stale.
  void handle_join_at(sim::HostId host, const ObjectId& key, const std::string& topic,
                      sim::HostId child);
  void multicast(sim::HostId host, const std::string& topic, std::uint64_t seq,
                 const std::string& event_xml);
  void deliver_local(sim::HostId host, const std::string& topic, const event::Event& e);
  void send_join(sim::HostId client, const std::string& topic);
  void refresh_tick();
  bool catch_all_active() const;
  bool dedup_insert(sim::HostId host, std::uint64_t hash);

  sim::Network& net_;
  overlay::OverlayNetwork& overlay_;
  Params params_;
  // Forwarder state: (host, topic) -> children.
  std::map<std::pair<sim::HostId, std::string>, std::vector<Child>> children_;
  // Nodes that have joined a tree, with the time their upward path was
  // last refreshed.
  std::map<std::pair<sim::HostId, std::string>, SimTime> in_tree_;
  std::map<sim::HostId, std::vector<ClientSub>> client_subs_;
  // Per-host recently-seen multicast payload hashes (cycle guard).
  std::map<sim::HostId, std::pair<std::set<std::uint64_t>, std::deque<std::uint64_t>>>
      recent_;
  std::set<sim::HostId> hosts_wired_;
  sim::TaskId refresh_task_ = sim::kInvalidTask;
  std::uint64_t next_sub_id_ = 1;
  std::uint64_t next_pub_seq_ = 1;
  ScribeStats stats_;

  static constexpr int kRefreshMisses = 3;
};

}  // namespace aa::baselines
