// The overlay substrate: node lifecycle (message-driven join), key-based
// routing with application upcalls, and periodic leaf-set maintenance.
//
// This is the "Plaxton based storage architecture" substrate of §4.5/§5;
// src/storage builds the replicated object store on top of the route()
// and replica_set() primitives exposed here.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "overlay/node.hpp"
#include "sim/metrics.hpp"
#include "sim/reliable.hpp"

namespace aa::overlay {

/// Delivery context passed to application handlers at the key's root.
struct RouteInfo {
  int hops = 0;
  sim::HostId origin = sim::kNoHost;
};

class OverlayNetwork {
 public:
  struct Params {
    bool proximity_selection = true;
    /// Leaf-set gossip period; 0 disables maintenance.
    SimDuration maintenance_period = duration::seconds(30);
    /// Routes routing-table maintenance traffic (leaf-set gossip and
    /// join announcements) through an ack/retry reliable transport
    /// (protocol "ov.r"), so table repair converges even on lossy or
    /// temporarily partitioned links.  Routed application messages stay
    /// raw.  Off by default.
    bool reliable_maintenance = false;
    sim::ReliableParams reliable;
  };

  OverlayNetwork(sim::Network& net, Params params);
  explicit OverlayNetwork(sim::Network& net) : OverlayNetwork(net, Params{}) {}
  ~OverlayNetwork();

  OverlayNetwork(const OverlayNetwork&) = delete;
  OverlayNetwork& operator=(const OverlayNetwork&) = delete;

  /// Creates the first node of a fresh ring on `host`.
  void seed(sim::HostId host, NodeId id);

  /// Starts a message-driven join of a new node via `bootstrap`.  The
  /// join completes asynchronously (run the scheduler).
  void join(sim::HostId host, NodeId id, sim::HostId bootstrap);

  /// Convenience: seed on hosts[0], then join the rest sequentially,
  /// 500 ms of virtual time apart; runs the scheduler forward.
  void build_ring(const std::vector<sim::HostId>& hosts);

  /// Application upcall registered per (app, host): invoked when a
  /// routed message reaches the key's root node at that host.
  using AppHandler = std::function<void(const ObjectId& key, const Bytes& payload,
                                        const RouteInfo& info)>;
  void register_app(const std::string& app, sim::HostId host, AppHandler handler);

  /// Pastry-style forward() upcall: invoked at *every* node a routed
  /// message visits (including the root, before delivery).  Returning
  /// true consumes the message — the basis of promiscuous-cache hits,
  /// where an intermediate node holding a copy answers a get() without
  /// the message ever reaching the root (§4.5).
  using InterceptHandler =
      std::function<bool(const ObjectId& key, const Bytes& payload, const RouteInfo& info)>;
  void register_intercept(const std::string& app, sim::HostId host, InterceptHandler handler);

  /// Routes a message from `from` toward the root of `key`.
  void route(sim::HostId from, const ObjectId& key, const std::string& app, Bytes payload);

  OverlayNode* node_at(sim::HostId host);
  const OverlayNode* node_at(sim::HostId host) const;
  std::vector<sim::HostId> node_hosts() const;

  /// Ground truth (oracle, used by tests and experiment verification):
  /// the live node numerically closest to `key`.
  NodeRef true_root(const ObjectId& key) const;

  sim::Histogram& route_hops() { return route_hops_; }
  std::uint64_t routed_messages() const { return routed_; }
  std::uint64_t undeliverable() const { return undeliverable_; }

  /// Total latency a routed message accrued is observable by comparing
  /// scheduler timestamps at send and upcall; benches do exactly that.
  sim::Network& network() { return net_; }

 private:
  void on_message(sim::HostId host, const sim::Packet& packet);
  void handle_route(OverlayNode& node, RouteMsg msg);
  void handle_join_request(OverlayNode& node, JoinRequest req);
  void maintenance_tick();
  /// Maintenance-plane send: reliable transport when enabled, raw
  /// kOverlayProto datagram otherwise.
  void send_maintenance(sim::HostId src, sim::HostId dst, Body body, std::size_t wire_size);

  sim::Network& net_;
  Params params_;
  std::unique_ptr<sim::ReliableTransport> transport_;
  std::map<sim::HostId, std::unique_ptr<OverlayNode>> nodes_;
  std::map<std::string, std::map<sim::HostId, AppHandler>> apps_;
  std::map<std::string, std::map<sim::HostId, InterceptHandler>> intercepts_;
  sim::TaskId maintenance_task_ = sim::kInvalidTask;
  sim::Histogram route_hops_;
  std::uint64_t routed_ = 0;
  std::uint64_t undeliverable_ = 0;
};

}  // namespace aa::overlay
