#include "overlay/overlay_network.hpp"

#include <algorithm>

namespace aa::overlay {

namespace {
constexpr int kMaxHops = 100;  // safety TTL against transient routing loops
// build_ring's virtual time between consecutive joins.
constexpr SimDuration kJoinGap = duration::millis(500);
}  // namespace

OverlayNetwork::OverlayNetwork(sim::Network& net, Params params)
    : net_(net), params_(params) {
  if (params_.reliable_maintenance) {
    transport_ = std::make_unique<sim::ReliableTransport>(
        net_, std::string(kOverlayProto) + ".r", params_.reliable);
  }
  if (params_.maintenance_period > 0) {
    maintenance_task_ =
        net_.scheduler().every(params_.maintenance_period, [this]() { maintenance_tick(); });
  }
}

OverlayNetwork::~OverlayNetwork() {
  if (maintenance_task_ != sim::kInvalidTask) net_.scheduler().cancel(maintenance_task_);
  for (const auto& [h, n] : nodes_) net_.unregister_handler(h, kOverlayProto);
}

void OverlayNetwork::seed(sim::HostId host, NodeId id) {
  auto node = std::make_unique<OverlayNode>(net_, NodeRef{id, host}, params_.proximity_selection);
  net_.register_handler(host, kOverlayProto,
                        [this, host](const sim::Packet& p) { on_message(host, p); });
  if (transport_ != nullptr) {
    transport_->register_handler(host,
                                 [this, host](const sim::Packet& p) { on_message(host, p); });
  }
  nodes_.emplace(host, std::move(node));
}

void OverlayNetwork::send_maintenance(sim::HostId src, sim::HostId dst, Body body,
                                      std::size_t wire_size) {
  if (transport_ != nullptr) {
    transport_->send(sim::Packet{src, dst, transport_->protocol(), std::move(body), wire_size});
  } else {
    net_.send(sim::Packet{src, dst, kOverlayProto, std::move(body), wire_size});
  }
}

void OverlayNetwork::join(sim::HostId host, NodeId id, sim::HostId bootstrap) {
  seed(host, id);  // create local state + handler, then run the protocol
  JoinRequest req;
  req.joiner = NodeRef{id, host};
  net_.send(host, bootstrap, kOverlayProto, std::move(req), ref_wire_size(1) + 8);
}

void OverlayNetwork::build_ring(const std::vector<sim::HostId>& hosts) {
  if (hosts.empty()) return;
  Rng rng(0xB007);
  seed(hosts[0], rng.uid());
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    const NodeId id = rng.uid();
    const sim::HostId host = hosts[i];
    const sim::HostId bootstrap = hosts[rng.below(i)];
    net_.scheduler().after(kJoinGap * static_cast<SimDuration>(i),
                           [this, host, id, bootstrap]() { join(host, id, bootstrap); });
  }
  net_.scheduler().run_for(kJoinGap * static_cast<SimDuration>(hosts.size()) +
                           duration::seconds(5));
}

void OverlayNetwork::register_app(const std::string& app, sim::HostId host, AppHandler handler) {
  apps_[app][host] = std::move(handler);
}

void OverlayNetwork::route(sim::HostId from, const ObjectId& key, const std::string& app,
                           Bytes payload) {
  auto it = nodes_.find(from);
  if (it == nodes_.end()) return;
  ++routed_;
  RouteMsg msg;
  msg.key = key;
  msg.app = app;
  msg.payload = std::move(payload);
  msg.origin = from;
  handle_route(*it->second, std::move(msg));
}

void OverlayNetwork::on_message(sim::HostId host, const sim::Packet& packet) {
  auto it = nodes_.find(host);
  if (it == nodes_.end()) return;
  OverlayNode& node = *it->second;

  if (const auto* route = sim::packet_body<RouteMsg>(packet)) {
    handle_route(node, *route);
  } else if (const auto* join_req = sim::packet_body<JoinRequest>(packet)) {
    sim::Network::SpanScope span(net_, host, "overlay", "join");
    handle_join_request(node, *join_req);
  } else if (const auto* reply = sim::packet_body<JoinReply>(packet)) {
    sim::Network::SpanScope span(net_, host, "overlay", "join-reply");
    for (const NodeRef& r : reply->contacts) node.consider(r);
    for (const NodeRef& r : reply->leaf) node.consider(r);
    node.consider(reply->root);
    // Announce ourselves to everything we just learned about, so their
    // tables and leaf sets incorporate us.
    for (const NodeRef& peer : node.known_peers()) {
      send_maintenance(node.host(), peer.host, AnnounceMsg{node.self()}, ref_wire_size(1));
    }
  } else if (const auto* ann = sim::packet_body<AnnounceMsg>(packet)) {
    sim::Network::SpanScope span(net_, host, "overlay", "announce");
    node.consider(ann->who);
  } else if (const auto* gossip = sim::packet_body<LeafGossip>(packet)) {
    sim::Network::SpanScope span(net_, host, "overlay", "gossip");
    node.consider(gossip->from);
    for (const NodeRef& r : *gossip->leaf) node.consider(r);
  }
}

void OverlayNetwork::register_intercept(const std::string& app, sim::HostId host,
                                        InterceptHandler handler) {
  intercepts_[app][host] = std::move(handler);
}

void OverlayNetwork::handle_route(OverlayNode& node, RouteMsg msg) {
  sim::Network::SpanScope span(net_, node.host(), "overlay", "route");
  if (msg.hops >= kMaxHops) {
    ++undeliverable_;
    span.annotate("undeliverable:max-hops");
    return;
  }
  // forward() upcall: give the local application a chance to consume
  // the message mid-route (promiscuous cache hits, §4.5).
  auto icp_app = intercepts_.find(msg.app);
  if (icp_app != intercepts_.end()) {
    auto icp = icp_app->second.find(node.host());
    if (icp != icp_app->second.end()) {
      RouteInfo info{msg.hops, msg.origin};
      if (icp->second(msg.key, msg.payload, info)) {
        route_hops_.record(static_cast<double>(msg.hops));
        if (span.active()) span.annotate("intercepted:" + msg.app);
        return;
      }
    }
  }
  const auto next = node.next_hop(msg.key);
  if (!next.has_value()) {
    // This node is the key's root: deliver to the application.
    route_hops_.record(static_cast<double>(msg.hops));
    auto app_it = apps_.find(msg.app);
    if (app_it != apps_.end()) {
      auto handler_it = app_it->second.find(node.host());
      if (handler_it != app_it->second.end()) {
        if (span.active()) {
          span.annotate("root:" + msg.app + ";hops=" + std::to_string(msg.hops));
        }
        handler_it->second(msg.key, msg.payload, RouteInfo{msg.hops, msg.origin});
        return;
      }
    }
    ++undeliverable_;
    span.annotate("undeliverable:no-app");
    return;
  }
  msg.hops += 1;
  if (span.active()) span.annotate("forward:h" + std::to_string(next->host));
  const std::size_t size = msg.payload.size() + 32;
  net_.send(node.host(), next->host, kOverlayProto, std::move(msg), size);
}

void OverlayNetwork::handle_join_request(OverlayNode& node, JoinRequest req) {
  // Contribute the routing-table row the joiner needs at this depth.
  const int shared = node.id().shared_prefix_digits(req.joiner.id);
  for (const NodeRef& r : node.row_contacts(shared)) {
    if (std::find(req.contacts.begin(), req.contacts.end(), r) == req.contacts.end()) {
      req.contacts.push_back(r);
    }
  }
  req.hops += 1;

  const auto next = node.next_hop(req.joiner.id);
  if (next.has_value() && !(next->id == req.joiner.id) && req.hops < kMaxHops) {
    net_.send(node.host(), next->host, kOverlayProto, std::move(req),
              ref_wire_size(req.contacts.size()) + 8);
    return;
  }
  // This node is the joiner's root: reply with everything it needs.
  JoinReply reply;
  reply.contacts = std::move(req.contacts);
  reply.leaf = node.leaf_set();
  reply.root = node.self();
  const std::size_t size = ref_wire_size(reply.contacts.size() + reply.leaf.size() + 1);
  net_.send(node.host(), req.joiner.host, kOverlayProto, std::move(reply), size);
  // The root learns about the joiner immediately (it will also hear the
  // announcement).
  node.consider(req.joiner);
}

void OverlayNetwork::maintenance_tick() {
  for (const auto& [host, node] : nodes_) {
    if (!net_.host_up(host)) continue;
    // Upkeep runs from a timer, outside any trace: the scope charges the
    // profiler's overlay bucket and records no span.
    sim::Network::SpanScope span(net_, host, "overlay", "maintain");
    // Purge before gossiping: a dead member models a failed keepalive
    // and is healed from the pool, and the gossip must not carry it, or
    // every receiver would consider() it straight back in.
    auto leaf = std::make_shared<std::vector<NodeRef>>(node->leaf_set());
    std::erase_if(*leaf, [&](const NodeRef& peer) {
      if (net_.host_up(peer.host)) return false;
      node->remove(peer.id);
      return true;
    });
    const std::shared_ptr<const std::vector<NodeRef>> snapshot = std::move(leaf);
    for (const NodeRef& peer : *snapshot) {
      send_maintenance(host, peer.host, LeafGossip{node->self(), snapshot},
                       ref_wire_size(snapshot->size() + 1));
    }
  }
}

OverlayNode* OverlayNetwork::node_at(sim::HostId host) {
  auto it = nodes_.find(host);
  return it == nodes_.end() ? nullptr : it->second.get();
}

const OverlayNode* OverlayNetwork::node_at(sim::HostId host) const {
  auto it = nodes_.find(host);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<sim::HostId> OverlayNetwork::node_hosts() const {
  std::vector<sim::HostId> out;
  out.reserve(nodes_.size());
  for (const auto& [h, n] : nodes_) out.push_back(h);
  return out;
}

NodeRef OverlayNetwork::true_root(const ObjectId& key) const {
  NodeRef best{};
  for (const auto& [host, node] : nodes_) {
    if (!net_.host_up(host)) continue;
    if (!best.valid() || node->id().closer_to(key, best.id)) best = node->self();
  }
  return best;
}

}  // namespace aa::overlay
