#include "baselines/scribe.hpp"

#include <deque>

#include "common/bytes.hpp"

namespace aa::baselines {

namespace {
constexpr const char* kScribeApp = "scribe";     // overlay-routed traffic
constexpr const char* kMulticastProto = "sc.mc"; // tree dissemination

enum class Tag : std::uint8_t { kJoin = 0, kPublish = 1 };

Bytes encode_join(const std::string& topic, sim::HostId child) {
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(Tag::kJoin));
  w.str(topic);
  w.u32(child);
  return std::move(w).take();
}

Bytes encode_publish(const std::string& topic, std::uint64_t seq,
                     const std::string& event_xml) {
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(Tag::kPublish));
  w.str(topic);
  w.u64(seq);
  w.str(event_xml);
  return std::move(w).take();
}

struct MulticastMsg {
  std::string topic;
  std::uint64_t seq = 0;  // publisher-unique: keys the cycle guard
  std::string event_xml;
};

}  // namespace

bool ScribeNetwork::dedup_insert(sim::HostId host, std::uint64_t hash) {
  auto& [seen, order] = recent_[host];
  if (seen.contains(hash)) return false;
  seen.insert(hash);
  order.push_back(hash);
  if (order.size() > 256) {
    seen.erase(order.front());
    order.pop_front();
  }
  return true;
}

ScribeNetwork::ScribeNetwork(sim::Network& net, overlay::OverlayNetwork& overlay,
                             Params params)
    : net_(net), overlay_(overlay), params_(params) {
  for (sim::HostId h : overlay_.node_hosts()) ensure_host(h);
  if (params_.refresh_period > 0) {
    refresh_task_ =
        net_.scheduler().every(params_.refresh_period, [this]() { refresh_tick(); });
  }
}

ScribeNetwork::~ScribeNetwork() {
  if (refresh_task_ != sim::kInvalidTask) net_.scheduler().cancel(refresh_task_);
  for (sim::HostId h : hosts_wired_) net_.unregister_handler(h, kMulticastProto);
}

void ScribeNetwork::ensure_host(sim::HostId host) {
  if (hosts_wired_.contains(host)) return;
  hosts_wired_.insert(host);
  net_.register_handler(host, kMulticastProto,
                        [this, host](const sim::Packet& p) { on_multicast(host, p); });
  overlay_.register_app(kScribeApp, host,
                        [this, host](const ObjectId& key, const Bytes& payload,
                                     const overlay::RouteInfo&) {
                          (void)key;
                          handle_routed(host, key, payload, /*at_root=*/true);
                        });
  overlay_.register_intercept(
      kScribeApp, host,
      [this, host](const ObjectId& key, const Bytes& payload, const overlay::RouteInfo&) {
        BufReader r(payload);
        if (static_cast<Tag>(r.u8()) != Tag::kJoin) return false;
        const std::string topic = r.str();
        const sim::HostId child = r.u32();
        if (r.failed() || child == host) return false;  // own outbound join
        handle_join_at(host, key, topic, child);
        return true;  // consumed: this node climbs on the child's behalf
      });
}

std::string ScribeNetwork::topic_of_type(const std::string& type) {
  return type.empty() ? std::string(kCatchAllTopic) : type;
}

ObjectId ScribeNetwork::rendezvous_key(const std::string& topic) {
  return Uid160::from_content("topic:" + topic);
}

std::string ScribeNetwork::topic_of_filter(const event::Filter& filter) {
  for (const auto& c : filter.constraints()) {
    if (c.atom == event::type_atom() && c.op == event::Op::kEq && c.value.is_string()) {
      return c.value.str();
    }
  }
  return kCatchAllTopic;
}

void ScribeNetwork::handle_join_at(sim::HostId host, const ObjectId& key,
                                   const std::string& topic, sim::HostId child) {
  const SimTime now = net_.scheduler().now();
  // Record/refresh the child.
  auto& kids = children_[{host, topic}];
  bool found = false;
  for (Child& c : kids) {
    if (c.host == child) {
      c.last_refresh = now;
      found = true;
      break;
    }
  }
  if (!found) kids.push_back(Child{child, false, now});

  // Climb toward the rendezvous unless this node's own upward path is
  // fresh.  Stale membership (e.g. after this host crashed and
  // returned) re-climbs so the tree heals.
  auto it = in_tree_.find({host, topic});
  const SimDuration freshness =
      params_.refresh_period > 0 ? params_.refresh_period * kRefreshMisses
                                 : duration::hours(24 * 365);
  if (it != in_tree_.end() && now - it->second < freshness) return;
  in_tree_[{host, topic}] = now;
  if (overlay_.true_root(key).host == host) return;  // we are the rendezvous
  ++stats_.joins_routed;
  overlay_.route(host, key, kScribeApp, encode_join(topic, host));
}

void ScribeNetwork::handle_routed(sim::HostId host, const ObjectId& key, const Bytes& payload,
                                  bool at_root) {
  (void)at_root;
  BufReader r(payload);
  const Tag tag = static_cast<Tag>(r.u8());
  const std::string topic = r.str();
  if (tag == Tag::kJoin) {
    const sim::HostId child = r.u32();
    if (r.failed()) return;
    if (child != host) {
      handle_join_at(host, key, topic, child);
    }
    in_tree_[{host, topic}] = net_.scheduler().now();  // the root is in its own tree
    return;
  }
  const std::uint64_t seq = r.u64();
  const std::string event_xml = r.str();
  if (r.failed()) return;
  // Rendezvous: disseminate down the tree and serve local subscribers.
  auto parsed = event::Event::parse(event_xml);
  if (parsed.is_ok()) deliver_local(host, topic, parsed.value());
  multicast(host, topic, seq, event_xml);
}

void ScribeNetwork::multicast(sim::HostId host, const std::string& topic, std::uint64_t seq,
                              const std::string& event_xml) {
  auto it = children_.find({host, topic});
  if (it == children_.end()) return;
  const SimTime now = net_.scheduler().now();
  const SimDuration stale_after =
      params_.refresh_period > 0 ? params_.refresh_period * kRefreshMisses : 0;
  std::erase_if(it->second, [&](const Child& c) {
    const bool dead = !net_.host_up(c.host);
    const bool stale = stale_after > 0 && now - c.last_refresh > stale_after;
    if (dead || stale) {
      ++stats_.pruned_children;
      return true;
    }
    return false;
  });
  for (const Child& c : it->second) {
    ++stats_.multicast_messages;
    net_.send(host, c.host, kMulticastProto, MulticastMsg{topic, seq, event_xml},
              event_xml.size() + topic.size() + 16);
  }
}

void ScribeNetwork::on_multicast(sim::HostId host, const sim::Packet& packet) {
  const auto* msg = sim::packet_body<MulticastMsg>(packet);
  if (msg == nullptr) return;
  // Cycle guard, keyed by the publisher-unique sequence number.
  if (!dedup_insert(host, fnv1a(msg->topic, msg->seq ^ 0x9E3779B97F4A7C15ULL))) return;
  auto parsed = event::Event::parse(msg->event_xml);
  if (parsed.is_ok()) deliver_local(host, msg->topic, parsed.value());
  multicast(host, msg->topic, msg->seq, msg->event_xml);
}

void ScribeNetwork::deliver_local(sim::HostId host, const std::string& topic,
                                  const event::Event& e) {
  auto it = client_subs_.find(host);
  if (it == client_subs_.end()) return;
  for (const ClientSub& sub : it->second) {
    if (sub.topic == topic && sub.filter.matches(e)) sub.deliver(e);
  }
}

void ScribeNetwork::send_join(sim::HostId client, const std::string& topic) {
  ++stats_.joins_routed;
  overlay_.route(client, rendezvous_key(topic), kScribeApp, encode_join(topic, client));
}

std::uint64_t ScribeNetwork::subscribe(sim::HostId client, const event::Filter& filter,
                                       Deliver deliver) {
  ensure_host(client);
  const std::uint64_t id = next_sub_id_++;
  const std::string topic = topic_of_filter(filter);
  client_subs_[client].push_back(ClientSub{id, topic, filter, std::move(deliver)});
  send_join(client, topic);
  return id;
}

void ScribeNetwork::unsubscribe(sim::HostId client, std::uint64_t subscription_id) {
  auto it = client_subs_.find(client);
  if (it == client_subs_.end()) return;
  std::erase_if(it->second,
                [&](const ClientSub& s) { return s.id == subscription_id; });
  // Tree membership is soft state: without further refreshes the path
  // decays out of parents' child lists.
}

bool ScribeNetwork::catch_all_active() const {
  for (const auto& [host, subs] : client_subs_) {
    for (const ClientSub& s : subs) {
      if (s.topic == kCatchAllTopic) return true;
    }
  }
  return false;
}

void ScribeNetwork::publish(sim::HostId client, const event::Event& e) {
  ensure_host(client);
  const std::string xml_text = e.to_xml_string();
  const std::string topic = topic_of_type(e.type());
  ++stats_.publishes_routed;
  overlay_.route(client, rendezvous_key(topic), kScribeApp,
                 encode_publish(topic, next_pub_seq_, xml_text));
  ++next_pub_seq_;
  if (topic != kCatchAllTopic && catch_all_active()) {
    ++stats_.publishes_routed;
    overlay_.route(client, rendezvous_key(kCatchAllTopic), kScribeApp,
                   encode_publish(kCatchAllTopic, next_pub_seq_, xml_text));
    ++next_pub_seq_;
  }
}

void ScribeNetwork::refresh_tick() {
  for (const auto& [client, subs] : client_subs_) {
    if (!net_.host_up(client)) continue;
    std::set<std::string> topics;
    for (const ClientSub& s : subs) topics.insert(s.topic);
    for (const std::string& topic : topics) send_join(client, topic);
  }
}

std::size_t ScribeNetwork::children_at(sim::HostId host, const std::string& topic) const {
  auto it = children_.find({host, topic});
  return it == children_.end() ? 0 : it->second.size();
}

}  // namespace aa::baselines
