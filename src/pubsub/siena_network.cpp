#include "pubsub/siena_network.hpp"

#include <algorithm>
#include <iterator>
#include <map>

namespace aa::pubsub {

namespace {
constexpr std::size_t kTreeFanout = 2;
}  // namespace

SienaNetwork::SienaNetwork(sim::Network& net, std::vector<sim::HostId> broker_hosts,
                           wire::WireCodec codec)
    : net_(net),
      broker_hosts_(std::move(broker_hosts)),
      codec_(wire::codec(codec)),
      stalled_(net.host_count()) {
  for (sim::HostId h : broker_hosts_) {
    auto broker = std::make_unique<Broker>(net_, h, codec_);
    Broker* raw = broker.get();
    net_.register_handler(h, kBrokerProto,
                          [raw](const sim::Packet& p) { raw->on_message(p); });
    brokers_.emplace(h, std::move(broker));
  }
}

SienaNetwork::~SienaNetwork() {
  if (watcher_id_ != 0) net_.remove_host_watcher(watcher_id_);
  for (const auto& [h, broker] : brokers_) {
    net_.unregister_handler(h, kBrokerProto);
  }
  for (const auto& [h, state] : clients_) {
    net_.unregister_handler(h, kClientProto);
  }
}

Status SienaNetwork::connect(sim::HostId broker_a, sim::HostId broker_b) {
  Broker* a = broker(broker_a);
  Broker* b = broker(broker_b);
  if (a == nullptr || b == nullptr) {
    return Status(Code::kInvalidArgument, "not a broker host");
  }
  // Brokers do not replay their tables to a new neighbour, so a link
  // added after routing state exists would carry none of it.
  if (routing_started()) {
    return Status(Code::kFailedPrecondition,
                  "brokers must be linked before the first subscription or advertisement");
  }
  // Cycle check: is broker_b already reachable from broker_a?
  std::vector<sim::HostId> stack{broker_a};
  std::map<sim::HostId, bool> seen{{broker_a, true}};
  while (!stack.empty()) {
    const sim::HostId cur = stack.back();
    stack.pop_back();
    if (cur == broker_b) {
      return Status(Code::kFailedPrecondition, "link would create an overlay cycle");
    }
    for (sim::HostId n : brokers_.at(cur)->neighbours()) {
      if (!seen[n]) {
        seen[n] = true;
        stack.push_back(n);
      }
    }
  }
  a->add_neighbour(broker_b);
  b->add_neighbour(broker_a);
  return Status::ok();
}

Status SienaNetwork::connect_tree() {
  for (std::size_t i = 1; i < broker_hosts_.size(); ++i) {
    Status s = connect(broker_hosts_[(i - 1) / kTreeFanout], broker_hosts_[i]);
    if (!s.is_ok()) return s;
  }
  return Status::ok();
}

void SienaNetwork::attach_client(sim::HostId client_host, sim::HostId broker_host) {
  ClientState& state = clients_[client_host];
  const sim::HostId previous = state.access_broker;
  state.access_broker = broker_host;
  net_.register_handler(client_host, kClientProto, [this, client_host](const sim::Packet& p) {
    on_client_message(client_host, p);
  });
  if (previous == sim::kNoHost || previous == broker_host) return;
  // The client moved: its live subscriptions are still routed at the old
  // access broker.  Tear them down there and re-issue them at the new
  // one, or events keep flowing to a broker the client no longer reads.
  // They travel under fresh ids, so no broker sees one id arrive from
  // two directions: a re-forward of the old id racing along the old path
  // (its covering sibling withdrawn first) cannot overwrite the new entry.
  for (auto& [id, sub] : state.subs) {
    net_.send(client_host, previous, kBrokerProto, UnsubscribeMsg{sub.wire_id},
              codec_.size(UnsubscribeMsg{sub.wire_id}));
    sub.wire_id = next_sub_id_++;
    SubscribeMsg msg{sub.wire_id, sub.filter};
    const std::size_t size = codec_.size(msg);
    net_.send(client_host, broker_host, kBrokerProto, std::move(msg), size);
  }
}

void SienaNetwork::attach_client_nearest(sim::HostId client_host) {
  sim::HostId best = broker_hosts_.front();
  SimDuration best_latency = net_.topology().latency(client_host, best);
  for (sim::HostId b : broker_hosts_) {
    const SimDuration l = net_.topology().latency(client_host, b);
    if (l < best_latency) {
      best = b;
      best_latency = l;
    }
  }
  attach_client(client_host, best);
}

SienaNetwork::ClientState& SienaNetwork::client_state(sim::HostId client_host) {
  auto it = clients_.find(client_host);
  if (it == clients_.end() || it->second.access_broker == sim::kNoHost) {
    // Auto-attach to the nearest broker rather than failing: mirrors a
    // real client library's lazy connect.
    attach_client_nearest(client_host);
    it = clients_.find(client_host);
  }
  return it->second;
}

std::uint64_t SienaNetwork::subscribe(sim::HostId client, const event::Filter& filter,
                                      Deliver deliver) {
  ClientState& state = client_state(client);
  const std::uint64_t id = next_sub_id_++;
  state.subs.emplace(id, ClientSub{filter, std::move(deliver), id});
  state.index.add(id, filter);
  SubscribeMsg msg{id, filter};
  const std::size_t size = codec_.size(msg);
  net_.send(client, state.access_broker, kBrokerProto, std::move(msg), size);
  return id;
}

void SienaNetwork::unsubscribe(sim::HostId client, std::uint64_t subscription_id) {
  ClientState& state = client_state(client);
  std::uint64_t wire_id = subscription_id;
  if (const auto it = state.subs.find(subscription_id); it != state.subs.end()) {
    wire_id = it->second.wire_id;
    state.subs.erase(it);
  }
  state.index.remove(subscription_id);
  net_.send(client, state.access_broker, kBrokerProto, UnsubscribeMsg{wire_id},
            codec_.size(UnsubscribeMsg{wire_id}));
}

void SienaNetwork::publish(sim::HostId client, const event::Event& e) {
  ClientState& state = client_state(client);
  // A client hand-off to its access broker roots a causal trace unless
  // the publish is already part of one (e.g. a pipeline re-publish).
  sim::Network::TraceScope root(
      net_, net_.current_trace().active() ? net_.current_trace() : net_.start_trace());
  sim::Network::SpanScope span(net_, client, "client", "publish");
  if (span.active()) span.annotate("type=" + e.type());
  // Producer-stamped id: unique across this event service for the whole
  // run, so brokers can discard a publication a crash/fault overlap
  // re-injected (see PublishMsg::pub_id).
  PublishMsg pub{e, ++next_pub_id_};
  const std::size_t size = codec_.size(pub);
  net_.send(client, state.access_broker, kBrokerProto, std::move(pub), size);
}

Status SienaNetwork::set_advertisement_forwarding(bool on) {
  if (routing_started()) {
    return Status(Code::kFailedPrecondition,
                  "the advertisement mode must be set before the first subscription or "
                  "advertisement");
  }
  for (const auto& [h, broker] : brokers_) broker->set_advertisement_forwarding(on);
  return Status::ok();
}

void SienaNetwork::enable_reliable_transport(const sim::ReliableParams& params) {
  if (transport_ != nullptr) return;
  transport_ =
      std::make_unique<sim::ReliableTransport>(net_, std::string(kBrokerProto) + ".r", params);
  for (const auto& [h, broker] : brokers_) {
    Broker* raw = broker.get();
    transport_->register_handler(h, [raw](const sim::Packet& p) { raw->on_message(p); });
    raw->set_transport(transport_.get());
  }
  // Checkpoints may already be enabled (call order is free): parking of
  // gave-up traffic for recovering brokers must hook in either way.
  if (disk_ != nullptr) {
    transport_->set_give_up([this](const sim::Packet& p) { on_transport_give_up(p); });
  }
}

void SienaNetwork::enable_broker_checkpoints(sim::DurableDisk& disk) {
  disk_ = &disk;
  for (const auto& [h, broker] : brokers_) broker->enable_checkpoints(disk);
  if (transport_ != nullptr) {
    transport_->set_give_up([this](const sim::Packet& p) { on_transport_give_up(p); });
  }
  if (watcher_id_ == 0) {
    watcher_id_ = net_.add_host_watcher([this](sim::HostId host, bool up) {
      if (up) flush_stalled(host);
    });
  }
}

void SienaNetwork::attach_churn(sim::ChurnInjector& churn) {
  for (const auto& [h, broker] : brokers_) {
    Broker* raw = broker.get();
    churn.add_recovery_hook(h, [raw](sim::HostId) { raw->recover(); });
  }
}

void SienaNetwork::on_transport_give_up(const sim::Packet& packet) {
  // Only park traffic for brokers that will recover on rejoin; anything
  // else gave up for good (e.g. a permanently cut-off peer).  Parked
  // under the *source* host, the one whose retransmit timer fired.
  if (!brokers_.contains(packet.dst) || packet.src >= stalled_.size()) return;
  // Under link faults the give-up can trail the peer's rejoin (the
  // retries that would have discovered the new incarnation were
  // dropped).  The host-up flush already ran, so parking now would
  // strand the packet: re-send it directly instead.  Broker-level
  // duplicate suppression (PublishMsg::pub_id) keeps the re-send safe
  // even when the old incarnation had already processed it.
  if (net_.host_up(packet.dst)) {
    net_.scheduler().after(0, [this, packet]() {
      if (transport_ != nullptr) transport_->send(packet);
    });
    return;
  }
  stalled_[packet.src].push_back(packet);
}

void SienaNetwork::flush_stalled(sim::HostId host) {
  // Collects the traffic parked for `host`, source by source.
  std::vector<sim::Packet> packets;
  for (std::vector<sim::Packet>& parked : stalled_) {
    auto split = std::stable_partition(
        parked.begin(), parked.end(),
        [host](const sim::Packet& p) { return p.dst != host; });
    packets.insert(packets.end(), std::make_move_iterator(split),
                   std::make_move_iterator(parked.end()));
    parked.erase(split, parked.end());
  }
  if (packets.empty()) return;
  // Defer past the synchronous rejoin machinery (recovery hooks run
  // inside set_host_up's watcher cascade), so the re-sent packets meet
  // a broker that has already restored its routing state.
  net_.scheduler().after(0, [this, packets = std::move(packets)]() {
    if (transport_ == nullptr) return;
    for (const sim::Packet& p : packets) transport_->send(p);
  });
}

std::size_t SienaNetwork::stalled_packets() const {
  std::size_t total = 0;
  for (const auto& packets : stalled_) total += packets.size();
  return total;
}

void SienaNetwork::advertise(sim::HostId client, const event::Filter& filter) {
  const std::uint64_t id = next_adv_id_++;
  advertisements_.push_back(
      event::Advertisement{id, "host-" + std::to_string(client), filter});
  ClientState& state = client_state(client);
  AdvertiseMsg msg{id, filter};
  const std::size_t size = codec_.size(msg);
  net_.send(client, state.access_broker, kBrokerProto, std::move(msg), size);
}

Status SienaNetwork::re_advertise(sim::HostId client, std::uint64_t id,
                                  const event::Filter& filter) {
  const auto adv = std::find_if(advertisements_.begin(), advertisements_.end(),
                                [id](const event::Advertisement& a) { return a.id == id; });
  // Flooding an unknown id would install a phantom advertisement at
  // every broker, under an id advertise() may mint later.
  if (adv == advertisements_.end()) return Status(Code::kNotFound, "unknown advertisement id");
  adv->filter = filter;
  ClientState& state = client_state(client);
  AdvertiseMsg msg{id, filter};
  const std::size_t size = codec_.size(msg);
  net_.send(client, state.access_broker, kBrokerProto, std::move(msg), size);
  return Status::ok();
}

void SienaNetwork::on_client_message(sim::HostId client_host, const sim::Packet& packet) {
  const auto* msg = sim::packet_body<DeliverMsg>(packet);
  if (msg == nullptr) return;
  auto it = clients_.find(client_host);
  if (it == clients_.end()) return;
  sim::Network::SpanScope span(net_, client_host, "client", "deliver");
  // When traced, callbacks get a copy stamped with the trace metadata so
  // application code can correlate; the wire form is never stamped.
  const event::Event* ev = &msg->event;
  event::Event stamped;
  if (span.active()) {
    stamped = msg->event;
    stamped.set_trace(net_.current_trace().trace_id, span.id());
    ev = &stamped;
  }
  // One network delivery per client; dispatch locally to each matching
  // subscription's callback, in subscription-id order.  A callback may
  // subscribe or unsubscribe: the ids are fixed before the first call,
  // and each is looked up again before its own.  Callbacks cannot
  // re-enter this function (every send is posted through the
  // scheduler), so the scratch vector is not overwritten mid-loop.
  std::size_t dispatched = 0;
  dispatch_ids_.clear();
  it->second.index.match(msg->event, dispatch_ids_);
  std::sort(dispatch_ids_.begin(), dispatch_ids_.end());
  for (std::uint64_t id : dispatch_ids_) {
    auto sub = it->second.subs.find(id);
    if (sub != it->second.subs.end()) {
      sub->second.deliver(*ev);
      ++dispatched;
    }
  }
  if (span.active()) span.annotate("subs=" + std::to_string(dispatched));
}

Broker* SienaNetwork::broker(sim::HostId host) {
  auto it = brokers_.find(host);
  return it == brokers_.end() ? nullptr : it->second.get();
}

BrokerStats SienaNetwork::total_broker_stats() const {
  BrokerStats total;
  for (const auto& [h, b] : brokers_) total += b->stats();
  return total;
}

std::size_t SienaNetwork::total_transit_entries() const {
  std::size_t total = 0;
  for (const auto& [h, b] : brokers_) total += b->transit_entries();
  return total;
}

std::size_t SienaNetwork::max_table_entries() const {
  std::size_t max_entries = 0;
  for (const auto& [h, b] : brokers_) max_entries = std::max(max_entries, b->table_size());
  return max_entries;
}

}  // namespace aa::pubsub
