#include "pubsub/broker.hpp"

#include <algorithm>

#include "sim/reliable.hpp"

namespace aa::pubsub {

namespace {
constexpr const char* kCkptBase = "broker.ckpt";
// Recovery sync retry schedule: the first reply timeout per peer
// doubles per retry (a just-crashed or partitioned peer answers late or
// never), and a peer still silent after six attempts is given up on.
constexpr SimDuration kSyncTimeout = duration::millis(300);
constexpr double kSyncBackoff = 2.0;
constexpr int kSyncMaxAttempts = 6;
}  // namespace

BrokerStats& BrokerStats::operator+=(const BrokerStats& o) {
  publications_routed += o.publications_routed;
  deliveries += o.deliveries;
  subscriptions_forwarded += o.subscriptions_forwarded;
  subscriptions_suppressed += o.subscriptions_suppressed;
  index_probes += o.index_probes;
  checkpoints += o.checkpoints;
  checkpoint_bytes += o.checkpoint_bytes;
  recoveries += o.recoveries;
  recovered_entries += o.recovered_entries;
  sync_requests += o.sync_requests;
  sync_replies += o.sync_replies;
  sync_retries += o.sync_retries;
  sync_give_ups += o.sync_give_ups;
  duplicate_publishes_discarded += o.duplicate_publishes_discarded;
  return *this;
}

Broker::Broker(sim::Network& net, sim::HostId host, const wire::Codec& codec)
    : net_(net), host_(host), codec_(codec) {}

void Broker::add_neighbour(sim::HostId broker_host) { neighbours_.insert(broker_host); }

void Broker::remove_neighbour(sim::HostId broker_host) {
  neighbours_.erase(broker_host);
  forwarded_.erase(broker_host);
  std::erase_if(adverts_, [&](const auto& entry) {
    return entry.second.source.kind == Iface::Kind::kBroker &&
           entry.second.source.host == broker_host;
  });
  // Routing state learned over the severed link is no longer reachable:
  // erase all of it first, so no severed entry is re-forwarded while
  // another is withdrawn, then withdraw each as an unsubscribe would.
  const Iface severed{Iface::Kind::kBroker, broker_host};
  std::vector<std::pair<std::uint64_t, event::Filter>> gone;
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->second.source != severed) {
      ++it;
      continue;
    }
    index_.remove(it->first);
    gone.emplace_back(it->first, std::move(it->second.filter));
    it = table_.erase(it);
  }
  for (const auto& [id, filter] : gone) withdraw(id, filter);
  checkpoint();
}

void Broker::on_message(const sim::Packet& packet) {
  const bool from_broker = neighbours_.contains(packet.src);
  const Iface source{from_broker ? Iface::Kind::kBroker : Iface::Kind::kClient, packet.src};

  // Subscription handling (the covering checks included) is routing
  // work: the profiler charges it to broker_route, as route_publish's.
  if (const auto* sub = sim::packet_body<SubscribeMsg>(packet)) {
    sim::Network::SpanScope span(net_, host_, "broker", "subscribe");
    handle_subscribe(sub->id, sub->filter, source);
  } else if (const auto* unsub = sim::packet_body<UnsubscribeMsg>(packet)) {
    sim::Network::SpanScope span(net_, host_, "broker", "unsubscribe");
    handle_unsubscribe(unsub->id, source);
  } else if (const auto* adv = sim::packet_body<AdvertiseMsg>(packet)) {
    sim::Network::SpanScope span(net_, host_, "broker", "advertise");
    handle_advertise(adv->id, adv->filter, source);
  } else if (const auto* pub = sim::packet_body<PublishMsg>(packet)) {
    route_publish(pub->event,
                  from_broker ? std::optional<sim::HostId>(packet.src) : std::nullopt,
                  pub->pub_id);
  } else if (const auto* sync_req = sim::packet_body<SyncRequestMsg>(packet)) {
    if (from_broker) handle_sync_request(packet.src, sync_req->round);
  } else if (const auto* sync_rep = sim::packet_body<SyncReplyMsg>(packet)) {
    if (from_broker) handle_sync_reply(packet.src, *sync_rep);
  }
}

bool Broker::covered_at(sim::HostId neighbour, const event::Filter& filter,
                        std::uint64_t ignore_id) const {
  const auto fwd = forwarded_.find(neighbour);
  if (fwd == forwarded_.end()) return false;
  // index_ mirrors table_, and its probe yields every entry that may
  // cover `filter`.
  return index_.covering_candidates(filter, [&](std::uint64_t id) {
    return id != ignore_id && fwd->second.contains(id) && table_.at(id).filter.covers(filter);
  });
}

void Broker::reforward_covered(sim::HostId neighbour, const event::Filter& departed) {
  // By the forwarding invariant (broker.hpp), an entry can have lost its
  // last coverer toward `neighbour` only if `departed` covered it.
  std::vector<std::uint64_t> ids;
  index_.covered_candidates(departed, ids);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::set<std::uint64_t>& fwd = forwarded_[neighbour];

  // Re-forward in one batch: first collect every entry now uncovered in
  // this direction, then forward only the covering-maximal candidates —
  // a candidate covered by a sibling rides along under the sibling and
  // stays suppressed, exactly as if the sibling had arrived first.
  std::vector<std::pair<std::uint64_t, const Entry*>> candidates;
  for (std::uint64_t tid : ids) {
    const Entry& entry = table_.at(tid);
    if (entry.source.kind == Iface::Kind::kBroker && entry.source.host == neighbour) continue;
    if (fwd.contains(tid)) continue;
    if (!departed.covers(entry.filter)) continue;
    if (!advert_allows(neighbour, entry.filter)) continue;
    if (covered_at(neighbour, entry.filter, tid)) continue;
    candidates.emplace_back(tid, &entry);
  }
  for (const auto& [tid, entry] : candidates) {
    bool suppressed = false;
    for (const auto& [oid, other] : candidates) {
      if (oid == tid || !other->filter.covers(entry->filter)) continue;
      // Mutually covering candidates: the lowest id represents the set.
      if (entry->filter.covers(other->filter) && tid < oid) continue;
      suppressed = true;
      break;
    }
    if (suppressed) {
      ++stats_.subscriptions_suppressed;
      continue;
    }
    fwd.insert(tid);
    send_subscribe(neighbour, tid, entry->filter);
  }
}

void Broker::send_broker(sim::HostId neighbour, std::any body, std::size_t wire_size) {
  if (transport_ != nullptr) {
    transport_->send(sim::Packet{host_, neighbour, transport_->protocol(), std::move(body),
                                 wire_size});
  } else {
    net_.send(sim::Packet{host_, neighbour, kBrokerProto, std::move(body), wire_size});
  }
}

void Broker::send_subscribe(sim::HostId neighbour, std::uint64_t id,
                            const event::Filter& filter) {
  SubscribeMsg msg{id, filter};
  const std::size_t size = codec_.size(msg);
  send_broker(neighbour, std::any(std::move(msg)), size);
  ++stats_.subscriptions_forwarded;
}

bool Broker::advert_allows(sim::HostId neighbour, const event::Filter& filter) const {
  if (!advertisement_forwarding_) return true;
  for (const auto& [id, adv] : adverts_) {
    if (adv.source.kind == Iface::Kind::kBroker && adv.source.host == neighbour &&
        adv.filter.overlaps(filter)) {
      return true;
    }
  }
  return false;
}

void Broker::handle_subscribe(std::uint64_t id, const event::Filter& filter, Iface source) {
  const auto existing = table_.find(id);
  // A known id can re-arrive with a different filter: a recovery sync
  // re-installs a peer's current entries, and a client may re-send an
  // id with a new filter.  The fresh filter replaces the stale one
  // everywhere (table, index, and any forwarding derived from it).
  const bool changed = existing == table_.end() || !(existing->second.filter == filter);
  // The filter a changed re-subscribe replaces, which may have been
  // covering entries held back toward the neighbours it was forwarded to.
  std::optional<event::Filter> replaced;
  if (changed && existing != table_.end()) replaced = std::move(existing->second.filter);
  table_[id] = Entry{filter, source};
  if (changed) index_.add(id, filter);  // add() replaces a re-added id
  for (sim::HostId n : neighbours_) {
    if (source.kind == Iface::Kind::kBroker && source.host == n) continue;
    if (forwarded_[n].contains(id)) {
      // Idempotent re-subscribe; a *changed* filter re-sends so the
      // neighbour routes on the fresh one, and releases what only the
      // old one covered.
      if (changed) {
        send_subscribe(n, id, filter);
        if (replaced) reforward_covered(n, *replaced);
      }
      continue;
    }
    if (!advert_allows(n, filter)) {
      ++stats_.subscriptions_suppressed;
      continue;
    }
    if (covered_at(n, filter, id)) {
      ++stats_.subscriptions_suppressed;
      continue;
    }
    forwarded_[n].insert(id);
    send_subscribe(n, id, filter);
  }
  checkpoint();
}

void Broker::handle_advertise(std::uint64_t id, const event::Filter& filter, Iface source) {
  const auto known = adverts_.find(id);
  // A re-advertisement with an unchanged filter is an idempotent
  // refresh; a *changed* filter (e.g. a publisher widening its event
  // class) must be re-flooded and re-evaluated, otherwise downstream
  // brokers keep routing on the stale filter and the widening is lost.
  if (known != adverts_.end() && known->second.filter == filter) {
    known->second.source = source;
    return;
  }
  adverts_[id] = Entry{filter, source};
  // Flood the advertisement away from its source.
  for (sim::HostId n : neighbours_) {
    if (source.kind == Iface::Kind::kBroker && source.host == n) continue;
    send_broker(n, std::any(AdvertiseMsg{id, filter}),
                codec_.size(AdvertiseMsg{id, filter}));
  }
  if (!advertisement_forwarding_) {
    checkpoint();
    return;
  }
  // A new advertisement may unlock pending subscriptions toward its
  // source: re-evaluate everything not yet forwarded that direction.
  if (source.kind != Iface::Kind::kBroker) return;
  const sim::HostId n = source.host;
  for (const auto& [sid, entry] : table_) {
    if (entry.source.kind == Iface::Kind::kBroker && entry.source.host == n) continue;
    if (forwarded_[n].contains(sid)) continue;
    if (!filter.overlaps(entry.filter)) continue;
    if (covered_at(n, entry.filter, sid)) continue;
    forwarded_[n].insert(sid);
    send_subscribe(n, sid, entry.filter);
  }
  checkpoint();
}

void Broker::handle_unsubscribe(std::uint64_t id, Iface source) {
  auto it = table_.find(id);
  if (it == table_.end()) return;
  // Only the interface that installed an entry may remove it: an
  // unsubscribe from elsewhere names an id this broker learned another
  // way.
  if (it->second.source != source) return;
  const event::Filter filter = std::move(it->second.filter);
  table_.erase(it);
  index_.remove(id);
  withdraw(id, filter);
  checkpoint();
}

void Broker::withdraw(std::uint64_t id, const event::Filter& filter) {
  for (sim::HostId n : neighbours_) {
    auto fwd = forwarded_.find(n);
    if (fwd == forwarded_.end() || fwd->second.erase(id) == 0) continue;
    send_broker(n, std::any(UnsubscribeMsg{id}),
                codec_.size(UnsubscribeMsg{id}));
    reforward_covered(n, filter);
  }
}

std::size_t Broker::transit_entries() const {
  std::size_t n = 0;
  for (const auto& [id, entry] : table_) {
    if (entry.source.kind == Iface::Kind::kBroker) ++n;
  }
  return n;
}

void Broker::route_publish(const event::Event& e, std::optional<sim::HostId> arrival_broker,
                           std::uint64_t pub_id) {
  // End-to-end duplicate suppression: the transport dedups retransmits
  // within a peer incarnation, but a publication this broker processed
  // whose ack was lost right before the peer crashed comes back via the
  // parked-packet flush after recovery.
  if (pub_id != 0 && !seen_publishes_.insert(pub_id).second) {
    ++stats_.duplicate_publishes_discarded;
    return;
  }
  ++stats_.publications_routed;
  sim::Network::SpanScope route_span(net_, host_, "broker", "route");
  {
    sim::Network::SpanScope match_span(net_, host_, "broker", "match");
    matched_.clear();
    forward_to_.clear();
    deliver_to_.clear();
    stats_.index_probes += index_.match(e, matched_);
    for (std::uint64_t id : matched_) {
      auto it = table_.find(id);
      if (it == table_.end()) continue;
      const Iface& source = it->second.source;
      if (source.kind == Iface::Kind::kClient) {
        deliver_to_.push_back(source.host);
      } else if (!arrival_broker || source.host != *arrival_broker) {
        forward_to_.push_back(source.host);
      }
    }
    // Each destination once, in ascending host order.
    for (std::vector<sim::HostId>* hosts : {&forward_to_, &deliver_to_}) {
      std::sort(hosts->begin(), hosts->end());
      hosts->erase(std::unique(hosts->begin(), hosts->end()), hosts->end());
    }
    if (match_span.active()) {
      match_span.annotate("type=" + e.type() + ";fwd=" + std::to_string(forward_to_.size()) +
                          ";local=" + std::to_string(deliver_to_.size()));
    }
  }
  // Every send is posted through the scheduler, so nothing below
  // re-enters route_publish while the scratch vectors are iterated.
  for (sim::HostId n : forward_to_) {
    send_broker(n, std::any(PublishMsg{e, pub_id}),
                codec_.size(PublishMsg{e, pub_id}));
  }
  for (sim::HostId c : deliver_to_) {
    net_.send(host_, c, kClientProto, DeliverMsg{e}, codec_.size(DeliverMsg{e}));
    ++stats_.deliveries;
  }
}

// --- Crash durability ----------------------------------------------------

void Broker::enable_checkpoints(sim::DurableDisk& disk) {
  disk_ = &disk;
  checkpoint();  // persist whatever routing state already exists
}

void Broker::checkpoint() {
  if (disk_ == nullptr) return;
  Bytes payload = serialize_routing_state();
  ++stats_.checkpoints;
  stats_.checkpoint_bytes += payload.size() + 24;  // + ping-pong frame
  sim::checkpoint_write(*disk_, host_, kCkptBase, ++ckpt_seq_, std::move(payload));
}

Bytes Broker::serialize_routing_state() const {
  BufWriter w;
  auto write_entry_map = [&w](const std::map<std::uint64_t, Entry>& entries) {
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& [id, entry] : entries) {
      w.u64(id);
      w.u8(entry.source.kind == Iface::Kind::kBroker ? 0 : 1);
      w.u32(entry.source.host);
      event::write_filter(w, entry.filter);
    }
  };
  write_entry_map(table_);
  write_entry_map(adverts_);
  w.u32(static_cast<std::uint32_t>(forwarded_.size()));
  for (const auto& [host, ids] : forwarded_) {
    w.u32(host);
    w.u32(static_cast<std::uint32_t>(ids.size()));
    for (std::uint64_t id : ids) w.u64(id);
  }
  return std::move(w).take();
}

void Broker::restore_routing_state(const Bytes& payload) {
  BufReader r(payload);
  auto read_entry_map = [this, &r](std::map<std::uint64_t, Entry>& entries, bool indexed) {
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && !r.failed(); ++i) {
      const std::uint64_t id = r.u64();
      const auto kind = r.u8() == 0 ? Iface::Kind::kBroker : Iface::Kind::kClient;
      const sim::HostId source_host = r.u32();
      event::Filter filter = event::read_filter(r);
      if (r.failed()) break;
      entries[id] = Entry{std::move(filter), Iface{kind, source_host}};
      if (indexed) index_.add(id, entries[id].filter);
    }
  };
  read_entry_map(table_, true);
  read_entry_map(adverts_, false);
  const std::uint32_t n_forwarded = r.u32();
  for (std::uint32_t i = 0; i < n_forwarded && !r.failed(); ++i) {
    const sim::HostId host = r.u32();
    const std::uint32_t n_ids = r.u32();
    auto& ids = forwarded_[host];
    for (std::uint32_t j = 0; j < n_ids && !r.failed(); ++j) ids.insert(r.u64());
  }
}

void Broker::recover() {
  if (disk_ == nullptr) return;
  ++stats_.recoveries;
  ++sync_round_;  // replies to any older round are stale — ignore them
  for (auto& [peer, sync] : pending_sync_) {
    if (sync.timer != sim::kInvalidTask) net_.scheduler().cancel(sync.timer);
  }
  pending_sync_.clear();

  // The crash lost the in-memory routing state; rebuild from the last
  // durable checkpoint.
  table_.clear();
  adverts_.clear();
  forwarded_.clear();
  index_ = event::FilterIndex{};
  seen_publishes_.clear();  // in-memory: a restarted process forgets it
  sim::Network::TraceScope root_trace(net_, net_.start_trace());
  sim::Network::SpanScope span(net_, host_, "broker", "recover");
  const sim::CheckpointRead ckpt = sim::checkpoint_read(*disk_, host_, kCkptBase);
  if (ckpt.ok) {
    restore_routing_state(ckpt.payload);
    ckpt_seq_ = ckpt.seq;
  }
  stats_.recovered_entries += table_.size() + adverts_.size();
  if (span.active()) {
    span.annotate("ckpt=" + std::string(ckpt.ok ? "ok" : "none") +
                  ";subs=" + std::to_string(table_.size()) +
                  ";adverts=" + std::to_string(adverts_.size()) +
                  ";read_us=" + std::to_string(disk_->read_latency(ckpt.bytes_scanned)));
  }

  // The checkpoint can trail reality (mutations after the last durable
  // write, or missed while down): reconcile against each live neighbour.
  for (sim::HostId n : neighbours_) send_sync_request(n);
}

void Broker::send_sync_request(sim::HostId peer) {
  SyncState& sync = pending_sync_[peer];
  if (sync.delay == 0) sync.delay = kSyncTimeout;
  ++stats_.sync_requests;
  send_broker(peer, std::any(SyncRequestMsg{sync_round_}),
              codec_.size(SyncRequestMsg{sync_round_}));
  sync.timer =
      net_.scheduler().after(sync.delay, [this, peer]() { on_sync_timeout(peer); });
}

void Broker::on_sync_timeout(sim::HostId peer) {
  auto it = pending_sync_.find(peer);
  if (it == pending_sync_.end()) return;
  SyncState& sync = it->second;
  sync.timer = sim::kInvalidTask;
  if (++sync.attempts >= kSyncMaxAttempts) {
    // A peer that never answers is likely down itself; its subscriptions
    // will re-arrive through its own recovery sync when it returns.
    ++stats_.sync_give_ups;
    pending_sync_.erase(it);
    return;
  }
  ++stats_.sync_retries;
  sync.delay = static_cast<SimDuration>(static_cast<double>(sync.delay) * kSyncBackoff);
  send_sync_request(peer);
}

void Broker::handle_sync_request(sim::HostId peer, std::uint64_t round) {
  SyncReplyMsg reply;
  reply.round = round;
  // Everything we forwarded toward the requester: the authoritative
  // version of the table entries it attributes to us.
  auto fwd = forwarded_.find(peer);
  if (fwd != forwarded_.end()) {
    for (std::uint64_t id : fwd->second) {
      auto entry = table_.find(id);
      if (entry != table_.end()) {
        reply.subscriptions.push_back(SubscribeMsg{id, entry->second.filter});
      }
    }
  }
  // Advertisements we know from other directions (ours to re-flood).
  for (const auto& [id, adv] : adverts_) {
    if (adv.source.kind == Iface::Kind::kBroker && adv.source.host == peer) continue;
    reply.advertisements.push_back(AdvertiseMsg{id, adv.filter});
  }
  const std::size_t size = codec_.size(reply);
  send_broker(peer, std::any(std::move(reply)), size);
}

void Broker::handle_sync_reply(sim::HostId peer, const SyncReplyMsg& reply) {
  if (reply.round != sync_round_) return;  // stale round
  auto it = pending_sync_.find(peer);
  if (it != pending_sync_.end()) {
    if (it->second.timer != sim::kInvalidTask) net_.scheduler().cancel(it->second.timer);
    pending_sync_.erase(it);
    ++stats_.sync_replies;
  }
  // The reply supersedes every checkpointed entry attributed to this
  // peer: drop what it no longer has (unsubscribed while we were down),
  // then (re)install what it does.  handle_subscribe/-advertise keep
  // forwarding toward our other neighbours consistent.
  const Iface source{Iface::Kind::kBroker, peer};
  std::set<std::uint64_t> sub_ids;
  for (const SubscribeMsg& s : reply.subscriptions) sub_ids.insert(s.id);
  std::vector<std::uint64_t> stale;
  for (const auto& [id, entry] : table_) {
    if (entry.source == source && !sub_ids.contains(id)) stale.push_back(id);
  }
  // Full unsubscribe, not a bare table erase: neighbours we forwarded a
  // stale id to must stop routing on it, and its forwarded_ markers
  // must clear or a later re-subscribe with the same id is suppressed.
  for (std::uint64_t id : stale) handle_unsubscribe(id, source);
  for (const SubscribeMsg& s : reply.subscriptions) {
    handle_subscribe(s.id, s.filter, source);
  }
  for (const AdvertiseMsg& a : reply.advertisements) {
    handle_advertise(a.id, a.filter, source);
  }
  checkpoint();
}

}  // namespace aa::pubsub
