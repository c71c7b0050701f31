#include "storage/object_store.hpp"

namespace aa::storage {

namespace {
constexpr const char* kStoreApp = "store";      // overlay-routed traffic
constexpr const char* kDirectProto = "store.d";  // point-to-point traffic

enum class Tag : std::uint8_t { kPut = 0, kGet = 1 };

Bytes encode_put(sim::HostId requester, std::uint64_t request_id, const Bytes& data) {
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(Tag::kPut));
  w.u32(requester);
  w.u64(request_id);
  w.bytes(data);
  return std::move(w).take();
}

Bytes encode_get(sim::HostId requester, std::uint64_t request_id) {
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(Tag::kGet));
  w.u32(requester);
  w.u64(request_id);
  return std::move(w).take();
}

struct ReplicaStoreMsg {
  ObjectId id;
  Bytes data;
  bool healing = false;
};
struct FragmentStoreMsg {
  ObjectId id;
  Fragment fragment;
};
struct GetReplyMsg {
  std::uint64_t request_id = 0;
  ObjectId id;
  bool ok = false;
  Bytes data;
};
struct PutAckMsg {
  std::uint64_t request_id = 0;
  ObjectId id;
  int copies = 0;
};
struct FragRequestMsg {
  ObjectId id;
  std::uint64_t gather_id = 0;
  sim::HostId root = sim::kNoHost;
};
struct FragReplyMsg {
  std::uint64_t gather_id = 0;
  ObjectId id;
  bool ok = false;
  Fragment fragment;
};

/// Answers a put or get from a host outside the overlay.  Deferred like
/// every other answer, so the caller always sees callback-after-return
/// semantics.
template <typename Callback>
void reject_non_member(sim::Scheduler& sched, Callback done) {
  sched.after(0, [done = std::move(done)]() {
    done(Status(Code::kFailedPrecondition, "host is not a storage participant"));
  });
}
}  // namespace

ObjectStore::ObjectStore(sim::Network& net, overlay::OverlayNetwork& overlay, Params params)
    : net_(net), overlay_(overlay), params_(params) {
  if (params_.reliable_repair) {
    repair_transport_ =
        std::make_unique<sim::ReliableTransport>(net_, "store.r", params_.reliable);
  }
  if (params_.erasure) {
    coder_ = std::make_unique<ErasureCoder>(params_.ec_data, params_.ec_parity);
  }
  for (sim::HostId h : overlay_.node_hosts()) ensure_host(h);
  if (params_.healing_period > 0) {
    healing_task_ =
        net_.scheduler().every(params_.healing_period, [this]() { healing_sweep(); });
  }
}

ObjectStore::~ObjectStore() {
  if (healing_task_ != sim::kInvalidTask) net_.scheduler().cancel(healing_task_);
  for (const auto& [h, n] : nodes_) net_.unregister_handler(h, kDirectProto);
}

void ObjectStore::sync_hosts() {
  for (sim::HostId h : overlay_.node_hosts()) ensure_host(h);
}

void ObjectStore::ensure_host(sim::HostId host) {
  if (nodes_.contains(host)) return;
  auto& node = *nodes_.emplace(host, std::make_unique<StoreNode>(params_.cache_capacity))
                    .first->second;
  if (params_.tier != StoreTier::kVolatile && params_.disk != nullptr) {
    auto& journal = *journals_
                         .emplace(host, std::make_unique<StoreJournal>(
                                            *params_.disk, host, params_.tier,
                                            params_.checkpoint_every))
                         .first->second;
    journal.bind(&node);
    node.set_journal(&journal);
  }
  if (churn_ != nullptr) {
    churn_->add_recovery_hook(host, [this](sim::HostId h) { recover_host(h); });
  }
  net_.register_handler(host, kDirectProto,
                        [this, host](const sim::Packet& p) { on_direct(host, p); });
  if (repair_transport_ != nullptr) {
    repair_transport_->register_handler(
        host, [this, host](const sim::Packet& p) { on_direct(host, p); });
  }
  overlay_.register_app(kStoreApp, host,
                        [this, host](const ObjectId& key, const Bytes& payload,
                                     const overlay::RouteInfo& info) {
                          on_route_deliver(host, key, payload, info);
                        });
  overlay_.register_intercept(kStoreApp, host,
                              [this, host](const ObjectId& key, const Bytes& payload,
                                           const overlay::RouteInfo& info) {
                                return on_route_intercept(host, key, payload, info);
                              });
}

StoreNode* ObjectStore::node(sim::HostId host) {
  // Hosts that joined the overlay after construction become storage
  // participants on first touch.
  if (!nodes_.contains(host) && overlay_.node_at(host) != nullptr) ensure_host(host);
  auto it = nodes_.find(host);
  return it == nodes_.end() ? nullptr : it->second.get();
}

ObjectId ObjectStore::put(sim::HostId from, Bytes data, PutCallback done) {
  const ObjectId id = Uid160(Sha1::hash(data));
  put_named(from, id, std::move(data), std::move(done));
  return id;
}

void ObjectStore::put_named(sim::HostId from, const ObjectId& id, Bytes data,
                            PutCallback done) {
  ++stats_.puts;
  if (node(from) == nullptr) {
    if (done) reject_non_member(net_.scheduler(), std::move(done));
    return;
  }
  const std::uint64_t request_id = next_request_++;
  PendingPut pending;
  pending.requester = from;
  pending.id = id;
  pending.done = std::move(done);
  pending.timeout = net_.scheduler().after(params_.request_timeout, [this, request_id]() {
    auto it = pending_puts_.find(request_id);
    if (it == pending_puts_.end()) return;
    ++stats_.timeouts;
    if (it->second.done) it->second.done(Status(Code::kTimeout, "put timed out"));
    pending_puts_.erase(it);
  });
  pending_puts_.emplace(request_id, std::move(pending));
  overlay_.route(from, id, kStoreApp, encode_put(from, request_id, data));
}

void ObjectStore::get(sim::HostId from, const ObjectId& id, GetCallback done) {
  ++stats_.gets;
  StoreNode* local = node(from);
  if (local == nullptr) {
    reject_non_member(net_.scheduler(), std::move(done));
    return;
  }
  // Local replica or cache answers immediately (asynchronously, so the
  // caller always sees callback-after-return semantics).
  const Bytes* hit = local->replica(id);
  if (hit == nullptr && params_.promiscuous_cache) hit = local->cache_get(id);
  if (hit != nullptr) {
    ++stats_.local_hits;
    net_.scheduler().after(0, [done = std::move(done), data = *hit]() { done(data); });
    return;
  }
  const std::uint64_t request_id = next_request_++;
  PendingGet pending;
  pending.requester = from;
  pending.done = std::move(done);
  pending.timeout = net_.scheduler().after(params_.request_timeout, [this, request_id]() {
    auto it = pending_gets_.find(request_id);
    if (it == pending_gets_.end()) return;
    ++stats_.timeouts;
    it->second.done(Status(Code::kTimeout, "get timed out"));
    pending_gets_.erase(it);
  });
  pending_gets_.emplace(request_id, std::move(pending));
  overlay_.route(from, id, kStoreApp, encode_get(from, request_id));
}

void ObjectStore::replicate_to(sim::HostId via, const ObjectId& id, sim::HostId target,
                               std::function<void(Status)> done) {
  get(via, id, [this, id, via, target, done = std::move(done)](Result<Bytes> result) {
    if (!result.is_ok()) {
      if (done) done(result.status());
      return;
    }
    if (target == via) {
      nodes_.at(via)->store_replica(id, result.value());
    } else {
      send_repair(via, target, ReplicaStoreMsg{id, result.value(), false},
                  result.value().size() + 24);
    }
    if (done) done(Status::ok());
  });
}

bool ObjectStore::on_route_intercept(sim::HostId host, const ObjectId& key,
                                     const Bytes& payload, const overlay::RouteInfo& info) {
  (void)info;
  BufReader r(payload);
  if (static_cast<Tag>(r.u8()) != Tag::kGet) return false;
  const sim::HostId requester = r.u32();
  const std::uint64_t request_id = r.u64();
  if (r.failed()) return false;

  StoreNode& node = *nodes_.at(host);
  const Bytes* hit = node.replica(key);
  if (hit == nullptr && params_.promiscuous_cache) hit = node.cache_get(key);
  if (hit == nullptr) return false;  // keep routing toward the root
  ++stats_.intercept_hits;
  reply(host, requester, request_id, key, hit);
  return true;
}

void ObjectStore::on_route_deliver(sim::HostId host, const ObjectId& key, const Bytes& payload,
                                   const overlay::RouteInfo& info) {
  (void)info;
  BufReader r(payload);
  const Tag tag = static_cast<Tag>(r.u8());
  const sim::HostId requester = r.u32();
  const std::uint64_t request_id = r.u64();
  switch (tag) {
    case Tag::kPut: {
      Bytes data = r.bytes();
      if (r.failed()) return;
      handle_put_at_root(host, key, std::move(data), requester, request_id);
      break;
    }
    case Tag::kGet: {
      if (r.failed()) return;
      // The intercept already ran at this node and missed, so the root
      // has neither replica nor cached copy; erasure reconstruction is
      // the remaining option.
      StoreNode& node = *nodes_.at(host);
      if (params_.erasure && node.fragment(key) != nullptr) {
        start_reconstruction(host, key, request_id);
      } else {
        ++stats_.misses;
        reply(host, requester, request_id, key, nullptr);
      }
      break;
    }
  }
}

void ObjectStore::handle_put_at_root(sim::HostId root, const ObjectId& id, Bytes data,
                                     sim::HostId requester, std::uint64_t request_id) {
  const overlay::OverlayNode* node = overlay_.node_at(root);
  if (node == nullptr) return;

  sim::Network::SpanScope span(net_, root, "store", "replicate");
  int copies = 0;
  if (params_.erasure) {
    const auto fragments = coder_->encode(data);
    const auto targets =
        node->replica_set(id, params_.ec_data + params_.ec_parity);
    for (std::size_t i = 0; i < fragments.size(); ++i) {
      const auto& target = targets[i % targets.size()];
      if (target.host == root) {
        nodes_.at(root)->store_fragment(id, fragments[i]);
      } else {
        net_.send(root, target.host, kDirectProto, FragmentStoreMsg{id, fragments[i]},
                  fragments[i].data.size() + 24);
      }
      ++copies;
    }
  } else {
    const auto targets = node->replica_set(id, params_.replicas);
    for (const auto& target : targets) {
      if (target.host == root) {
        nodes_.at(root)->store_replica(id, data);
      } else {
        net_.send(root, target.host, kDirectProto, ReplicaStoreMsg{id, data, false},
                  data.size() + 24);
      }
      ++copies;
    }
  }
  if (span.active()) {
    span.annotate((params_.erasure ? "fragments=" : "replicas=") + std::to_string(copies));
  }
  net_.send(root, requester, kDirectProto, PutAckMsg{request_id, id, copies}, 36);
}

void ObjectStore::reply(sim::HostId from, sim::HostId requester, std::uint64_t request_id,
                        const ObjectId& id, const Bytes* data) {
  GetReplyMsg msg;
  msg.request_id = request_id;
  msg.id = id;
  msg.ok = data != nullptr;
  if (data != nullptr) msg.data = *data;
  net_.send(from, requester, kDirectProto, std::move(msg),
            (data != nullptr ? data->size() : 0) + 32);
}

void ObjectStore::start_reconstruction(sim::HostId root, const ObjectId& id,
                                       std::uint64_t request_id) {
  // Piggyback onto an existing gather for the same object if one is in
  // flight at this root.
  for (auto& [gid, gather] : gathers_) {
    if (gather.id == id && !gather.done) {
      gather.waiting_requests.push_back(request_id);
      return;
    }
  }
  const std::uint64_t gather_id = next_gather_++;
  Gather gather;
  gather.id = id;
  gather.waiting_requests.push_back(request_id);
  // Seed with our own fragment.
  const Fragment* own = nodes_.at(root)->fragment(id);
  if (own != nullptr) gather.fragments.push_back(*own);
  gathers_.emplace(gather_id, std::move(gather));

  const overlay::OverlayNode* node = overlay_.node_at(root);
  const auto targets = node->replica_set(id, params_.ec_data + params_.ec_parity);
  for (const auto& target : targets) {
    if (target.host == root) continue;
    net_.send(root, target.host, kDirectProto, FragRequestMsg{id, gather_id, root}, 36);
  }
  // NOTE: the pending get's timeout covers the failure case (not enough
  // live fragments) — the requester times out rather than hanging.  Who
  // gets the reply once decode succeeds is looked up in the pending
  // table via request_id at that time.
}

void ObjectStore::on_direct(sim::HostId host, const sim::Packet& packet) {
  if (const auto* store = sim::packet_body<ReplicaStoreMsg>(packet)) {
    StoreNode& node = *nodes_.at(host);
    if (store->healing && node.replica(store->id) == nullptr) ++stats_.heal_pushes;
    node.store_replica(store->id, store->data);
  } else if (const auto* frag = sim::packet_body<FragmentStoreMsg>(packet)) {
    nodes_.at(host)->store_fragment(frag->id, frag->fragment);
  } else if (const auto* ack = sim::packet_body<PutAckMsg>(packet)) {
    auto it = pending_puts_.find(ack->request_id);
    if (it == pending_puts_.end()) return;
    net_.scheduler().cancel(it->second.timeout);
    if (it->second.done) it->second.done(Result<ObjectId>(ack->id));
    pending_puts_.erase(it);
  } else if (const auto* reply_msg = sim::packet_body<GetReplyMsg>(packet)) {
    auto it = pending_gets_.find(reply_msg->request_id);
    if (it == pending_gets_.end()) return;
    net_.scheduler().cancel(it->second.timeout);
    if (reply_msg->ok) {
      if (params_.promiscuous_cache) {
        // Promiscuous cache install at the requester.
        nodes_.at(host)->cache_put(reply_msg->id, reply_msg->data);
      }
      it->second.done(Result<Bytes>(reply_msg->data));
    } else {
      it->second.done(Status(Code::kNotFound, "object not in store"));
    }
    pending_gets_.erase(it);
  } else if (const auto* freq = sim::packet_body<FragRequestMsg>(packet)) {
    const Fragment* f = nodes_.at(host)->fragment(freq->id);
    FragReplyMsg out;
    out.gather_id = freq->gather_id;
    out.id = freq->id;
    out.ok = f != nullptr;
    if (f != nullptr) out.fragment = *f;
    net_.send(host, freq->root, kDirectProto, std::move(out),
              (f != nullptr ? f->data.size() : 0) + 32);
  } else if (const auto* frep = sim::packet_body<FragReplyMsg>(packet)) {
    auto it = gathers_.find(frep->gather_id);
    if (it == gathers_.end() || it->second.done) return;
    Gather& gather = it->second;
    if (frep->ok) gather.fragments.push_back(frep->fragment);
    if (static_cast<int>(gather.fragments.size()) < params_.ec_data) return;
    auto decoded = coder_->decode(gather.fragments);
    if (!decoded.is_ok()) return;  // wait for more fragments / timeout
    gather.done = true;
    ++stats_.reconstructions;
    // Cache the whole object at the root so subsequent gets skip the
    // gather (promiscuous caching of reconstructed objects).
    if (params_.promiscuous_cache) {
      nodes_.at(host)->cache_put(gather.id, decoded.value());
    }
    for (std::uint64_t request_id : gather.waiting_requests) {
      auto pending = pending_gets_.find(request_id);
      if (pending == pending_gets_.end()) continue;
      ++stats_.root_hits;
      reply(host, pending->second.requester, request_id, gather.id, &decoded.value());
    }
    gathers_.erase(it);
  }
}

void ObjectStore::send_repair(sim::HostId src, sim::HostId dst, std::any body,
                              std::size_t wire_size) {
  if (repair_transport_ != nullptr) {
    repair_transport_->send(
        sim::Packet{src, dst, repair_transport_->protocol(), std::move(body), wire_size});
  } else {
    net_.send(sim::Packet{src, dst, kDirectProto, std::move(body), wire_size});
  }
}

void ObjectStore::healing_sweep() {
  for (const auto& [host, store_node] : nodes_) {
    if (!net_.host_up(host)) continue;
    sim::Network::SpanScope span(net_, host, "store", "sweep");
    heal_host(host, *store_node);
  }
}

void ObjectStore::heal_host(sim::HostId host, StoreNode& store_node) {
  overlay::OverlayNode* node = overlay_.node_at(host);
  if (node == nullptr) return;
  for (const ObjectId& id : store_node.replica_ids()) {
    // Only the object's current root drives healing, so at most one
    // node re-pushes each object per sweep.
    if (node->next_hop(id).has_value()) continue;
    const Bytes* data = store_node.replica(id);
    if (data == nullptr) continue;
    // Each healing push roots its own (sampled) trace: the sweep runs
    // from a timer, so there is no ambient context to inherit.
    sim::Network::TraceScope root_trace(net_, net_.start_trace());
    sim::Network::SpanScope span(net_, host, "store", "heal");
    for (const auto& target : node->replica_set(id, params_.replicas)) {
      if (target.host == host) continue;
      send_repair(host, target.host, ReplicaStoreMsg{id, *data, true},
                  data->size() + 24);
    }
  }
}

void ObjectStore::attach_churn(sim::ChurnInjector& churn) {
  churn_ = &churn;
  for (const auto& [host, node] : nodes_) {
    churn_->add_recovery_hook(host, [this](sim::HostId h) { recover_host(h); });
  }
}

void ObjectStore::recover_host(sim::HostId host) {
  auto it = nodes_.find(host);
  if (it == nodes_.end()) return;
  StoreNode& store_node = *it->second;
  sim::Network::TraceScope root_trace(net_, net_.start_trace());
  sim::Network::SpanScope span(net_, host, "store", "recover");
  auto journal_it = journals_.find(host);
  if (journal_it == journals_.end()) {
    // Volatile tier: the crash lost everything; the node rejoins empty
    // and refills from replica peers via healing.
    store_node.clear_all();
    if (span.active()) span.annotate("tier=volatile");
  } else {
    const StoreJournal::RecoveryResult result = journal_it->second->recover(store_node);
    if (span.active()) {
      span.annotate(std::string("tier=") + tier_name(journal_it->second->tier()) +
                    ";replayed=" + std::to_string(result.records_replayed) +
                    ";torn=" + std::to_string(result.torn_discarded) +
                    ";ckpt=" + (result.checkpoint_ok ? "ok" : "none") +
                    ";read_us=" + std::to_string(result.modeled_latency));
    }
  }
  // Reconcile with replica peers through the existing repair path: the
  // recovered node re-pushes objects it roots (covering replicas its
  // peers lost), and the next healing sweep re-pushes from other roots
  // anything this node's disk did not have.
  heal_host(host, store_node);
}

DurabilityStats ObjectStore::durability_stats() const {
  DurabilityStats total;
  for (const auto& [host, journal] : journals_) {
    const DurabilityStats& s = journal->stats();
    total.wal_appends += s.wal_appends;
    total.wal_bytes += s.wal_bytes;
    total.checkpoints += s.checkpoints;
    total.checkpoint_bytes += s.checkpoint_bytes;
    total.logical_bytes += s.logical_bytes;
    total.recoveries += s.recoveries;
    total.records_replayed += s.records_replayed;
    total.torn_records_discarded += s.torn_records_discarded;
    total.corrupt_checkpoints += s.corrupt_checkpoints;
    total.recovery_bytes_read += s.recovery_bytes_read;
    total.recovery_us_total += s.recovery_us_total;
  }
  return total;
}

const StoreJournal* ObjectStore::journal(sim::HostId host) const {
  auto it = journals_.find(host);
  return it == journals_.end() ? nullptr : it->second.get();
}

int ObjectStore::live_replicas(const ObjectId& id) const {
  int count = 0;
  for (const auto& [host, node] : nodes_) {
    if (net_.host_up(host) && node->replica(id) != nullptr) ++count;
  }
  return count;
}

int ObjectStore::live_fragments(const ObjectId& id) const {
  int count = 0;
  for (const auto& [host, node] : nodes_) {
    if (net_.host_up(host) && node->fragment(id) != nullptr) ++count;
  }
  return count;
}

}  // namespace aa::storage
