// The distributed object store: PAST-style replicated storage over the
// Plaxton/Pastry overlay with promiscuous caching and self-healing
// replication (§4.5, §4.6).
//
// put(): the object's GUID is the secure hash of its content (as in the
// cited P2P stores); a Put message is routed to the GUID's root, which
// replicates the object onto the GUID's replica set (itself plus its
// leaf-set neighbours closest to the GUID), or — in erasure mode —
// encodes it into k+m fragments placed one per replica-set member.
//
// get(): answered by the local replica or cache when possible; otherwise
// a Get message routes toward the root and *any* node on the path with a
// replica or cached copy answers it (the Pastry forward() upcall —
// promiscuous caching in action).  Replies install cache copies at the
// requester.
//
// Self-healing (§4.6, the "RAID analogy"): each node periodically sweeps
// the objects it holds and, for those it believes itself the root of,
// runs anti-entropy by digest with the current replica set (Demers et
// al., PODC 1987).  It sends each replica peer one digest: the ids that
// peer should hold (8 bytes + 20 per id).  The peer answers with the
// ids it holds no replica of, sized the same way, or with nothing when
// it lacks none.  The root then pushes each wanted object it still
// holds (its bytes + 24).  Copies lost to churn are recreated and a
// sweep over intact replicas moves ids, never objects.  An id names
// one content (put ids are content hashes, put_named keys are written
// once), so a present replica is never overwritten by healing.  On the
// raw repair plane a repair needs all three messages to arrive:
// reliable_repair retransmits each of them.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "overlay/overlay_network.hpp"
#include "sim/churn.hpp"
#include "sim/durable_disk.hpp"
#include "sim/reliable.hpp"
#include "storage/durability.hpp"
#include "storage/store_node.hpp"

namespace aa::storage {

struct ObjectStoreStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t local_hits = 0;       // served from requester's own node
  std::uint64_t intercept_hits = 0;   // served mid-route (promiscuous)
  std::uint64_t root_hits = 0;        // served at the root
  std::uint64_t misses = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t heal_pushes = 0;      // missing replicas healing restored
  std::uint64_t reconstructions = 0;  // erasure decodes at the root
};

class ObjectStore {
 public:
  struct Params {
    /// Copies per object in replicate mode (the paper's running example
    /// uses 5, §4.4/§4.6).
    int replicas = 3;
    bool promiscuous_cache = true;
    std::size_t cache_capacity = 512 * 1024;
    /// Erasure mode: store k+m fragments instead of whole-object copies.
    bool erasure = false;
    int ec_data = 4;
    int ec_parity = 2;
    /// Self-healing sweep period; 0 disables healing.
    SimDuration healing_period = 0;
    SimDuration request_timeout = duration::seconds(10);
    /// Routes replica-repair traffic (healing digests, wants and pushes,
    /// and directed replication) through an ack/retry reliable
    /// transport (protocol "store.r"), so lost repair messages are
    /// retransmitted instead of waiting a whole sweep.  Request/reply
    /// traffic keeps its own timeout machinery and stays raw.  Off by
    /// default.
    bool reliable_repair = false;
    sim::ReliableParams reliable;
    /// Durability tier (storage/durability.hpp).  Persistent tiers
    /// require `disk`; a crashed node then recovers its authoritative
    /// state from checkpoint + WAL replay instead of starting empty.
    StoreTier tier = StoreTier::kVolatile;
    /// kLogged: WAL records between checkpoints.
    std::uint32_t checkpoint_every = 64;
    /// The per-host durable disk backing persistent tiers (not owned).
    sim::DurableDisk* disk = nullptr;
  };

  ObjectStore(sim::Network& net, overlay::OverlayNetwork& overlay, Params params);
  ~ObjectStore();

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  using PutCallback = std::function<void(Result<ObjectId>)>;
  using GetCallback = std::function<void(Result<Bytes>)>;

  /// Stores `data`; the id is the content hash, reported via callback
  /// once the root acknowledges placement.
  ObjectId put(sim::HostId from, Bytes data, PutCallback done = nullptr);

  /// Stores `data` under an explicit id (PAST-style fileId semantics:
  /// e.g. a hash of keywords — used by the discovery-matchlet code
  /// directory, where handler bundles live at hash("handler:<type>")).
  void put_named(sim::HostId from, const ObjectId& id, Bytes data, PutCallback done = nullptr);

  /// Fetches an object; `done` runs at the requesting host.
  void get(sim::HostId from, const ObjectId& id, GetCallback done);

  /// Directed replication (placement policies, §4.6): fetches the
  /// object at `via` and installs an authoritative replica on `target`
  /// (e.g. the backup policy's "geographically remote storage unit").
  void replicate_to(sim::HostId via, const ObjectId& id, sim::HostId target,
                    std::function<void(Status)> done = nullptr);

  StoreNode* node(sim::HostId host);
  const ObjectStoreStats& stats() const { return stats_; }

  /// Enrols every current overlay member as a storage participant.
  /// The constructor does this automatically; call it again if nodes
  /// joined the overlay afterwards (puts/gets/node() also self-heal on
  /// first touch).
  void sync_hosts();

  /// Registers recovery hooks with `churn` for every current host (and
  /// every host enrolled later), so a rejoin runs recover_host() before
  /// kJoin observers fire.
  void attach_churn(sim::ChurnInjector& churn);

  /// Crash recovery for one host: wipes the node's in-memory state (a
  /// crash lost it), replays durable state per the tier, then
  /// reconciles with replica peers via the existing repair path.
  /// Called by the churn recovery hook; callable directly by tests.
  void recover_host(sim::HostId host);

  /// Aggregated journal stats across hosts (zeros for kVolatile).
  DurabilityStats durability_stats() const;
  const StoreJournal* journal(sim::HostId host) const;

  /// Oracle (tests/experiments): replicas of `id` currently held on live
  /// hosts.
  int live_replicas(const ObjectId& id) const;
  int live_fragments(const ObjectId& id) const;

 private:
  struct PendingGet {
    sim::HostId requester;
    GetCallback done;
    sim::TaskId timeout = sim::kInvalidTask;
  };
  struct PendingPut {
    sim::HostId requester;
    ObjectId id;
    PutCallback done;
    sim::TaskId timeout = sim::kInvalidTask;
  };
  /// Root-side state for an in-progress erasure reconstruction.
  struct Gather {
    ObjectId id;
    std::vector<Fragment> fragments;
    std::vector<std::uint64_t> waiting_requests;
    bool done = false;
  };

  void ensure_host(sim::HostId host);
  void on_route_deliver(sim::HostId host, const ObjectId& key, const Bytes& payload,
                        const overlay::RouteInfo& info);
  bool on_route_intercept(sim::HostId host, const ObjectId& key, const Bytes& payload,
                          const overlay::RouteInfo& info);
  void on_direct(sim::HostId host, const sim::Packet& packet);
  void handle_put_at_root(sim::HostId root, const ObjectId& id, Bytes data,
                          sim::HostId requester, std::uint64_t request_id);
  void reply(sim::HostId from, sim::HostId requester, std::uint64_t request_id,
             const ObjectId& id, const Bytes* data);
  void start_reconstruction(sim::HostId root, const ObjectId& id, std::uint64_t request_id);
  void healing_sweep();
  /// One host's healing pass: a digest of the objects this host roots
  /// to each of their other replica-set members.
  void heal_host(sim::HostId host, const StoreNode& store_node);

  /// Repair-plane send: reliable transport when enabled, raw
  /// kDirectProto datagram otherwise.
  void send_repair(sim::HostId src, sim::HostId dst, Body body, std::size_t wire_size);

  sim::Network& net_;
  overlay::OverlayNetwork& overlay_;
  Params params_;
  std::unique_ptr<sim::ReliableTransport> repair_transport_;
  std::unique_ptr<ErasureCoder> coder_;
  sim::ChurnInjector* churn_ = nullptr;
  std::map<sim::HostId, std::unique_ptr<StoreNode>> nodes_;
  std::map<sim::HostId, std::unique_ptr<StoreJournal>> journals_;
  std::map<std::uint64_t, PendingGet> pending_gets_;
  std::map<std::uint64_t, PendingPut> pending_puts_;
  std::map<std::uint64_t, Gather> gathers_;
  std::uint64_t next_request_ = 1;
  std::uint64_t next_gather_ = 1;
  sim::TaskId healing_task_ = sim::kInvalidTask;
  ObjectStoreStats stats_;
};

}  // namespace aa::storage
