// A partitioned broker tier: the subscription space is hash-partitioned
// across independent broker shards (Gu et al.'s P2P context lookup
// partitions the context space the same way; PAPERS.md).
//
// Each shard is a complete SienaNetwork — its own acyclic overlay over
// a disjoint subset of the broker hosts, namespaced protocols so shards
// coexist on one simulated network — and the router is a thin,
// deterministic dispatch layer in front of them:
//
//   * a subscription *pinned* to a partition (equality constraint on
//     the partition attribute) installs on exactly one shard;
//   * a wildcard subscription installs on every shard (it must see
//     every partition's events);
//   * a publication routes to exactly one shard — the partition of its
//     attribute value, or shard 0 when the event lacks the attribute.
//
// Exactly-once delivery holds by construction: any given event enters
// one shard, and a subscription matching it is installed there (pinned
// subs share the event's partition — same hash of the same value;
// wildcard subs are everywhere).  Combined with per-broker subscription
// merging (Broker::enable_aggregation) this is the million-client tier:
// interior state per broker scales with groups x neighbours, and broker
// load divides across shards.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "event/filter_summary.hpp"
#include "pubsub/event_service.hpp"
#include "pubsub/siena_network.hpp"

namespace aa::pubsub {

struct ShardRouterParams {
  /// The attribute partitioning the subscription space.
  std::string partition_attribute = "type";
  /// Number of broker shards; broker hosts are split into `shards`
  /// contiguous chunks (each must be non-empty).
  std::size_t shards = 2;
  /// Overlay shape within each shard.
  int tree_fanout = 2;
  /// Covering-based subscription merging inside every shard.
  bool aggregation = false;
  std::size_t aggregation_groups = 8;
};

struct ShardRouterStats {
  std::uint64_t pinned_subscriptions = 0;     // installed on one shard
  std::uint64_t broadcast_subscriptions = 0;  // wildcard, installed on all
  std::uint64_t pinned_publishes = 0;         // routed by partition value
  std::uint64_t unpinned_publishes = 0;       // no attribute: shard 0
};

class BrokerShardRouter final : public EventService {
 public:
  BrokerShardRouter(sim::Network& net, const std::vector<sim::HostId>& broker_hosts,
                    ShardRouterParams params = {});

  std::size_t shard_count() const { return shards_.size(); }
  SienaNetwork& shard(std::size_t i) { return *shards_[i]; }
  const ShardRouterParams& params() const { return params_; }

  /// The shard an event/filter value in the partition attribute lands
  /// on (tests use it to find the shard owning a hot partition).
  std::size_t shard_of_value(const event::AttrValue& v) const {
    return event::value_partition(v, shards_.size());
  }

  /// Attaches `client_host` to its nearest broker in every shard (a
  /// client may hold pinned subscriptions in any of them).
  void attach_client(sim::HostId client_host);

  // Pass-throughs applied to every shard.
  void enable_reliable_transport(const sim::ReliableParams& params = {});
  void enable_broker_checkpoints(sim::DurableDisk& disk,
                                 const BrokerDurabilityParams& params = {});
  void attach_churn(sim::ChurnInjector& churn);

  // EventService:
  std::uint64_t subscribe(sim::HostId client, const event::Filter& filter,
                          Deliver deliver) override;
  void unsubscribe(sim::HostId client, std::uint64_t subscription_id) override;
  void publish(sim::HostId client, const event::Event& e) override;
  void advertise(sim::HostId client, const event::Filter& filter) override;

  const ShardRouterStats& stats() const { return stats_; }
  /// Broker stats summed across all shards.
  BrokerStats total_broker_stats() const;
  std::size_t total_table_entries() const;
  std::size_t total_transit_entries() const;
  std::size_t max_table_entries() const;

 private:
  // A router subscription id maps to its per-shard installs.
  struct SubRoute {
    std::vector<std::pair<std::size_t, std::uint64_t>> installs;  // (shard, inner id)
  };

  sim::Network& net_;
  ShardRouterParams params_;
  event::AtomId partition_atom_;
  std::vector<std::unique_ptr<SienaNetwork>> shards_;
  std::map<std::uint64_t, SubRoute> routes_;
  std::uint64_t next_id_ = 1;
  ShardRouterStats stats_;
};

}  // namespace aa::pubsub
