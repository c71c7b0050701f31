#include "pubsub/shard_router.hpp"

#include <algorithm>

namespace aa::pubsub {

BrokerShardRouter::BrokerShardRouter(sim::Network& net,
                                     const std::vector<sim::HostId>& broker_hosts,
                                     ShardRouterParams params)
    : net_(net), params_(std::move(params)) {
  if (params_.shards == 0) params_.shards = 1;
  params_.shards = std::min(params_.shards, broker_hosts.size());
  partition_atom_ = event::intern(params_.partition_attribute);
  // Contiguous chunks, remainder spread over the leading shards.
  const std::size_t base = broker_hosts.size() / params_.shards;
  const std::size_t extra = broker_hosts.size() % params_.shards;
  std::size_t next = 0;
  for (std::size_t s = 0; s < params_.shards; ++s) {
    const std::size_t count = base + (s < extra ? 1 : 0);
    std::vector<sim::HostId> hosts(broker_hosts.begin() + next,
                                   broker_hosts.begin() + next + count);
    next += count;
    auto shard = std::make_unique<SienaNetwork>(net_, std::move(hosts),
                                                ".s" + std::to_string(s));
    shard->connect_tree(params_.tree_fanout);
    if (params_.aggregation) {
      shard->enable_aggregation(BrokerAggregationParams{params_.partition_attribute,
                                                        params_.aggregation_groups});
    }
    shards_.push_back(std::move(shard));
  }
}

void BrokerShardRouter::attach_client(sim::HostId client_host) {
  for (auto& shard : shards_) shard->attach_client_nearest(client_host);
}

void BrokerShardRouter::enable_reliable_transport(const sim::ReliableParams& params) {
  for (auto& shard : shards_) shard->enable_reliable_transport(params);
}

void BrokerShardRouter::enable_broker_checkpoints(sim::DurableDisk& disk,
                                                  const BrokerDurabilityParams& params) {
  for (auto& shard : shards_) shard->enable_broker_checkpoints(disk, params);
}

void BrokerShardRouter::attach_churn(sim::ChurnInjector& churn) {
  for (auto& shard : shards_) shard->attach_churn(churn);
}

std::uint64_t BrokerShardRouter::subscribe(sim::HostId client, const event::Filter& filter,
                                           Deliver deliver) {
  const std::uint64_t id = next_id_++;
  SubRoute& route = routes_[id];
  const auto pinned =
      event::filter_partition(filter, partition_atom_, shards_.size());
  if (pinned.has_value()) {
    ++stats_.pinned_subscriptions;
    route.installs.emplace_back(*pinned, shards_[*pinned]->subscribe(client, filter, deliver));
  } else {
    // Wildcard: every shard may route events this filter matches.
    ++stats_.broadcast_subscriptions;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      route.installs.emplace_back(s, shards_[s]->subscribe(client, filter, deliver));
    }
  }
  return id;
}

void BrokerShardRouter::unsubscribe(sim::HostId client, std::uint64_t subscription_id) {
  const auto it = routes_.find(subscription_id);
  if (it == routes_.end()) return;
  for (const auto& [s, inner] : it->second.installs) {
    shards_[s]->unsubscribe(client, inner);
  }
  routes_.erase(it);
}

void BrokerShardRouter::publish(sim::HostId client, const event::Event& e) {
  // Exactly one shard sees any given event: pinned subscriptions live
  // on the same hash of the same value, wildcard ones everywhere.
  const auto p = event::event_partition(e, partition_atom_, shards_.size());
  if (p.has_value()) {
    ++stats_.pinned_publishes;
  } else {
    ++stats_.unpinned_publishes;
  }
  shards_[p.value_or(0)]->publish(client, e);
}

void BrokerShardRouter::advertise(sim::HostId client, const event::Filter& filter) {
  const auto pinned =
      event::filter_partition(filter, partition_atom_, shards_.size());
  if (pinned.has_value()) {
    shards_[*pinned]->advertise(client, filter);
  } else {
    for (auto& shard : shards_) shard->advertise(client, filter);
  }
}

BrokerStats BrokerShardRouter::total_broker_stats() const {
  BrokerStats total;
  for (const auto& shard : shards_) total += shard->total_broker_stats();
  return total;
}

std::size_t BrokerShardRouter::total_table_entries() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->total_table_entries();
  return total;
}

std::size_t BrokerShardRouter::total_transit_entries() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->total_transit_entries();
  return total;
}

std::size_t BrokerShardRouter::max_table_entries() const {
  std::size_t max_entries = 0;
  for (const auto& shard : shards_) {
    max_entries = std::max(max_entries, shard->max_table_entries());
  }
  return max_entries;
}

}  // namespace aa::pubsub
