// Tests for the storage architecture: GF(256)/Reed–Solomon erasure
// coding (round-trip under random loss, property-tested), the per-node
// store + LRU promiscuous cache, and the DHT-backed replicated object
// store (put/get, promiscuous cache hits, erasure reconstruction,
// self-healing under churn, and the healing digest exchange's traffic).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "overlay/overlay_network.hpp"
#include "sim/churn.hpp"
#include "storage/erasure.hpp"
#include "storage/object_store.hpp"

namespace aa::storage {
namespace {

// --- GF(256) ---

TEST(Gf256, MulDivInverse) {
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<std::uint8_t>(1 + rng.below(255));
    const auto b = static_cast<std::uint8_t>(1 + rng.below(255));
    EXPECT_EQ(gf256::div(gf256::mul(a, b), b), a);
    EXPECT_EQ(gf256::mul(a, gf256::inv(a)), 1);
  }
}

TEST(Gf256, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  std::uint8_t acc = 1;
  for (int n = 0; n < 10; ++n) {
    EXPECT_EQ(gf256::pow(7, n), acc);
    acc = gf256::mul(acc, 7);
  }
}

// --- Erasure coding ---

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.below(256));
  return b;
}

TEST(Erasure, SystematicDataFragments) {
  ErasureCoder coder(4, 2);
  Rng rng(2);
  const Bytes object = random_bytes(rng, 400);
  const auto frags = coder.encode(object);
  ASSERT_EQ(frags.size(), 6u);
  // Data fragments carry the object bytes verbatim after the header.
  const std::size_t shard = 100;
  for (int i = 0; i < 4; ++i) {
    for (std::size_t b = 0; b < shard; ++b) {
      EXPECT_EQ(frags[static_cast<std::size_t>(i)].data[4 + b], object[shard * static_cast<std::size_t>(i) + b]);
    }
  }
}

TEST(Erasure, DecodeFromDataFragmentsOnly) {
  ErasureCoder coder(3, 2);
  Rng rng(3);
  const Bytes object = random_bytes(rng, 301);  // non-multiple of k
  auto frags = coder.encode(object);
  frags.resize(3);  // keep only the data fragments
  auto decoded = coder.decode(frags);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), object);
}

TEST(Erasure, DecodeFailsBelowThreshold) {
  ErasureCoder coder(4, 2);
  Rng rng(4);
  auto frags = coder.encode(random_bytes(rng, 64));
  frags.resize(3);  // k-1 fragments
  EXPECT_FALSE(coder.decode(frags).is_ok());
}

TEST(Erasure, DuplicateFragmentsDoNotCount) {
  ErasureCoder coder(3, 1);
  Rng rng(5);
  auto frags = coder.encode(random_bytes(rng, 90));
  std::vector<Fragment> dup{frags[0], frags[0], frags[0]};
  EXPECT_FALSE(coder.decode(dup).is_ok());
}

TEST(Erasure, EmptyObjectRoundTrips) {
  ErasureCoder coder(2, 1);
  auto frags = coder.encode({});
  auto decoded = coder.decode(frags);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().empty());
}

// Property: any k of k+m fragments reconstruct, for random loss patterns.
class ErasureProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ErasureProperty, AnyKFragmentsReconstruct) {
  const auto [k, m] = GetParam();
  ErasureCoder coder(k, m);
  Rng rng(static_cast<std::uint64_t>(k * 31 + m));
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes object = random_bytes(rng, 1 + rng.below(700));
    auto frags = coder.encode(object);
    // Random subset of exactly k fragments.
    rng.shuffle(frags);
    frags.resize(static_cast<std::size_t>(k));
    auto decoded = coder.decode(frags);
    ASSERT_TRUE(decoded.is_ok()) << "k=" << k << " m=" << m;
    EXPECT_EQ(decoded.value(), object);
  }
}

INSTANTIATE_TEST_SUITE_P(Configurations, ErasureProperty,
                         ::testing::Values(std::tuple{2, 1}, std::tuple{3, 2}, std::tuple{4, 2},
                                           std::tuple{4, 4}, std::tuple{8, 3},
                                           std::tuple{1, 2}));

// --- StoreNode ---

TEST(StoreNode, ReplicaLifecycle) {
  StoreNode node(1024);
  const ObjectId id = Uid160::from_content("obj");
  node.store_replica(id, to_bytes("data"));
  ASSERT_NE(node.replica(id), nullptr);
  EXPECT_EQ(node.replica_bytes(), 4u);
  node.store_replica(id, to_bytes("newdata"));  // overwrite adjusts bytes
  EXPECT_EQ(node.replica_bytes(), 7u);
  EXPECT_TRUE(node.drop_replica(id));
  EXPECT_FALSE(node.drop_replica(id));
  EXPECT_EQ(node.replica_bytes(), 0u);
}

TEST(StoreNode, CacheLruEviction) {
  StoreNode node(10);  // tiny: fits two 4-byte objects + change
  const ObjectId a = Uid160::from_content("a");
  const ObjectId b = Uid160::from_content("b");
  const ObjectId c = Uid160::from_content("c");
  node.cache_put(a, to_bytes("aaaa"));
  node.cache_put(b, to_bytes("bbbb"));
  EXPECT_NE(node.cache_get(a), nullptr);  // refresh a; b is now LRU
  node.cache_put(c, to_bytes("cccc"));    // evicts b
  EXPECT_NE(node.cache_get(a), nullptr);
  EXPECT_EQ(node.cache_get(b), nullptr);
  EXPECT_NE(node.cache_get(c), nullptr);
  EXPECT_GE(node.stats().cache_evictions, 1u);
}

TEST(StoreNode, OversizeObjectNotCached) {
  StoreNode node(4);
  node.cache_put(Uid160::from_content("big"), to_bytes("toolarge"));
  EXPECT_EQ(node.cache_bytes(), 0u);
}

// --- ObjectStore over the overlay ---

struct StoreFixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::Topology> topo;
  sim::Network net;
  overlay::OverlayNetwork overlay;

  explicit StoreFixture(std::size_t hosts)
      : topo(std::make_shared<sim::UniformTopology>(hosts, duration::millis(10))),
        net(sched, topo),
        overlay(net, no_maintenance()) {
    std::vector<sim::HostId> hs;
    for (sim::HostId h = 0; h < hosts; ++h) hs.push_back(h);
    overlay.build_ring(hs);
  }

  static overlay::OverlayNetwork::Params no_maintenance() {
    overlay::OverlayNetwork::Params p;
    p.maintenance_period = 0;
    return p;
  }
};

TEST(ObjectStore, PutThenGetFromAnywhere) {
  StoreFixture f(16);
  ObjectStore::Params p;
  p.replicas = 3;
  ObjectStore store(f.net, f.overlay, p);

  Result<ObjectId> put_result = Status(Code::kUnavailable, "pending");
  const ObjectId id = store.put(0, to_bytes("the knowledge"), [&](Result<ObjectId> r) {
    put_result = std::move(r);
  });
  f.sched.run();
  ASSERT_TRUE(put_result.is_ok()) << put_result.status().to_string();
  EXPECT_EQ(put_result.value(), id);
  EXPECT_EQ(store.live_replicas(id), 3);

  Result<Bytes> got = Status(Code::kUnavailable, "pending");
  store.get(7, id, [&](Result<Bytes> r) { got = std::move(r); });
  f.sched.run();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(to_string(got.value()), "the knowledge");
}

TEST(ObjectStore, NonMemberIsRejectedAfterReturn) {
  // Host 7 exists on the network but never joined the overlay.
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(8, duration::millis(10));
  sim::Network net(sched, topo);
  overlay::OverlayNetwork overlay(net, StoreFixture::no_maintenance());
  overlay.build_ring({0, 1, 2, 3, 4, 5});
  ObjectStore store(net, overlay, {});
  const ObjectId id = store.put(0, to_bytes("member data"));
  sched.run();

  std::optional<Result<Bytes>> got;
  store.get(7, id, [&](Result<Bytes> r) { got = std::move(r); });
  EXPECT_FALSE(got.has_value());  // not before get() returns
  std::optional<Result<ObjectId>> put;
  store.put(7, to_bytes("outsider"), [&](Result<ObjectId> r) { put = std::move(r); });
  EXPECT_FALSE(put.has_value());  // not before put() returns
  EXPECT_EQ(store.node(7), nullptr);

  sched.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status().code(), Code::kFailedPrecondition);
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(put->status().code(), Code::kFailedPrecondition);
  EXPECT_EQ(store.node(7), nullptr);  // never enrolled
}

TEST(ObjectStore, ContentAddressing) {
  StoreFixture f(8);
  ObjectStore store(f.net, f.overlay, {});
  const ObjectId a = store.put(0, to_bytes("same"));
  const ObjectId b = store.put(1, to_bytes("same"));
  const ObjectId c = store.put(0, to_bytes("different"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  f.sched.run();
}

TEST(ObjectStore, GetMissingReportsNotFound) {
  StoreFixture f(8);
  ObjectStore store(f.net, f.overlay, {});
  Result<Bytes> got = Status(Code::kUnavailable, "pending");
  store.get(2, Uid160::from_content("never stored"), [&](Result<Bytes> r) { got = std::move(r); });
  f.sched.run();
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), Code::kNotFound);
}

TEST(ObjectStore, RepeatGetServedLocallyByCache) {
  StoreFixture f(16);
  ObjectStore store(f.net, f.overlay, {});
  const ObjectId id = store.put(0, to_bytes("hot object"));
  f.sched.run();

  int done = 0;
  store.get(9, id, [&](Result<Bytes> r) { ASSERT_TRUE(r.is_ok()); ++done; });
  f.sched.run();
  const auto before = store.stats().local_hits;
  store.get(9, id, [&](Result<Bytes> r) { ASSERT_TRUE(r.is_ok()); ++done; });
  f.sched.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(store.stats().local_hits, before + 1);  // second hit was local
}

TEST(ObjectStore, CachingDisabledAlwaysFetchesRemotely) {
  StoreFixture f(16);
  ObjectStore::Params p;
  p.promiscuous_cache = false;
  ObjectStore store(f.net, f.overlay, p);
  const ObjectId id = store.put(0, to_bytes("cold object"));
  f.sched.run();
  for (int i = 0; i < 3; ++i) {
    store.get(9, id, [](Result<Bytes> r) { ASSERT_TRUE(r.is_ok()); });
    f.sched.run();
  }
  EXPECT_EQ(store.stats().local_hits, 0u);
}

TEST(ObjectStore, ErasureModeStoresFragmentsAndReconstructs) {
  StoreFixture f(16);
  ObjectStore::Params p;
  p.erasure = true;
  p.ec_data = 4;
  p.ec_parity = 2;
  ObjectStore store(f.net, f.overlay, p);

  Rng rng(6);
  Bytes object = random_bytes(rng, 500);
  const ObjectId id = store.put(3, object);
  f.sched.run();
  EXPECT_EQ(store.live_fragments(id), 6);

  Result<Bytes> got = Status(Code::kUnavailable, "pending");
  store.get(11, id, [&](Result<Bytes> r) { got = std::move(r); });
  f.sched.run();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), object);
  EXPECT_GE(store.stats().reconstructions, 1u);
}

TEST(ObjectStore, ErasureSurvivesFragmentLoss) {
  StoreFixture f(16);
  ObjectStore::Params p;
  p.erasure = true;
  p.ec_data = 3;
  p.ec_parity = 2;
  p.promiscuous_cache = false;  // force reconstruction each time
  ObjectStore store(f.net, f.overlay, p);
  Rng rng(7);
  Bytes object = random_bytes(rng, 300);
  const ObjectId id = store.put(0, object);
  f.sched.run();

  // Kill two fragment holders (sparing the root, which coordinates the
  // reconstruction).
  const auto root = f.overlay.true_root(id);
  sim::ChurnInjector churn(f.net, {});
  int killed = 0;
  for (sim::HostId h = 0; h < 16 && killed < 2; ++h) {
    if (h != root.host && store.node(h)->fragment(id) != nullptr && f.net.host_up(h)) {
      churn.kill(h, false);
      ++killed;
    }
  }
  ASSERT_EQ(killed, 2);

  // Find a live requester that is not the dead fragment holder.
  sim::HostId requester = 0;
  while (!f.net.host_up(requester)) ++requester;
  Result<Bytes> got = Status(Code::kUnavailable, "pending");
  store.get(requester, id, [&](Result<Bytes> r) { got = std::move(r); });
  f.sched.run();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), object);
}

TEST(ObjectStore, SelfHealingRestoresReplicaCount) {
  StoreFixture f(24);
  ObjectStore::Params p;
  p.replicas = 5;  // the paper's running example: "5 copies ... further
                   // copies should be made" (§4.6)
  p.healing_period = duration::seconds(5);
  ObjectStore store(f.net, f.overlay, p);
  // Healing relies on overlay leaf-set repair; enable gossip too.
  // (Overlay was built without maintenance; healing re-push uses current
  // leaf sets, which is sufficient when the root survives.)
  const ObjectId id = store.put(0, to_bytes("precious"));
  f.sched.run_for(duration::seconds(2));
  ASSERT_EQ(store.live_replicas(id), 5);

  // Kill two replica holders that are not the root.
  const auto root = f.overlay.true_root(id);
  sim::ChurnInjector churn(f.net, {});
  int killed = 0;
  for (sim::HostId h = 0; h < 24 && killed < 2; ++h) {
    if (h != root.host && store.node(h)->replica(id) != nullptr && f.net.host_up(h)) {
      churn.kill(h, false);
      ++killed;
    }
  }
  ASSERT_EQ(killed, 2);
  EXPECT_EQ(store.live_replicas(id), 3);

  f.sched.run_for(duration::seconds(30));  // several healing sweeps
  EXPECT_GE(store.live_replicas(id), 5);
  EXPECT_GT(store.stats().heal_pushes, 0u);
}

// --- Healing by digest ---

/// 16 hosts, three copies of 40 objects of distinct sizes placed before
/// the first healing sweep, and a sweep every 5 s.
struct HealingFixture : StoreFixture {
  ObjectStore store;
  SimTime next_sweep;  // the store's sweeps run every period from its construction
  std::map<ObjectId, std::size_t> sizes;

  HealingFixture()
      : StoreFixture(16), store(net, overlay, params()), next_sweep(sched.now() + kPeriod) {
    for (int i = 0; i < 40; ++i) {
      Bytes data(200 + static_cast<std::size_t>(i), static_cast<std::uint8_t>(i));
      const std::size_t size = data.size();
      sizes[store.put(static_cast<sim::HostId>(i % 16), std::move(data))] = size;
    }
    sched.run_for(duration::seconds(2));
  }

  static constexpr SimDuration kPeriod = duration::seconds(5);

  static ObjectStore::Params params() {
    ObjectStore::Params p;
    p.replicas = 3;
    p.healing_period = kPeriod;
    return p;
  }

  /// The ids each object's root offers each other member of its replica
  /// set, keyed by (root, member): one digest per key.
  std::map<std::pair<sim::HostId, sim::HostId>, std::vector<ObjectId>> digests() const {
    std::map<std::pair<sim::HostId, sim::HostId>, std::vector<ObjectId>> out;
    for (const auto& [id, size] : sizes) {
      const sim::HostId root = overlay.true_root(id).host;
      for (const overlay::NodeRef& member : overlay.node_at(root)->replica_set(id, 3)) {
        if (member.host != root) out[{root, member.host}].push_back(id);
      }
    }
    return out;
  }

  static std::uint64_t digest_bytes(
      const std::map<std::pair<sim::HostId, sim::HostId>, std::vector<ObjectId>>& digests) {
    std::uint64_t bytes = 0;
    for (const auto& [pair, ids] : digests) bytes += 8 + 20 * ids.size();
    return bytes;
  }

  /// Runs through the next sweep, which settles within a second, and
  /// returns its traffic.
  sim::NetworkStats sweep() {
    net.reset_stats();
    sched.run_until(next_sweep + duration::seconds(1));
    next_sweep += kPeriod;
    return net.stats();
  }
};

TEST(ObjectStore, FaultFreeSweepSendsOneDigestPerReplicaPeer) {
  HealingFixture f;
  const auto digests = f.digests();
  for (int sweep = 0; sweep < 2; ++sweep) {
    const sim::NetworkStats traffic = f.sweep();
    EXPECT_EQ(traffic.messages_sent, digests.size());  // no wants, no objects
    EXPECT_EQ(traffic.bytes_sent, HealingFixture::digest_bytes(digests));
  }
  EXPECT_EQ(f.store.stats().heal_pushes, 0u);
  for (const auto& [id, size] : f.sizes) EXPECT_EQ(f.store.live_replicas(id), 3);
}

TEST(ObjectStore, SweepShipsOnlyTheReplicasAPeerLacks) {
  HealingFixture f;
  const auto digests = f.digests();
  // A non-root peer holding two objects of one root loses both.
  const auto shared = std::find_if(digests.begin(), digests.end(),
                                   [](const auto& d) { return d.second.size() >= 2; });
  ASSERT_NE(shared, digests.end());
  const sim::HostId peer = shared->first.second;
  const ObjectId a = shared->second[0];
  const ObjectId b = shared->second[1];
  ASSERT_TRUE(f.store.node(peer)->drop_replica(a));
  ASSERT_TRUE(f.store.node(peer)->drop_replica(b));

  const sim::NetworkStats traffic = f.sweep();
  EXPECT_EQ(f.store.stats().heal_pushes, 2u);
  EXPECT_EQ(f.store.live_replicas(a), 3);
  EXPECT_EQ(f.store.live_replicas(b), 3);
  // Every digest, one want naming both ids, and the two pushes.
  EXPECT_EQ(traffic.messages_sent, digests.size() + 1 + 2);
  EXPECT_EQ(traffic.bytes_sent, HealingFixture::digest_bytes(digests) + (8 + 40) +
                                    (f.sizes.at(a) + 24) + (f.sizes.at(b) + 24));
}

TEST(ObjectStore, DigestLostToPartitionIsMadeGoodAfterHeal) {
  HealingFixture f;
  const auto digests = f.digests();
  const auto& [pair, ids] = *digests.begin();
  const auto [root, peer] = pair;
  const ObjectId id = ids.front();
  ASSERT_TRUE(f.store.node(peer)->drop_replica(id));

  f.net.partition("cut", {root}, {peer});
  EXPECT_GT(f.sweep().dropped_by_fault, 0u);
  EXPECT_EQ(f.store.node(peer)->replica(id), nullptr);
  EXPECT_EQ(f.store.stats().heal_pushes, 0u);

  f.net.heal();
  f.sweep();
  EXPECT_NE(f.store.node(peer)->replica(id), nullptr);
  EXPECT_EQ(f.store.stats().heal_pushes, 1u);
  EXPECT_EQ(f.store.live_replicas(id), 3);
}

TEST(ObjectStore, TimeoutWhenRootUnreachable) {
  StoreFixture f(4);
  ObjectStore::Params p;
  p.request_timeout = duration::seconds(2);
  ObjectStore store(f.net, f.overlay, p);
  const ObjectId id = store.put(0, to_bytes("x"));
  f.sched.run();
  // Kill everyone except host 0 so the get can't be served remotely.
  sim::ChurnInjector churn(f.net, {});
  for (sim::HostId h = 1; h < 4; ++h) churn.kill(h, false);
  // host 0 may hold a replica (likely). Drop all local copies to force
  // a remote fetch into the void.
  store.node(0)->drop_replica(id);
  Result<Bytes> got = Status(Code::kUnavailable, "pending");
  store.get(0, id, [&](Result<Bytes> r) { got = std::move(r); });
  f.sched.run_for(duration::seconds(10));
  EXPECT_FALSE(got.is_ok());
}

}  // namespace
}  // namespace aa::storage
