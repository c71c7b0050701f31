// Tests for the Plaxton/Pastry overlay: identifier algebra, leaf-set
// and routing-table construction, routing correctness (messages reach
// the key's true root), logarithmic hop scaling, and repair under churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "overlay/overlay_network.hpp"
#include "sim/churn.hpp"

namespace aa::overlay {
namespace {

struct Fixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::Topology> topo;
  sim::Network net;

  explicit Fixture(std::size_t hosts, SimDuration latency = duration::millis(10))
      : topo(std::make_shared<sim::UniformTopology>(hosts, latency)), net(sched, topo) {}
};

std::vector<sim::HostId> hosts_upto(sim::HostId n) {
  std::vector<sim::HostId> v;
  for (sim::HostId h = 0; h < n; ++h) v.push_back(h);
  return v;
}

TEST(OverlayNode, ConsiderFillsRoutingSlot) {
  Fixture f(4);
  OverlayNode node(f.net, {Uid160::from_content("self"), 0}, false);
  const NodeRef peer{Uid160::from_content("peer"), 1};
  node.consider(peer);
  EXPECT_GE(node.routing_entries(), 1u);
  EXPECT_EQ(node.leaf_set().size(), 1u);
}

TEST(OverlayNode, IgnoresSelfAndInvalid) {
  Fixture f(4);
  const NodeRef self{Uid160::from_content("self"), 0};
  OverlayNode node(f.net, self, false);
  node.consider(self);
  node.consider(NodeRef{});
  EXPECT_EQ(node.routing_entries(), 0u);
  EXPECT_TRUE(node.leaf_set().empty());
}

TEST(OverlayNode, RemovePurgesPeer) {
  Fixture f(4);
  OverlayNode node(f.net, {Uid160::from_content("self"), 0}, false);
  const NodeRef peer{Uid160::from_content("peer"), 1};
  node.consider(peer);
  node.remove(peer.id);
  EXPECT_EQ(node.routing_entries(), 0u);
  EXPECT_TRUE(node.leaf_set().empty());
}

TEST(OverlayNode, NextHopNulloptWhenAlone) {
  Fixture f(4);
  OverlayNode node(f.net, {Uid160::from_content("self"), 0}, false);
  EXPECT_FALSE(node.next_hop(Uid160::from_content("key")).has_value());
}

TEST(OverlayNode, ReplicaSetClosestFirst) {
  Fixture f(8);
  OverlayNode node(f.net, {Uid160::from_content("self"), 0}, false);
  Rng rng(1);
  for (sim::HostId h = 1; h < 8; ++h) node.consider(NodeRef{rng.uid(), h});
  const ObjectId key = Uid160::from_content("obj");
  const auto set = node.replica_set(key, 3);
  ASSERT_LE(set.size(), 3u);
  for (std::size_t i = 1; i < set.size(); ++i) {
    EXPECT_TRUE(set[i - 1].id.closer_to(key, set[i].id));
  }
}

TEST(OverlayNode, RoutingRuleRepairPurgesDeadPeerFromPool) {
  // A dead peer met by the routing-table rule (not the leaf rule) must
  // leave the candidate pool too, not only its table slot: otherwise it
  // resurfaces in the leaf set once nearer peers go.  The pool is not
  // observable directly, so remove every other peer and look at what
  // the leaf set draws from it.
  constexpr sim::HostId kHosts = 41;
  Fixture f(kHosts);
  OverlayNode node(f.net, {Uid160::from_content("self"), 0}, false);
  Rng rng(77);
  std::vector<NodeRef> peers;
  for (sim::HostId h = 1; h < kHosts; ++h) {
    peers.push_back(NodeRef{rng.uid(), h});  // one peer per host
    node.consider(peers.back());
  }
  // A table entry outside the leaf set: keying on its own id misses the
  // leaf span, so next_hop reaches it through the routing-table rule.
  const std::vector<NodeRef> leaf = node.leaf_set();
  const auto known = node.known_peers();
  const auto dead = std::find_if(known.begin(), known.end(), [&](const NodeRef& p) {
    return std::find(leaf.begin(), leaf.end(), p) == leaf.end();
  });
  ASSERT_NE(dead, known.end());
  const NodeRef victim = *dead;
  f.net.set_host_up(victim.host, false);

  const std::uint64_t repairs_before = node.stats().repairs;
  const auto hop = node.next_hop(victim.id);
  ASSERT_EQ(node.stats().repairs, repairs_before + 1);  // the table rule's repair
  ASSERT_TRUE(!hop.has_value() || hop->id != victim.id);
  EXPECT_EQ(node.leaf_set(), leaf);

  for (const NodeRef& p : peers) {
    if (p.id != victim.id) node.remove(p.id);
  }
  EXPECT_TRUE(node.leaf_set().empty()) << "the dead peer is still pooled";
}

// The re-sorting leaf-set upkeep the ordered candidate pool replaced,
// kept whole as its oracle: an unordered pool trimmed by a sort on ring
// distance, successors and predecessors found by sorting two copies,
// and the leaf span recomputed on every next_hop.
class SortOracleNode {
 public:
  SortOracleNode(sim::Network& net, NodeRef self) : net_(net), self_(self) {}

  const std::vector<NodeRef>& leaf() const { return leaf_; }
  std::uint64_t repairs() const { return repairs_; }

  void consider(const NodeRef& peer) {
    if (!peer.valid() || peer.id == self_.id) return;
    const int row = self_.id.shared_prefix_digits(peer.id);
    if (row < Uid160::kDigits) {
      NodeRef& slot = table_[static_cast<std::size_t>(row)][static_cast<std::size_t>(peer.id.digit(row))];
      if (!slot.valid() || slot.id == peer.id) {
        slot = peer;
      } else if (net_.topology().latency(self_.host, peer.host) <
                 net_.topology().latency(self_.host, slot.host)) {
        slot = peer;
      }
    }
    rebuild_leaf(peer);
  }

  void remove(const NodeId& id) {
    for (auto& row : table_) {
      for (auto& slot : row) {
        if (slot.valid() && slot.id == id) slot = NodeRef{};
      }
    }
    std::erase_if(candidates_, [&](const NodeRef& r) { return r.id == id; });
    rebuild_leaf(NodeRef{});
  }

  std::optional<NodeRef> next_hop(const ObjectId& key) {
    for (;;) {
      NodeRef furthest_cw{}, furthest_ccw{};
      Uid160 best_cw, best_ccw;
      bool repaired = false;
      for (const NodeRef& p : leaf_) {
        if (!alive(p)) {
          repair(p);
          repaired = true;
          break;
        }
        const Uid160 dcw = self_.id.ring_distance_cw(p.id);
        const Uid160 dccw = p.id.ring_distance_cw(self_.id);
        if (dcw <= dccw && dcw >= best_cw) {
          best_cw = dcw;
          furthest_cw = p;
        }
        if (dccw < dcw && dccw >= best_ccw) {
          best_ccw = dccw;
          furthest_ccw = p;
        }
      }
      if (repaired) continue;
      const NodeId lo = furthest_ccw.valid() ? furthest_ccw.id : self_.id;
      const NodeId hi = furthest_cw.valid() ? furthest_cw.id : self_.id;
      if (leaf_.empty() || lo.ring_distance_cw(key) <= lo.ring_distance_cw(hi) ||
          leaf_.size() < OverlayNode::kLeafSetSize) {
        NodeRef best = self_;
        for (const NodeRef& p : leaf_) {
          if (p.id.closer_to(key, best.id)) best = p;
        }
        if (best.id == self_.id) return std::nullopt;
        return best;
      }
      break;
    }
    const int row = self_.id.shared_prefix_digits(key);
    if (row < Uid160::kDigits) {
      NodeRef& slot = table_[static_cast<std::size_t>(row)][static_cast<std::size_t>(key.digit(row))];
      if (slot.valid()) {
        if (alive(slot)) return slot;
        repair(NodeRef(slot));
      }
    }
    NodeRef best{};
    auto offer = [&](const NodeRef& p) {
      if (!p.valid() || p.id == self_.id || !alive(p)) return;
      if (p.id.shared_prefix_digits(key) < row) return;
      if (!p.id.closer_to(key, self_.id)) return;
      if (!best.valid() || p.id.closer_to(key, best.id)) best = p;
    };
    for (const NodeRef& p : leaf_) offer(p);
    for (const auto& r : table_) {
      for (const NodeRef& p : r) offer(p);
    }
    if (best.valid()) return best;
    return std::nullopt;
  }

  std::vector<NodeRef> replica_set(const ObjectId& key, int count) const {
    std::vector<NodeRef> all = leaf_;
    all.push_back(self_);
    std::sort(all.begin(), all.end(),
              [&](const NodeRef& a, const NodeRef& b) { return a.id.closer_to(key, b.id); });
    if (static_cast<int>(all.size()) > count) all.resize(static_cast<std::size_t>(count));
    return all;
  }

 private:
  bool alive(const NodeRef& ref) const { return ref.valid() && net_.host_up(ref.host); }

  void repair(const NodeRef& dead) {
    ++repairs_;
    remove(dead.id);
  }

  void rebuild_leaf(const NodeRef& extra) {
    if (extra.valid() && extra.id != self_.id) {
      auto it = std::find(candidates_.begin(), candidates_.end(), extra);
      if (it != candidates_.end()) {
        it->host = extra.host;
      } else {
        candidates_.push_back(extra);
      }
    }
    if (candidates_.size() > 48) {
      std::sort(candidates_.begin(), candidates_.end(), [&](const NodeRef& a, const NodeRef& b) {
        return a.id.ring_distance(self_.id) < b.id.ring_distance(self_.id);
      });
      candidates_.resize(48);
    }
    std::vector<NodeRef> cw = candidates_;
    std::sort(cw.begin(), cw.end(), [&](const NodeRef& a, const NodeRef& b) {
      return self_.id.ring_distance_cw(a.id) < self_.id.ring_distance_cw(b.id);
    });
    std::vector<NodeRef> ccw = candidates_;
    std::sort(ccw.begin(), ccw.end(), [&](const NodeRef& a, const NodeRef& b) {
      return a.id.ring_distance_cw(self_.id) < b.id.ring_distance_cw(self_.id);
    });
    const std::size_t half = OverlayNode::kLeafSetSize / 2;
    leaf_.clear();
    for (std::size_t i = 0; i < std::min(half, cw.size()); ++i) leaf_.push_back(cw[i]);
    for (std::size_t i = 0; i < std::min(half, ccw.size()); ++i) {
      if (std::find(leaf_.begin(), leaf_.end(), ccw[i]) == leaf_.end()) leaf_.push_back(ccw[i]);
    }
  }

  sim::Network& net_;
  NodeRef self_;
  std::array<std::array<NodeRef, 16>, Uid160::kDigits> table_{};
  std::vector<NodeRef> leaf_;
  std::vector<NodeRef> candidates_;
  std::uint64_t repairs_ = 0;
};

/// (id, host) pairs: NodeRef's operator== looks at ids only.  Takes the
/// leaf set's vector and the replica set's inline vector alike.
std::vector<std::pair<NodeId, sim::HostId>> placed(std::span<const NodeRef> refs) {
  std::vector<std::pair<NodeId, sim::HostId>> out;
  for (const NodeRef& r : refs) out.emplace_back(r.id, r.host);
  return out;
}

TEST(OverlayNode, LeafSetMatchesSortOracle) {
  // Random upkeep on one node and its oracle in lockstep: considers of
  // new ids, repeats and host changes over 160 peers (so the 48-entry
  // pool trims), removes, and hosts failing and returning (so next_hop
  // repairs).  Every leaf set, replica set and routing decision agrees.
  constexpr sim::HostId kHosts = 64;
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::EuclideanTopology>(kHosts, 1000.0, duration::millis(1),
                                                       duration::micros(100), 7);
  sim::Network net(sched, topo);
  Rng rng(2003);
  std::array<std::uint8_t, 20> self_bytes = rng.uid().bytes();
  self_bytes[19] = 0x80;  // leaves room for the equidistant pair below
  const NodeRef self{Uid160(self_bytes), 0};
  OverlayNode node(net, self, /*proximity_selection=*/true);
  SortOracleNode oracle(net, self);

  std::vector<NodeRef> peers;
  for (int i = 0; i < 160; ++i) {
    peers.push_back(NodeRef{rng.uid(), static_cast<sim::HostId>(1 + rng.below(kHosts - 1))});
  }
  for (int step = 0; step < 3000; ++step) {
    NodeRef& peer = peers[rng.below(peers.size())];
    const std::uint64_t op = rng.below(20);
    if (op < 15) {
      if (op == 0) peer.host = static_cast<sim::HostId>(1 + rng.below(kHosts - 1));
      node.consider(peer);
      oracle.consider(peer);
    } else if (op < 17) {
      node.remove(peer.id);
      oracle.remove(peer.id);
    } else if (op == 17) {
      net.set_host_up(peer.host, !net.host_up(peer.host));
    }
    ASSERT_EQ(placed(node.leaf_set()), placed(oracle.leaf())) << "step " << step;
    for (int k = 0; k < 4; ++k) {
      const ObjectId key = rng.uid();
      ASSERT_EQ(placed(node.replica_set(key, 3)), placed(oracle.replica_set(key, 3)));
      const auto got = node.next_hop(key);
      const auto want = oracle.next_hop(key);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (got.has_value()) {
        ASSERT_EQ(got->id, want->id);
        ASSERT_EQ(got->host, want->host);
      }
      ASSERT_EQ(placed(node.leaf_set()), placed(oracle.leaf())) << "step " << step;
    }
    ASSERT_EQ(node.stats().repairs, oracle.repairs());
  }
  EXPECT_GT(node.stats().repairs, 0u);

  // Our nearest successor and predecessor, equidistant from our own id,
  // rank by id (closer_to's tie-break), not by their leaf-set order.
  for (const std::uint8_t last : {0x83, 0x7D}) {
    self_bytes[19] = last;
    node.consider(NodeRef{Uid160(self_bytes), 1});
    oracle.consider(NodeRef{Uid160(self_bytes), 1});
  }
  ASSERT_EQ(placed(node.replica_set(self.id, 9)), placed(oracle.replica_set(self.id, 9)));
}

// --- Ring construction + routing correctness ---

TEST(OverlayNetwork, RoutesToTrueRoot) {
  Fixture f(32);
  OverlayNetwork::Params params;
  params.maintenance_period = 0;  // quiescent scheduler => run() terminates
  OverlayNetwork overlay(f.net, params);
  overlay.build_ring(hosts_upto(32));

  Rng rng(99);
  int delivered = 0, at_true_root = 0;
  // Register the app on every node; record where messages land.
  for (sim::HostId h : overlay.node_hosts()) {
    overlay.register_app("test", h,
                         [&, h](const ObjectId& key, const Bytes&, const RouteInfo&) {
                           ++delivered;
                           if (overlay.true_root(key).host == h) ++at_true_root;
                         });
  }
  for (int i = 0; i < 50; ++i) {
    overlay.route(static_cast<sim::HostId>(rng.below(32)), rng.uid(), "test", {});
  }
  f.sched.run();
  EXPECT_EQ(delivered, 50);
  // With settled leaf sets every delivery lands at the numerically
  // closest node.
  EXPECT_EQ(at_true_root, 50);
}

TEST(OverlayNetwork, RouteCarriesPayloadAndOrigin) {
  Fixture f(8);
  OverlayNetwork::Params params;
  params.maintenance_period = 0;
  OverlayNetwork overlay(f.net, params);
  overlay.build_ring(hosts_upto(8));
  Bytes got;
  sim::HostId origin = sim::kNoHost;
  for (sim::HostId h : overlay.node_hosts()) {
    overlay.register_app("test", h, [&](const ObjectId&, const Bytes& b, const RouteInfo& i) {
      got = b;
      origin = i.origin;
    });
  }
  overlay.route(3, Uid160::from_content("k"), "test", to_bytes("payload!"));
  f.sched.run();
  EXPECT_EQ(to_string(got), "payload!");
  EXPECT_EQ(origin, 3u);
}

TEST(OverlayNetwork, HopCountScalesLogarithmically) {
  auto mean_hops = [](std::size_t n) {
    Fixture f(n);
    OverlayNetwork::Params params;
    params.maintenance_period = 0;
    OverlayNetwork overlay(f.net, params);
    overlay.build_ring(hosts_upto(static_cast<sim::HostId>(n)));
    for (sim::HostId h : overlay.node_hosts()) {
      overlay.register_app("t", h, [](const ObjectId&, const Bytes&, const RouteInfo&) {});
    }
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
      overlay.route(static_cast<sim::HostId>(rng.below(n)), rng.uid(), "t", {});
    }
    f.sched.run();
    return overlay.route_hops().mean();
  };
  const double h64 = mean_hops(64);
  const double h256 = mean_hops(256);
  // Growth should be sub-linear: 4x nodes, far less than 4x hops.
  EXPECT_LT(h256, h64 * 2.0);
  // And hops stay near log16(N): generous upper bounds.
  EXPECT_LT(h64, 2.0 + std::log2(64) / 4.0 * 2.0);
}

TEST(OverlayNetwork, SurvivesNodeFailures) {
  Fixture f(48);
  OverlayNetwork::Params params;
  params.maintenance_period = duration::seconds(2);
  OverlayNetwork overlay(f.net, params);
  overlay.build_ring(hosts_upto(48));

  int delivered = 0;
  for (sim::HostId h : overlay.node_hosts()) {
    overlay.register_app("t", h,
                         [&](const ObjectId&, const Bytes&, const RouteInfo&) { ++delivered; });
  }

  // Kill a quarter of the nodes abruptly.
  sim::ChurnInjector churn(f.net, {});
  Rng rng(17);
  for (int i = 0; i < 12; ++i) {
    churn.kill(static_cast<sim::HostId>(1 + rng.below(47)), /*graceful=*/false);
  }
  // Let maintenance gossip repair leaf sets.
  f.sched.run_for(duration::seconds(20));

  int sent = 0;
  for (int i = 0; i < 60; ++i) {
    const sim::HostId from = static_cast<sim::HostId>(rng.below(48));
    if (!f.net.host_up(from)) continue;
    overlay.route(from, rng.uid(), "t", {});
    ++sent;
  }
  f.sched.run_for(duration::seconds(30));
  EXPECT_EQ(delivered, sent);
}

TEST(OverlayNetwork, DeliversAtTrueRootAfterChurnAndRepair) {
  Fixture f(32);
  OverlayNetwork::Params params;
  params.maintenance_period = duration::seconds(1);
  OverlayNetwork overlay(f.net, params);
  overlay.build_ring(hosts_upto(32));

  sim::ChurnInjector churn(f.net, {});
  for (sim::HostId h : {3u, 9u, 21u}) churn.kill(h, false);
  f.sched.run_for(duration::seconds(30));  // ample gossip rounds

  Rng rng(23);
  int at_root = 0, total = 0;
  for (sim::HostId h : overlay.node_hosts()) {
    overlay.register_app("t", h, [&, h](const ObjectId& key, const Bytes&, const RouteInfo&) {
      ++total;
      if (overlay.true_root(key).host == h) ++at_root;
    });
  }
  for (int i = 0; i < 40; ++i) {
    sim::HostId from = static_cast<sim::HostId>(rng.below(32));
    while (!f.net.host_up(from)) from = static_cast<sim::HostId>(rng.below(32));
    overlay.route(from, rng.uid(), "t", {});
  }
  f.sched.run_for(duration::seconds(30));
  EXPECT_EQ(total, 40);
  EXPECT_EQ(at_root, 40);
}

TEST(OverlayNetwork, GossipDoesNotResurrectCrashedPeer) {
  // Maintenance purges a crashed leaf member and heals from the pool;
  // the gossip that follows must not carry it back to the receivers.
  Fixture f(32);
  OverlayNetwork overlay(f.net);  // default 30 s maintenance period
  overlay.build_ring(hosts_upto(32));
  f.sched.run_for(duration::seconds(60));
  auto holders = [&] {
    int n = 0;
    for (sim::HostId h : overlay.node_hosts()) {
      if (!f.net.host_up(h)) continue;
      for (const NodeRef& p : overlay.node_at(h)->leaf_set()) n += p.host == 7 ? 1 : 0;
    }
    return n;
  };
  ASSERT_GT(holders(), 0);
  f.net.set_host_up(7, false);
  f.sched.run_for(duration::seconds(30));
  EXPECT_EQ(holders(), 0);
}

TEST(OverlayNetwork, ProximityNeighbourSelectionLowersStretch) {
  // On a Euclidean topology, PNS should give routes with total latency
  // closer to the direct latency than random neighbour selection.
  auto mean_stretch = [](bool pns) {
    sim::Scheduler sched;
    auto topo = std::make_shared<sim::EuclideanTopology>(128, 1000.0, duration::millis(1),
                                                         duration::micros(100), 7);
    sim::Network net(sched, topo);
    OverlayNetwork::Params params;
    params.proximity_selection = pns;
    params.maintenance_period = 0;
    OverlayNetwork overlay(net, params);
    overlay.build_ring(hosts_upto(128));

    // Measure routed latency vs direct latency origin->root.
    double sum_stretch = 0;
    int count = 0;
    SimTime sent_at = 0;
    sim::HostId origin = 0;
    for (sim::HostId h : overlay.node_hosts()) {
      overlay.register_app("t", h, [&, h](const ObjectId&, const Bytes&, const RouteInfo& info) {
        const SimDuration direct = topo->latency(info.origin, h);
        const SimDuration actual = sched.now() - sent_at;
        if (direct > 0) {
          sum_stretch += static_cast<double>(actual) / static_cast<double>(direct);
          ++count;
        }
      });
    }
    Rng rng(31);
    for (int i = 0; i < 80; ++i) {
      origin = static_cast<sim::HostId>(rng.below(128));
      sent_at = sched.now();
      overlay.route(origin, rng.uid(), "t", {});
      sched.run();  // one message at a time so latency attribution is exact
    }
    return count > 0 ? sum_stretch / count : 1e9;
  };
  EXPECT_LT(mean_stretch(true), mean_stretch(false));
}

TEST(OverlayNetwork, RoutingTablesStayCompact) {
  Fixture f(64);
  OverlayNetwork::Params params;
  params.maintenance_period = 0;
  OverlayNetwork overlay(f.net, params);
  overlay.build_ring(hosts_upto(64));
  // Pastry expects ~log16(N) populated rows of <=15 entries; allow slack
  // but verify we are nowhere near O(N) state per node.
  for (sim::HostId h : overlay.node_hosts()) {
    EXPECT_LT(overlay.node_at(h)->routing_entries(), 40u);
  }
}

}  // namespace
}  // namespace aa::overlay
