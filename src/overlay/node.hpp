// One overlay node: Pastry-style routing state and forwarding rules
// (Rowstron & Druschel 2001, built on Plaxton's scheme [28] — the
// "deterministic routing algorithm ... which permits the discovery of
// documents stored in a wide area network" the paper selects over
// non-deterministic alternatives like Freenet, §3).
//
// State:
//   * routing table — kDigits rows × 16 columns; the entry at
//     (row r, column c) is a node whose id shares r digits with ours and
//     has digit c at position r.  With proximity neighbour selection
//     (PNS) enabled, among qualifying candidates the lowest-latency one
//     is kept; the C2 ablation compares PNS against first-come entries.
//   * leaf set — the L/2 numerically closest nodes on each side of our
//     id on the ring.  The leaf set determines root ownership: the root
//     of a key is the live node numerically closest to it.  It is read
//     off a bounded pool of near peers kept in clockwise order from our
//     id: successors are the pool's head, predecessors its tail read
//     backwards, so upkeep costs what changed, not a re-sort.
//
// Liveness: a sender checks Network::host_up() before forwarding and
// repairs its state when the candidate is dead.  This models per-hop
// ack timeouts (a real implementation would retransmit and fail over)
// without simulating the retransmission delay; DESIGN.md lists this as
// a substitution.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <vector>

#include "common/small_vector.hpp"
#include "overlay/messages.hpp"
#include "sim/network.hpp"

namespace aa::overlay {

struct NodeStats {
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t repairs = 0;  // dead entries purged
};

class OverlayNode {
 public:
  static constexpr int kLeafSetSize = 8;  // L/2 = 4 each side

  /// Self plus leaf-set members: never more than kLeafSetSize + 1, so
  /// a replica set lives inline.
  using ReplicaSet = SmallVector<NodeRef, kLeafSetSize + 1>;

  OverlayNode(sim::Network& net, NodeRef self, bool proximity_selection);

  const NodeRef& self() const { return self_; }
  const NodeId& id() const { return self_.id; }
  sim::HostId host() const { return self_.host; }

  /// Learns about a peer: offered to the routing table and leaf set.
  void consider(const NodeRef& peer);
  /// Purges a (believed dead) peer from all state.
  void remove(const NodeId& id);

  /// Pastry forwarding decision for `key`; nullopt when this node is the
  /// key's root as far as it can tell.  Dead candidates are repaired and
  /// skipped.
  std::optional<NodeRef> next_hop(const ObjectId& key);

  /// The routing-table row a joiner with `shared` digits of shared
  /// prefix needs from us (our row at that depth), plus ourself.
  std::vector<NodeRef> row_contacts(int shared) const;

  const std::vector<NodeRef>& leaf_set() const { return leaf_; }
  /// This node plus its `count-1` leaf neighbours numerically closest
  /// to `key` — the natural replica set of a key rooted here.
  ReplicaSet replica_set(const ObjectId& key, int count) const;

  /// All distinct peers this node knows (for announcements).
  std::vector<NodeRef> known_peers() const;

  const NodeStats& stats() const { return stats_; }
  std::size_t routing_entries() const;

 private:
  bool alive(const NodeRef& ref) const;
  void repair(const NodeRef& dead);
  void rebuild_leaf();

  sim::Network& net_;
  NodeRef self_;
  bool proximity_selection_;
  std::array<std::array<NodeRef, 16>, Uid160::kDigits> table_{};
  std::vector<NodeRef> leaf_;        // successors nearest first, then predecessors; excludes self
  std::vector<NodeRef> candidates_;  // leaf candidate pool (bounded), by clockwise distance from self
  // The ring segment leaf_ covers, for next_hop's leaf rule: it starts
  // at the furthest counter-clockwise member and spans clockwise to the
  // furthest clockwise one (self stands in for an empty side).
  NodeId span_lo_;
  Uid160 span_;
  NodeStats stats_;
};

}  // namespace aa::overlay
