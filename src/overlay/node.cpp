#include "overlay/node.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

namespace aa::overlay {

namespace {
constexpr std::size_t kCandidatePool = 48;
}

OverlayNode::OverlayNode(sim::Network& net, NodeRef self, bool proximity_selection)
    : net_(net), self_(self), proximity_selection_(proximity_selection), span_lo_(self.id) {}

bool OverlayNode::alive(const NodeRef& ref) const {
  return ref.valid() && net_.host_up(ref.host);
}

void OverlayNode::consider(const NodeRef& peer) {
  if (!peer.valid() || peer.id == self_.id) return;

  // Routing table slot for this peer.
  const int row = self_.id.shared_prefix_digits(peer.id);
  if (row < Uid160::kDigits) {
    const int col = peer.id.digit(row);
    NodeRef& slot = table_[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)];
    if (!slot.valid() || slot.id == peer.id) {
      slot = peer;
    } else if (proximity_selection_) {
      const auto& topo = net_.topology();
      if (topo.latency(self_.host, peer.host) < topo.latency(self_.host, slot.host)) {
        slot = peer;
      }
    }
  }

  // Leaf candidate pool, ordered by clockwise distance from our id.
  // Ids are distinct, so the order is total and a pooled peer sits
  // exactly at its lower bound.
  const Uid160 cw = self_.id.ring_distance_cw(peer.id);
  auto it = std::lower_bound(candidates_.begin(), candidates_.end(), cw,
                             [&](const NodeRef& p, const Uid160& d) {
                               return self_.id.ring_distance_cw(p.id) < d;
                             });
  if (it != candidates_.end() && it->id == peer.id) {
    if (it->host == peer.host) return;  // nothing new: the leaf set cannot change
    it->host = peer.host;               // refresh placement
  } else {
    candidates_.insert(it, peer);
    if (candidates_.size() > kCandidatePool) {
      // Keep the ring-closest peers: drop the one furthest either way.
      candidates_.erase(std::max_element(
          candidates_.begin(), candidates_.end(), [&](const NodeRef& a, const NodeRef& b) {
            return a.id.ring_distance(self_.id) < b.id.ring_distance(self_.id);
          }));
    }
  }
  rebuild_leaf();
}

void OverlayNode::rebuild_leaf() {
  // L/2 nearest successors (the pool's head) and predecessors (its
  // tail, read backwards); a pool of fewer than L peers lists each once.
  const std::size_t half = kLeafSetSize / 2;
  const std::size_t n = candidates_.size();
  const std::size_t successors = std::min(half, n);
  const std::size_t tail_end = std::max(successors, n - std::min(half, n));
  leaf_.assign(candidates_.begin(),
               candidates_.begin() + static_cast<std::ptrdiff_t>(successors));
  for (std::size_t i = n; i > tail_end; --i) leaf_.push_back(candidates_[i - 1]);

  // The furthest member on each half of the ring bounds the segment the
  // leaf set covers.
  NodeId lo = self_.id, hi = self_.id;
  Uid160 best_cw, best_ccw;
  for (const NodeRef& p : leaf_) {
    const Uid160 dcw = self_.id.ring_distance_cw(p.id);
    const Uid160 dccw = p.id.ring_distance_cw(self_.id);
    if (dcw <= dccw && dcw >= best_cw) {
      best_cw = dcw;
      hi = p.id;
    }
    if (dccw < dcw && dccw >= best_ccw) {
      best_ccw = dccw;
      lo = p.id;
    }
  }
  span_lo_ = lo;
  span_ = lo.ring_distance_cw(hi);
}

void OverlayNode::remove(const NodeId& id) {
  for (auto& row : table_) {
    for (auto& slot : row) {
      if (slot.valid() && slot.id == id) slot = NodeRef{};
    }
  }
  // leaf_ is drawn from the pool, so it only changes if the pool did.
  if (std::erase_if(candidates_, [&](const NodeRef& r) { return r.id == id; }) > 0) {
    rebuild_leaf();
  }
}

void OverlayNode::repair(const NodeRef& dead) {
  ++stats_.repairs;
  remove(dead.id);
}

std::optional<NodeRef> OverlayNode::next_hop(const ObjectId& key) {
  // Rule 1 — leaf-set rule.  Dead members are repaired first (each
  // repair heals the leaf set from the pool, which may surface another
  // dead peer); then, if the key falls inside the ring segment the leaf
  // set covers, the numerically closest member owns it.
  for (;;) {
    const auto dead = std::find_if(leaf_.begin(), leaf_.end(),
                                   [&](const NodeRef& p) { return !alive(p); });
    if (dead == leaf_.end()) break;
    repair(NodeRef(*dead));  // a copy: the repair rewrites leaf_
  }
  const bool in_range = leaf_.size() < kLeafSetSize ||  // sparse ring: leaf covers all
                        span_lo_.ring_distance_cw(key) <= span_;
  if (in_range) {
    NodeRef best = self_;
    for (const NodeRef& p : leaf_) {
      if (p.id.closer_to(key, best.id)) best = p;
    }
    if (best.id == self_.id) return std::nullopt;  // we are the root
    return best;
  }

  // Rule 2 — routing-table rule: strict prefix progress.
  const int row = self_.id.shared_prefix_digits(key);
  if (row < Uid160::kDigits) {
    NodeRef& slot = table_[static_cast<std::size_t>(row)][static_cast<std::size_t>(key.digit(row))];
    if (slot.valid()) {
      if (alive(slot)) return slot;
      repair(NodeRef(slot));  // a copy: remove() clears this very slot
    }
  }

  // Rule 3 — rare case: any known node at least as good in prefix and
  // strictly closer on the ring.
  NodeRef best{};
  auto offer = [&](const NodeRef& p) {
    if (!p.valid() || p.id == self_.id) return;
    if (!alive(p)) return;
    if (p.id.shared_prefix_digits(key) < row) return;
    if (!p.id.closer_to(key, self_.id)) return;
    if (!best.valid() || p.id.closer_to(key, best.id)) best = p;
  };
  for (const NodeRef& p : leaf_) offer(p);
  for (const auto& r : table_) {
    for (const NodeRef& p : r) offer(p);
  }
  if (best.valid()) return best;
  return std::nullopt;  // nobody better known: deliver here
}

std::vector<NodeRef> OverlayNode::row_contacts(int shared) const {
  std::vector<NodeRef> out;
  if (shared >= 0 && shared < Uid160::kDigits) {
    for (const NodeRef& p : table_[static_cast<std::size_t>(shared)]) {
      if (p.valid()) out.push_back(p);
    }
  }
  out.push_back(self_);
  return out;
}

OverlayNode::ReplicaSet OverlayNode::replica_set(const ObjectId& key, int count) const {
  // Each member's distance to the key is computed once; sorting by
  // (distance, id) is closer_to's order.
  std::array<std::pair<Uid160, NodeRef>, kLeafSetSize + 1> ranked;
  std::size_t n = 0;
  ranked[n++] = {self_.id.ring_distance(key), self_};
  for (const NodeRef& p : leaf_) ranked[n++] = {p.id.ring_distance(key), p};
  std::sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(n),
            [](const auto& a, const auto& b) {
              return std::tie(a.first, a.second.id) < std::tie(b.first, b.second.id);
            });
  const std::size_t keep = std::min(n, static_cast<std::size_t>(std::max(count, 0)));
  ReplicaSet out;
  for (std::size_t i = 0; i < keep; ++i) out.push_back(ranked[i].second);
  return out;
}

std::vector<NodeRef> OverlayNode::known_peers() const {
  std::vector<NodeRef> out = leaf_;
  for (const auto& row : table_) {
    for (const NodeRef& p : row) {
      if (p.valid() && std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
    }
  }
  return out;
}

std::size_t OverlayNode::routing_entries() const {
  std::size_t n = 0;
  for (const auto& row : table_) {
    for (const NodeRef& p : row) {
      if (p.valid()) ++n;
    }
  }
  return n;
}

}  // namespace aa::overlay
