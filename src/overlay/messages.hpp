// Wire messages of the overlay (Plaxton/Pastry-style) routing protocol.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "sim/topology.hpp"

namespace aa::overlay {

inline constexpr const char* kOverlayProto = "ov";

/// A known peer: its ring identifier and the simulated host it runs on.
struct NodeRef {
  NodeId id;
  sim::HostId host = sim::kNoHost;

  bool valid() const { return host != sim::kNoHost; }
  friend bool operator==(const NodeRef& a, const NodeRef& b) { return a.id == b.id; }
};

/// Application message routed by key to the key's root node.
struct RouteMsg {
  ObjectId key;
  std::string app;  // application demux tag (e.g. "store", "ps")
  Bytes payload;
  int hops = 0;
  sim::HostId origin = sim::kNoHost;
};

/// Join request, routed toward the joiner's own id.  Nodes on the path
/// contribute the routing-table rows the joiner will need.
struct JoinRequest {
  NodeRef joiner;
  int hops = 0;
  std::vector<NodeRef> contacts;
};

/// Sent by the joiner's root: accumulated contacts plus the root's leaf
/// set, from which the joiner builds its own.
struct JoinReply {
  std::vector<NodeRef> contacts;
  std::vector<NodeRef> leaf;
  NodeRef root;
};

/// New node introducing itself to the peers it learned about.
struct AnnounceMsg {
  NodeRef who;
};

/// Periodic leaf-set exchange (repair + discovery).  One immutable
/// snapshot of the sender's leaf set is shared by every peer it gossips
/// to in a round.
struct LeafGossip {
  NodeRef from;
  std::shared_ptr<const std::vector<NodeRef>> leaf;
};

inline std::size_t ref_wire_size(std::size_t n_refs) { return 24 * n_refs; }

}  // namespace aa::overlay
