// Wire messages of the pub/sub protocols.  Bodies travel as aa::Body in
// simulator packets; the byte count charged to the network comes from
// the bus's wire::Codec (wire/codec.hpp) — no message computes its size
// anywhere else (see sim/network.hpp for the accounting model).
#pragma once

#include <cstdint>
#include <vector>

#include "event/event.hpp"
#include "event/filter.hpp"

namespace aa::pubsub {

/// Protocol names registered with the simulated network.
inline constexpr const char* kBrokerProto = "ps.broker";
inline constexpr const char* kClientProto = "ps.client";

struct SubscribeMsg {
  std::uint64_t id = 0;
  event::Filter filter;
};

/// Publisher's declaration of the events it will generate (§3: "Event
/// producers advertise the events that they generate").  Flooded to all
/// brokers; in advertisement-forwarding mode subscriptions propagate
/// only toward overlapping advertisements.
struct AdvertiseMsg {
  std::uint64_t id = 0;
  event::Filter filter;
};

struct UnsubscribeMsg {
  std::uint64_t id = 0;
};

struct PublishMsg {
  event::Event event;
  /// Producer-assigned unique publication id (0 = unstamped).  Brokers
  /// discard a stamped id they have already routed: the reliable
  /// transport dedups retransmits within one peer incarnation, but a
  /// publication processed by a broker that then crashes — with its ack
  /// lost to link faults — comes back via the sender's parked-packet
  /// flush after recovery, and only an end-to-end id catches that.
  std::uint64_t pub_id = 0;
};

/// Broker -> client delivery.
struct DeliverMsg {
  event::Event event;
};

/// Recovering broker -> neighbour: "resend the routing state you hold
/// for my direction" (broker checkpoint recovery, pubsub/broker.cpp).
struct SyncRequestMsg {
  /// Lets the requester match replies to its current recovery round;
  /// stale replies from an earlier round are ignored.
  std::uint64_t round = 0;
};

/// Neighbour -> recovering broker: the subscriptions it had forwarded
/// toward the requester plus the advertisements it knows from other
/// directions — the authoritative replacement for everything the
/// requester's table attributes to this neighbour.
struct SyncReplyMsg {
  std::uint64_t round = 0;
  std::vector<SubscribeMsg> subscriptions;
  std::vector<AdvertiseMsg> advertisements;
};

}  // namespace aa::pubsub
