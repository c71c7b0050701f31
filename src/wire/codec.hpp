// Wire codecs for the pub/sub message set.
//
// The choice of wire form is a property of the event bus, fixed when it
// is built: one bus speaks one codec on every link (SienaNetwork's
// constructor).  The simulator ships message structs and charges each
// send the size its codec gives; no simulated send encodes a message.
// Two codecs exist:
//
//   * kXml    — the paper's XML-encoded events (§4.2), as a size model.
//     Datagram sizes reproduce the pre-codec accounting formulas
//     byte-for-byte (the chaos suite pins exact traffic counters
//     against them) and are computed from the attributes without
//     rendering.  Its frame_size() models a 16-byte frame header plus
//     2-byte member length prefixes.
//   * kBinary — a length-prefixed binary form: varint integers, events
//     and filters as tagged (name, type, value) tuples.  Attribute
//     names travel as spelled — AtomIds are process-local interning
//     handles and must never leak to the wire — so the byte form is
//     stable across processes and pinned by a golden fixture.  Every
//     size() is the exact encoded length (asserted by tests), so
//     traffic accounting equals real serialisation cost.
//
// The binary frame is the only byte format, realised by
// encode_frame()/decode_frame():
//
//   magic 0xB5 | version 0x01 | varint member count |
//   repeat: kind u8 | varint body length | body bytes
//
// A standalone binary datagram is a frame of one member.  Per-link
// batching (sim/network.hpp) coalesces packets for one neighbour into a
// single physical frame; frame_size() gives the frame's byte cost from
// its members' standalone datagram sizes.
#pragma once

#include <any>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "pubsub/messages.hpp"

namespace aa::wire {

enum class WireCodec : std::uint8_t { kXml = 0, kBinary = 1 };

const char* codec_name(WireCodec c);
Result<WireCodec> codec_from_name(std::string_view name);

class Codec {
 public:
  virtual ~Codec() = default;
  virtual WireCodec id() const = 0;
  const char* name() const { return codec_name(id()); }

  // --- standalone datagram sizes ---
  //
  // The single place each message kind's byte cost is defined, shared
  // by the broker-based event services (siena at any broker count,
  // including C1's one-broker central row, and C1's flooding baseline)
  // so their traffic accounting stays comparable.
  virtual std::size_t size(const pubsub::SubscribeMsg& m) const = 0;
  virtual std::size_t size(const pubsub::AdvertiseMsg& m) const = 0;
  virtual std::size_t size(const pubsub::UnsubscribeMsg& m) const = 0;
  virtual std::size_t size(const pubsub::PublishMsg& m) const = 0;
  virtual std::size_t size(const pubsub::DeliverMsg& m) const = 0;
  virtual std::size_t size(const pubsub::SyncRequestMsg& m) const = 0;
  virtual std::size_t size(const pubsub::SyncReplyMsg& m) const = 0;

  /// Writes a publication in this codec's form: the binary publish
  /// body, or the u64 pub_id and the event's XML document.  Only
  /// bench_e2e's codec_encode probe calls it; the bus charges size().
  virtual void encode(BufWriter& w, const pubsub::PublishMsg& m) const = 0;

  /// Byte cost of one physical frame coalescing members whose
  /// *standalone datagram* sizes are given.  Exact for the binary
  /// layout; a header-amortisation model for XML.
  virtual std::size_t frame_size(std::span<const std::size_t> datagram_sizes) const = 0;
};

/// Process-wide codec singletons.
const Codec& xml_codec();
const Codec& binary_codec();
const Codec& codec(WireCodec c);

/// The binary frame over pubsub message bodies (golden fixture, fuzz and
/// round-trip checks).  encode_frame fails on a body that is not a
/// pubsub message: overlay, storage and transport structs batch by size
/// accounting only.  decode_frame fails on any malformed frame and never
/// reads outside `bytes`.
Result<Bytes> encode_frame(std::span<const std::any> bodies);
Result<std::vector<std::any>> decode_frame(std::span<const std::uint8_t> bytes);

}  // namespace aa::wire
