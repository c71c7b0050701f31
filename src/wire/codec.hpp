// Negotiable wire codecs for the pub/sub message set.
//
// XML is a serialization-only concern (the golden SHA-1 pins the byte
// form behind to_xml/parse); this layer makes the *choice* of wire form
// a property of the event bus.  Two codecs exist:
//
//   * kXml    — the interop/golden form.  Datagram sizes reproduce the
//     pre-codec accounting formulas byte-for-byte (the chaos suite pins
//     exact traffic counters against them), and events encode as the
//     golden-pinned XML documents.
//   * kBinary — a length-prefixed binary form: varint integers, events
//     and filters as tagged (name, type, value) tuples.  Attribute
//     names travel as spelled — AtomIds are process-local interning
//     handles and must never leak to the wire — so the byte form is
//     stable across processes and pinned by a golden fixture of its
//     own.  Every size() here is the exact encoded length (asserted by
//     tests), so traffic accounting equals real serialisation cost.
//
// One event bus speaks one codec on every link (SienaNetwork::set_codec).
//
// Framing: per-link batching (sim/network.hpp) coalesces packets for
// one neighbour into a single physical frame; frame_size() gives the
// frame's byte cost from its members' standalone datagram sizes, and
// encode_frame()/decode_frame() realise the binary frame layout
//
//   magic 0xB5 | version 0x01 | varint member count |
//   repeat: kind u8 | varint body length | body bytes
//
// for the golden/fuzz tests.  XML stays a datagram-per-message interop
// form; its frame_size() models a 16-byte frame header plus 2-byte
// member length prefixes but has no byte-level frame encoding.
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

/// Message kind tags of the binary frame layout.  Wire-stable: append
/// only.
enum class MsgKind : std::uint8_t {
  kSubscribe = 1,
  kAdvertise = 2,
  kUnsubscribe = 3,
  kPublish = 4,
  kDeliver = 5,
  kSyncRequest = 6,
  kSyncReply = 7,
};

class Codec {
 public:
  virtual ~Codec() = default;
  virtual WireCodec id() const = 0;
  const char* name() const { return codec_name(id()); }

  // --- standalone datagram sizes ---
  //
  // The single place each message kind's byte cost is defined, shared
  // by the broker-based event services (siena at any broker count,
  // including C1's one-broker central row, and flooding) so their
  // traffic accounting stays comparable.
  virtual std::size_t size(const pubsub::SubscribeMsg& m) const = 0;
  virtual std::size_t size(const pubsub::AdvertiseMsg& m) const = 0;
  virtual std::size_t size(const pubsub::UnsubscribeMsg& m) const = 0;
  virtual std::size_t size(const pubsub::PublishMsg& m) const = 0;
  virtual std::size_t size(const pubsub::DeliverMsg& m) const = 0;
  virtual std::size_t size(const pubsub::SyncRequestMsg& m) const = 0;
  virtual std::size_t size(const pubsub::SyncReplyMsg& m) const = 0;

  // --- message body encode/decode ---
  //
  // The body is the kind-specific payload inside a frame member (the
  // frame header carries the kind tag and length).  For the binary
  // codec the encoded body length is exactly size(m) minus the
  // one-member frame envelope; tests assert the equality.
  virtual void encode(BufWriter& w, const pubsub::SubscribeMsg& m) const = 0;
  virtual void encode(BufWriter& w, const pubsub::AdvertiseMsg& m) const = 0;
  virtual void encode(BufWriter& w, const pubsub::UnsubscribeMsg& m) const = 0;
  virtual void encode(BufWriter& w, const pubsub::PublishMsg& m) const = 0;
  virtual void encode(BufWriter& w, const pubsub::DeliverMsg& m) const = 0;
  virtual void encode(BufWriter& w, const pubsub::SyncRequestMsg& m) const = 0;
  virtual void encode(BufWriter& w, const pubsub::SyncReplyMsg& m) const = 0;

  virtual Result<pubsub::SubscribeMsg> decode_subscribe(BufReader& r) const = 0;
  virtual Result<pubsub::AdvertiseMsg> decode_advertise(BufReader& r) const = 0;
  virtual Result<pubsub::UnsubscribeMsg> decode_unsubscribe(BufReader& r) const = 0;
  virtual Result<pubsub::PublishMsg> decode_publish(BufReader& r) const = 0;
  virtual Result<pubsub::DeliverMsg> decode_deliver(BufReader& r) const = 0;
  virtual Result<pubsub::SyncRequestMsg> decode_sync_request(BufReader& r) const = 0;
  virtual Result<pubsub::SyncReplyMsg> decode_sync_reply(BufReader& r) const = 0;

  // --- framing ---

  /// Byte cost of one physical frame coalescing members whose
  /// *standalone datagram* sizes are given.  Exact for the binary
  /// layout; a header-amortisation model for XML.
  virtual std::size_t frame_size(std::span<const std::size_t> datagram_sizes) const = 0;
};

/// Process-wide codec singletons.
const Codec& xml_codec();
const Codec& binary_codec();
const Codec& codec(WireCodec c);

/// Encodes one frame member (kind tag + length + body) from a packet's
/// std::any body.  Returns false for non-pubsub bodies (overlay,
/// storage, transport internals) — those batch by size accounting only.
bool encode_member(BufWriter& w, const Codec& c, const std::any& body);

/// Full binary frame over pubsub message bodies (golden fixture, fuzz
/// and round-trip tests; the simulator itself ships structs and charges
/// sizes).  Fails on bodies encode_member() rejects and, for the XML
/// codec, always (XML has no frame byte layout).
Result<Bytes> encode_frame(const Codec& c, std::span<const std::any> bodies);
Result<std::vector<std::any>> decode_frame(const Codec& c,
                                           std::span<const std::uint8_t> bytes);

}  // namespace aa::wire
