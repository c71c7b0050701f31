#include "wire/codec.hpp"

#include <string>

namespace aa::wire {

namespace {

using pubsub::AdvertiseMsg;
using pubsub::DeliverMsg;
using pubsub::PublishMsg;
using pubsub::SubscribeMsg;
using pubsub::SyncReplyMsg;
using pubsub::SyncRequestMsg;
using pubsub::UnsubscribeMsg;

// Binary frame envelope: magic, version, then varint member count.
constexpr std::uint8_t kFrameMagic = 0xB5;
constexpr std::uint8_t kFrameVersion = 0x01;
// Decode-side cap on the member count so a corrupt count byte cannot
// drive allocation (the fuzz loop feeds arbitrary bytes here).
constexpr std::uint64_t kMaxFrameMembers = 1 << 16;

/// Member kind tags of the binary frame layout.  Wire-stable: append
/// only.
enum class Kind : std::uint8_t {
  kSubscribe = 1,
  kAdvertise = 2,
  kUnsubscribe = 3,
  kPublish = 4,
  kDeliver = 5,
  kSyncRequest = 6,
  kSyncReply = 7,
};

// ---------------------------------------------------------------------
// XML codec: the paper's XML wire form as a size model.  Sizes
// reproduce the pre-codec accounting formulas exactly — the chaos suite
// pins exact byte counters for clean unbatched XML runs, so these
// constants are golden.
// ---------------------------------------------------------------------

class XmlCodec final : public Codec {
 public:
  WireCodec id() const override { return WireCodec::kXml; }

  static std::size_t filter_size(const event::Filter& f) {
    return f.describe_size() + 16;
  }

  std::size_t size(const SubscribeMsg& m) const override {
    return filter_size(m.filter) + 8;
  }
  std::size_t size(const AdvertiseMsg& m) const override {
    return filter_size(m.filter) + 8;
  }
  std::size_t size(const UnsubscribeMsg&) const override { return 16; }
  std::size_t size(const PublishMsg& m) const override { return m.event.wire_size(); }
  std::size_t size(const DeliverMsg& m) const override { return m.event.wire_size(); }
  std::size_t size(const SyncRequestMsg&) const override { return 16; }
  std::size_t size(const SyncReplyMsg& m) const override {
    std::size_t total = 24;
    for (const SubscribeMsg& s : m.subscriptions) total += size(s);
    for (const AdvertiseMsg& a : m.advertisements) total += size(a);
    return total;
  }

  void encode(BufWriter& w, const PublishMsg& m) const override {
    w.u64(m.pub_id);
    w.str(m.event.to_xml_string());
  }

  /// Model: a 16-byte frame header plus a 2-byte length prefix per
  /// member.  Batching XML saves packets (and their per-packet
  /// scheduler/trace cost), not bytes.
  std::size_t frame_size(std::span<const std::size_t> datagram_sizes) const override {
    std::size_t total = 16;
    for (std::size_t d : datagram_sizes) total += d + 2;
    return total;
  }
};

// ---------------------------------------------------------------------
// Binary member bodies: the kind-specific payload inside a frame member
// (the member header carries the kind tag and length).  body_size() is
// the exact length write_body() produces.  read_body() fails soft
// through the reader on truncation; only a malformed event or an absurd
// count is an error of its own.
// ---------------------------------------------------------------------

/// Exact byte length of event::write_filter's output.
std::size_t filter_body_size(const event::Filter& f) {
  std::size_t total = 4;
  for (const event::Constraint& c : f.constraints()) {
    total += 4 + c.attribute().size() + 1 + 1 + 4 + c.value.text_size();
  }
  return total;
}

std::size_t body_size(const SubscribeMsg& m) {
  return varint_size(m.id) + filter_body_size(m.filter);
}
std::size_t body_size(const AdvertiseMsg& m) {
  return varint_size(m.id) + filter_body_size(m.filter);
}
std::size_t body_size(const UnsubscribeMsg& m) { return varint_size(m.id); }
std::size_t body_size(const PublishMsg& m) {
  return varint_size(m.pub_id) + m.event.binary_wire_size();
}
std::size_t body_size(const DeliverMsg& m) { return m.event.binary_wire_size(); }
std::size_t body_size(const SyncRequestMsg& m) { return varint_size(m.round); }
std::size_t body_size(const SyncReplyMsg& m) {
  std::size_t total = varint_size(m.round);
  total += varint_size(m.subscriptions.size());
  for (const SubscribeMsg& s : m.subscriptions) total += body_size(s);
  total += varint_size(m.advertisements.size());
  for (const AdvertiseMsg& a : m.advertisements) total += body_size(a);
  return total;
}

void write_body(BufWriter& w, const SubscribeMsg& m) {
  w.varint(m.id);
  event::write_filter(w, m.filter);
}
void write_body(BufWriter& w, const AdvertiseMsg& m) {
  w.varint(m.id);
  event::write_filter(w, m.filter);
}
void write_body(BufWriter& w, const UnsubscribeMsg& m) { w.varint(m.id); }
void write_body(BufWriter& w, const PublishMsg& m) {
  w.varint(m.pub_id);
  m.event.to_binary(w);
}
void write_body(BufWriter& w, const DeliverMsg& m) { m.event.to_binary(w); }
void write_body(BufWriter& w, const SyncRequestMsg& m) { w.varint(m.round); }
void write_body(BufWriter& w, const SyncReplyMsg& m) {
  w.varint(m.round);
  w.varint(m.subscriptions.size());
  for (const SubscribeMsg& s : m.subscriptions) write_body(w, s);
  w.varint(m.advertisements.size());
  for (const AdvertiseMsg& a : m.advertisements) write_body(w, a);
}

Status read_event(BufReader& r, event::Event& e) {
  auto decoded = event::Event::from_binary(r);
  if (!decoded.is_ok()) return decoded.status();
  e = std::move(decoded).value();
  return Status::ok();
}

Status read_body(BufReader& r, SubscribeMsg& m) {
  m.id = r.varint();
  m.filter = event::read_filter(r);
  return Status::ok();
}
Status read_body(BufReader& r, AdvertiseMsg& m) {
  m.id = r.varint();
  m.filter = event::read_filter(r);
  return Status::ok();
}
Status read_body(BufReader& r, UnsubscribeMsg& m) {
  m.id = r.varint();
  return Status::ok();
}
Status read_body(BufReader& r, PublishMsg& m) {
  m.pub_id = r.varint();
  return read_event(r, m.event);
}
Status read_body(BufReader& r, DeliverMsg& m) { return read_event(r, m.event); }
Status read_body(BufReader& r, SyncRequestMsg& m) {
  m.round = r.varint();
  return Status::ok();
}

/// A sync reply's varint-counted list, capped like the frame's members.
template <typename Msg>
Status read_list(BufReader& r, std::vector<Msg>& out) {
  const std::uint64_t n = r.varint();
  if (n > kMaxFrameMembers) {
    return Status(Code::kInvalidArgument, "absurd sync reply count");
  }
  for (std::uint64_t i = 0; i < n && !r.failed(); ++i) {
    if (Status s = read_body(r, out.emplace_back()); !s.is_ok()) return s;
  }
  return Status::ok();
}

Status read_body(BufReader& r, SyncReplyMsg& m) {
  m.round = r.varint();
  if (Status s = read_list(r, m.subscriptions); !s.is_ok()) return s;
  return read_list(r, m.advertisements);
}

// ---------------------------------------------------------------------
// Binary codec.  Every size is the exact encoded byte length; the
// datagram form is a frame of one member, so standalone and batched
// accounting share one layout.
// ---------------------------------------------------------------------

class BinaryCodec final : public Codec {
 public:
  WireCodec id() const override { return WireCodec::kBinary; }

  /// A standalone datagram is a one-member frame:
  /// magic + version + count(=1) + kind + varint(len) + body.
  static std::size_t datagram(std::size_t body) {
    return 4 + varint_size(body) + body;
  }

  std::size_t size(const SubscribeMsg& m) const override { return datagram(body_size(m)); }
  std::size_t size(const AdvertiseMsg& m) const override { return datagram(body_size(m)); }
  std::size_t size(const UnsubscribeMsg& m) const override { return datagram(body_size(m)); }
  std::size_t size(const PublishMsg& m) const override { return datagram(body_size(m)); }
  std::size_t size(const DeliverMsg& m) const override { return datagram(body_size(m)); }
  std::size_t size(const SyncRequestMsg& m) const override { return datagram(body_size(m)); }
  std::size_t size(const SyncReplyMsg& m) const override { return datagram(body_size(m)); }

  void encode(BufWriter& w, const PublishMsg& m) const override { write_body(w, m); }

  /// Exact: recover each member's body length from its standalone
  /// datagram size (body + varint_size(body) is strictly increasing, so
  /// the solution is unique), then price the shared envelope once.
  /// Non-codec members (overlay/transport structs batch too) fall back
  /// to the common one-byte-length case.
  std::size_t frame_size(std::span<const std::size_t> datagram_sizes) const override {
    std::size_t total = 2 + varint_size(datagram_sizes.size());
    for (std::size_t d : datagram_sizes) {
      std::size_t body = d > 5 ? d - 5 : 1;  // fallback: 1-byte length prefix
      for (std::size_t prefix = 1; prefix <= 10 && prefix + 4 <= d; ++prefix) {
        const std::size_t candidate = d - 4 - prefix;
        if (varint_size(candidate) == prefix) {
          body = candidate;
          break;
        }
      }
      total += 1 + varint_size(body) + body;
    }
    return total;
  }
};

const XmlCodec g_xml;
const BinaryCodec g_binary;

template <typename Msg>
void write_member(BufWriter& w, Kind kind, const Msg& m) {
  w.u8(static_cast<std::uint8_t>(kind));
  w.varint(body_size(m));
  write_body(w, m);
}

/// Writes one frame member from a packet's std::any body; false for a
/// body that is not a pubsub message.
bool write_member(BufWriter& w, const std::any& body) {
  if (const auto* m = std::any_cast<SubscribeMsg>(&body)) {
    write_member(w, Kind::kSubscribe, *m);
  } else if (const auto* m = std::any_cast<AdvertiseMsg>(&body)) {
    write_member(w, Kind::kAdvertise, *m);
  } else if (const auto* m = std::any_cast<UnsubscribeMsg>(&body)) {
    write_member(w, Kind::kUnsubscribe, *m);
  } else if (const auto* m = std::any_cast<PublishMsg>(&body)) {
    write_member(w, Kind::kPublish, *m);
  } else if (const auto* m = std::any_cast<DeliverMsg>(&body)) {
    write_member(w, Kind::kDeliver, *m);
  } else if (const auto* m = std::any_cast<SyncRequestMsg>(&body)) {
    write_member(w, Kind::kSyncRequest, *m);
  } else if (const auto* m = std::any_cast<SyncReplyMsg>(&body)) {
    write_member(w, Kind::kSyncReply, *m);
  } else {
    return false;
  }
  return true;
}

/// Decodes one member body, which must fill `body` exactly.
template <typename Msg>
Result<std::any> read_member(BufReader& body) {
  Msg m;
  if (Status s = read_body(body, m); !s.is_ok()) return s;
  if (body.failed()) {
    return Status(Code::kInvalidArgument, "truncated or corrupt frame member");
  }
  if (!body.at_end()) {
    return Status(Code::kInvalidArgument, "frame member has trailing bytes");
  }
  return std::any(std::move(m));
}

Result<std::any> read_member(std::uint8_t kind, BufReader& body) {
  switch (static_cast<Kind>(kind)) {
    case Kind::kSubscribe: return read_member<SubscribeMsg>(body);
    case Kind::kAdvertise: return read_member<AdvertiseMsg>(body);
    case Kind::kUnsubscribe: return read_member<UnsubscribeMsg>(body);
    case Kind::kPublish: return read_member<PublishMsg>(body);
    case Kind::kDeliver: return read_member<DeliverMsg>(body);
    case Kind::kSyncRequest: return read_member<SyncRequestMsg>(body);
    case Kind::kSyncReply: return read_member<SyncReplyMsg>(body);
  }
  return Status(Code::kInvalidArgument, "unknown member kind " + std::to_string(kind));
}

}  // namespace

const char* codec_name(WireCodec c) {
  switch (c) {
    case WireCodec::kXml:
      return "xml";
    case WireCodec::kBinary:
      return "binary";
  }
  return "?";
}

Result<WireCodec> codec_from_name(std::string_view name) {
  if (name == "xml") return WireCodec::kXml;
  if (name == "binary") return WireCodec::kBinary;
  return Status(Code::kInvalidArgument,
                "unknown codec \"" + std::string(name) + "\" (xml, binary)");
}

const Codec& xml_codec() { return g_xml; }
const Codec& binary_codec() { return g_binary; }

const Codec& codec(WireCodec c) {
  return c == WireCodec::kBinary ? static_cast<const Codec&>(g_binary) : g_xml;
}

Result<Bytes> encode_frame(std::span<const std::any> bodies) {
  BufWriter w;
  w.u8(kFrameMagic);
  w.u8(kFrameVersion);
  w.varint(bodies.size());
  for (const std::any& body : bodies) {
    if (!write_member(w, body)) {
      return Status(Code::kInvalidArgument, "frame member is not a pubsub message");
    }
  }
  return std::move(w).take();
}

Result<std::vector<std::any>> decode_frame(std::span<const std::uint8_t> bytes) {
  BufReader r(bytes);
  const std::uint8_t magic = r.u8();
  const std::uint8_t version = r.u8();
  if (r.failed() || magic != kFrameMagic) {
    return Status(Code::kInvalidArgument, "bad frame magic");
  }
  if (version != kFrameVersion) {
    return Status(Code::kInvalidArgument,
                  "unsupported frame version " + std::to_string(version));
  }
  const std::uint64_t count = r.varint();
  if (r.failed() || count > kMaxFrameMembers) {
    return Status(Code::kInvalidArgument, "bad frame member count");
  }
  std::vector<std::any> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t kind = r.u8();
    const std::uint64_t len = r.varint();
    BufReader body(r.view(len));
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated frame member");
    auto member = read_member(kind, body);
    if (!member.is_ok()) return member.status();
    out.push_back(std::move(member).value());
  }
  if (!r.at_end()) {
    return Status(Code::kInvalidArgument, "frame has trailing bytes");
  }
  return out;
}

}  // namespace aa::wire
