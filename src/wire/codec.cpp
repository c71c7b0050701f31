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

// ---------------------------------------------------------------------
// XML codec: the interop/golden form.  Sizes reproduce the pre-codec
// accounting formulas exactly — the chaos suite pins exact byte
// counters for clean unbatched XML runs, so these constants are
// golden.  The byte encodings carry events as their golden-pinned XML
// documents; filters and envelopes use the typed buffered form (a
// filter never had a pinned XML byte layout, only a size model).
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

  void encode(BufWriter& w, const SubscribeMsg& m) const override {
    w.u64(m.id);
    event::write_filter(w, m.filter);
  }
  void encode(BufWriter& w, const AdvertiseMsg& m) const override {
    w.u64(m.id);
    event::write_filter(w, m.filter);
  }
  void encode(BufWriter& w, const UnsubscribeMsg& m) const override { w.u64(m.id); }
  void encode(BufWriter& w, const PublishMsg& m) const override {
    w.u64(m.pub_id);
    w.str(m.event.to_xml_string());
  }
  void encode(BufWriter& w, const DeliverMsg& m) const override {
    w.str(m.event.to_xml_string());
  }
  void encode(BufWriter& w, const SyncRequestMsg& m) const override { w.u64(m.round); }
  void encode(BufWriter& w, const SyncReplyMsg& m) const override {
    w.u64(m.round);
    w.u32(static_cast<std::uint32_t>(m.subscriptions.size()));
    for (const SubscribeMsg& s : m.subscriptions) encode(w, s);
    w.u32(static_cast<std::uint32_t>(m.advertisements.size()));
    for (const AdvertiseMsg& a : m.advertisements) encode(w, a);
  }

  Result<SubscribeMsg> decode_subscribe(BufReader& r) const override {
    SubscribeMsg m;
    m.id = r.u64();
    m.filter = event::read_filter(r);
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated subscribe");
    return m;
  }
  Result<AdvertiseMsg> decode_advertise(BufReader& r) const override {
    AdvertiseMsg m;
    m.id = r.u64();
    m.filter = event::read_filter(r);
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated advertise");
    return m;
  }
  Result<UnsubscribeMsg> decode_unsubscribe(BufReader& r) const override {
    UnsubscribeMsg m{r.u64()};
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated unsubscribe");
    return m;
  }
  Result<PublishMsg> decode_publish(BufReader& r) const override {
    PublishMsg m;
    m.pub_id = r.u64();
    const std::string xml = r.str();
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated publish");
    auto e = event::Event::parse(xml);
    if (!e.is_ok()) return e.status();
    m.event = std::move(e).value();
    return m;
  }
  Result<DeliverMsg> decode_deliver(BufReader& r) const override {
    const std::string xml = r.str();
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated deliver");
    auto e = event::Event::parse(xml);
    if (!e.is_ok()) return e.status();
    return DeliverMsg{std::move(e).value()};
  }
  Result<SyncRequestMsg> decode_sync_request(BufReader& r) const override {
    SyncRequestMsg m{r.u64()};
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated sync request");
    return m;
  }
  Result<SyncReplyMsg> decode_sync_reply(BufReader& r) const override {
    SyncReplyMsg m;
    m.round = r.u64();
    const std::uint32_t nsubs = r.u32();
    for (std::uint32_t i = 0; i < nsubs && !r.failed(); ++i) {
      auto s = decode_subscribe(r);
      if (!s.is_ok()) return s.status();
      m.subscriptions.push_back(std::move(s).value());
    }
    const std::uint32_t nadvs = r.u32();
    for (std::uint32_t i = 0; i < nadvs && !r.failed(); ++i) {
      auto a = decode_advertise(r);
      if (!a.is_ok()) return a.status();
      m.advertisements.push_back(std::move(a).value());
    }
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated sync reply");
    return m;
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
// Binary codec.  Every size is the exact encoded byte length; the
// datagram form is a frame of one member, so standalone and batched
// accounting share one layout.
// ---------------------------------------------------------------------

/// Exact byte length of event::write_filter's output.
std::size_t filter_body_size(const event::Filter& f) {
  std::size_t total = 4;
  for (const event::Constraint& c : f.constraints()) {
    total += 4 + c.attribute().size() + 1 + 1 + 4 + c.value.text_size();
  }
  return total;
}

class BinaryCodec final : public Codec {
 public:
  WireCodec id() const override { return WireCodec::kBinary; }

  // Body sizes (the bytes encode() writes).
  static std::size_t body(const SubscribeMsg& m) {
    return varint_size(m.id) + filter_body_size(m.filter);
  }
  static std::size_t body(const AdvertiseMsg& m) {
    return varint_size(m.id) + filter_body_size(m.filter);
  }
  static std::size_t body(const UnsubscribeMsg& m) { return varint_size(m.id); }
  static std::size_t body(const PublishMsg& m) {
    return varint_size(m.pub_id) + m.event.binary_wire_size();
  }
  static std::size_t body(const DeliverMsg& m) { return m.event.binary_wire_size(); }
  static std::size_t body(const SyncRequestMsg& m) { return varint_size(m.round); }
  static std::size_t body(const SyncReplyMsg& m) {
    std::size_t total = varint_size(m.round);
    total += varint_size(m.subscriptions.size());
    for (const SubscribeMsg& s : m.subscriptions) total += body(s);
    total += varint_size(m.advertisements.size());
    for (const AdvertiseMsg& a : m.advertisements) total += body(a);
    return total;
  }

  /// A standalone datagram is a one-member frame:
  /// magic + version + count(=1) + kind + varint(len) + body.
  static std::size_t datagram(std::size_t body_size) {
    return 4 + varint_size(body_size) + body_size;
  }

  std::size_t size(const SubscribeMsg& m) const override { return datagram(body(m)); }
  std::size_t size(const AdvertiseMsg& m) const override { return datagram(body(m)); }
  std::size_t size(const UnsubscribeMsg& m) const override { return datagram(body(m)); }
  std::size_t size(const PublishMsg& m) const override { return datagram(body(m)); }
  std::size_t size(const DeliverMsg& m) const override { return datagram(body(m)); }
  std::size_t size(const SyncRequestMsg& m) const override { return datagram(body(m)); }
  std::size_t size(const SyncReplyMsg& m) const override { return datagram(body(m)); }

  void encode(BufWriter& w, const SubscribeMsg& m) const override {
    w.varint(m.id);
    event::write_filter(w, m.filter);
  }
  void encode(BufWriter& w, const AdvertiseMsg& m) const override {
    w.varint(m.id);
    event::write_filter(w, m.filter);
  }
  void encode(BufWriter& w, const UnsubscribeMsg& m) const override { w.varint(m.id); }
  void encode(BufWriter& w, const PublishMsg& m) const override {
    w.varint(m.pub_id);
    m.event.to_binary(w);
  }
  void encode(BufWriter& w, const DeliverMsg& m) const override { m.event.to_binary(w); }
  void encode(BufWriter& w, const SyncRequestMsg& m) const override { w.varint(m.round); }
  void encode(BufWriter& w, const SyncReplyMsg& m) const override {
    w.varint(m.round);
    w.varint(m.subscriptions.size());
    for (const SubscribeMsg& s : m.subscriptions) encode(w, s);
    w.varint(m.advertisements.size());
    for (const AdvertiseMsg& a : m.advertisements) encode(w, a);
  }

  Result<SubscribeMsg> decode_subscribe(BufReader& r) const override {
    SubscribeMsg m;
    m.id = r.varint();
    m.filter = event::read_filter(r);
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated subscribe");
    return m;
  }
  Result<AdvertiseMsg> decode_advertise(BufReader& r) const override {
    AdvertiseMsg m;
    m.id = r.varint();
    m.filter = event::read_filter(r);
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated advertise");
    return m;
  }
  Result<UnsubscribeMsg> decode_unsubscribe(BufReader& r) const override {
    UnsubscribeMsg m{r.varint()};
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated unsubscribe");
    return m;
  }
  Result<PublishMsg> decode_publish(BufReader& r) const override {
    PublishMsg m;
    m.pub_id = r.varint();
    auto e = event::Event::from_binary(r);
    if (!e.is_ok()) return e.status();
    m.event = std::move(e).value();
    return m;
  }
  Result<DeliverMsg> decode_deliver(BufReader& r) const override {
    auto e = event::Event::from_binary(r);
    if (!e.is_ok()) return e.status();
    return DeliverMsg{std::move(e).value()};
  }
  Result<SyncRequestMsg> decode_sync_request(BufReader& r) const override {
    SyncRequestMsg m{r.varint()};
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated sync request");
    return m;
  }
  Result<SyncReplyMsg> decode_sync_reply(BufReader& r) const override {
    SyncReplyMsg m;
    m.round = r.varint();
    const std::uint64_t nsubs = r.varint();
    if (nsubs > kMaxFrameMembers) {
      return Status(Code::kInvalidArgument, "absurd sync reply count");
    }
    for (std::uint64_t i = 0; i < nsubs && !r.failed(); ++i) {
      auto s = decode_subscribe(r);
      if (!s.is_ok()) return s.status();
      m.subscriptions.push_back(std::move(s).value());
    }
    const std::uint64_t nadvs = r.varint();
    if (nadvs > kMaxFrameMembers) {
      return Status(Code::kInvalidArgument, "absurd sync reply count");
    }
    for (std::uint64_t i = 0; i < nadvs && !r.failed(); ++i) {
      auto a = decode_advertise(r);
      if (!a.is_ok()) return a.status();
      m.advertisements.push_back(std::move(a).value());
    }
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated sync reply");
    return m;
  }

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
void write_member(BufWriter& w, const Codec& c, MsgKind kind, const Msg& m) {
  w.u8(static_cast<std::uint8_t>(kind));
  BufWriter body;
  c.encode(body, m);
  w.varint(body.size());
  w.append(body.data());
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

bool encode_member(BufWriter& w, const Codec& c, const std::any& body) {
  if (const auto* m = std::any_cast<SubscribeMsg>(&body)) {
    write_member(w, c, MsgKind::kSubscribe, *m);
  } else if (const auto* m = std::any_cast<AdvertiseMsg>(&body)) {
    write_member(w, c, MsgKind::kAdvertise, *m);
  } else if (const auto* m = std::any_cast<UnsubscribeMsg>(&body)) {
    write_member(w, c, MsgKind::kUnsubscribe, *m);
  } else if (const auto* m = std::any_cast<PublishMsg>(&body)) {
    write_member(w, c, MsgKind::kPublish, *m);
  } else if (const auto* m = std::any_cast<DeliverMsg>(&body)) {
    write_member(w, c, MsgKind::kDeliver, *m);
  } else if (const auto* m = std::any_cast<SyncRequestMsg>(&body)) {
    write_member(w, c, MsgKind::kSyncRequest, *m);
  } else if (const auto* m = std::any_cast<SyncReplyMsg>(&body)) {
    write_member(w, c, MsgKind::kSyncReply, *m);
  } else {
    return false;
  }
  return true;
}

Result<Bytes> encode_frame(const Codec& c, std::span<const std::any> bodies) {
  if (c.id() != WireCodec::kBinary) {
    return Status(Code::kFailedPrecondition,
                  "only the binary codec has a frame byte layout");
  }
  BufWriter w;
  w.u8(kFrameMagic);
  w.u8(kFrameVersion);
  w.varint(bodies.size());
  for (const std::any& body : bodies) {
    if (!encode_member(w, c, body)) {
      return Status(Code::kInvalidArgument, "frame member is not a pubsub message");
    }
  }
  return std::move(w).take();
}

Result<std::vector<std::any>> decode_frame(const Codec& c,
                                           std::span<const std::uint8_t> bytes) {
  if (c.id() != WireCodec::kBinary) {
    return Status(Code::kFailedPrecondition,
                  "only the binary codec has a frame byte layout");
  }
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
    auto view = r.view(len);
    if (r.failed()) return Status(Code::kInvalidArgument, "truncated frame member");
    BufReader body(view);
    std::any decoded;
    switch (static_cast<MsgKind>(kind)) {
      case MsgKind::kSubscribe: {
        auto m = c.decode_subscribe(body);
        if (!m.is_ok()) return m.status();
        decoded = std::move(m).value();
        break;
      }
      case MsgKind::kAdvertise: {
        auto m = c.decode_advertise(body);
        if (!m.is_ok()) return m.status();
        decoded = std::move(m).value();
        break;
      }
      case MsgKind::kUnsubscribe: {
        auto m = c.decode_unsubscribe(body);
        if (!m.is_ok()) return m.status();
        decoded = std::move(m).value();
        break;
      }
      case MsgKind::kPublish: {
        auto m = c.decode_publish(body);
        if (!m.is_ok()) return m.status();
        decoded = std::move(m).value();
        break;
      }
      case MsgKind::kDeliver: {
        auto m = c.decode_deliver(body);
        if (!m.is_ok()) return m.status();
        decoded = std::move(m).value();
        break;
      }
      case MsgKind::kSyncRequest: {
        auto m = c.decode_sync_request(body);
        if (!m.is_ok()) return m.status();
        decoded = std::move(m).value();
        break;
      }
      case MsgKind::kSyncReply: {
        auto m = c.decode_sync_reply(body);
        if (!m.is_ok()) return m.status();
        decoded = std::move(m).value();
        break;
      }
      default:
        return Status(Code::kInvalidArgument,
                      "unknown member kind " + std::to_string(kind));
    }
    if (!body.at_end()) {
      return Status(Code::kInvalidArgument, "frame member has trailing bytes");
    }
    out.push_back(std::move(decoded));
  }
  if (!r.at_end()) {
    return Status(Code::kInvalidArgument, "frame has trailing bytes");
  }
  return out;
}

}  // namespace aa::wire
