// Tests for the negotiable wire codec layer (wire/codec.hpp): exact
// binary sizes, frame round-trips for every message kind, the golden
// byte fixture pinning the binary frame layout (the analogue of the XML
// corpus SHA-1 pin), a truncation/corruption fuzz loop with crafted
// huge-length frames and corrupt filter bodies, the legacy XML size and
// frame formulas the chaos golden counters depend on, and codec names.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "event/event.hpp"
#include "event/filter.hpp"
#include "pubsub/messages.hpp"
#include "wire/codec.hpp"

namespace aa::wire {
namespace {

using event::AttrValue;
using event::Event;
using event::Filter;
using event::Op;
using pubsub::AdvertiseMsg;
using pubsub::DeliverMsg;
using pubsub::PublishMsg;
using pubsub::SubscribeMsg;
using pubsub::SyncReplyMsg;
using pubsub::SyncRequestMsg;
using pubsub::UnsubscribeMsg;

Event sample_event(int i) {
  Event e("sensor.reading");
  e.set("room", "r" + std::to_string(i % 5));
  e.set("celsius", 19.5 + i);
  e.set("floor", i - 2);  // negative for small i: exercises zigzag
  e.set("occupied", i % 2 == 0);
  e.set_time(1000 * i);
  e.set_source("host-" + std::to_string(i % 3));
  return e;
}

Filter sample_filter(int i) {
  Filter f;
  f.where("type", Op::kEq, "sensor.reading");
  f.where("room", Op::kPrefix, "r" + std::to_string(i % 5));
  f.where("celsius", Op::kGt, 20.0 + i);
  return f;
}

// --- varint primitives ---------------------------------------------------

TEST(Varint, SizeMatchesEncoding) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                          (1ull << 32), ~0ull}) {
    BufWriter w;
    w.varint(v);
    EXPECT_EQ(w.size(), varint_size(v)) << v;
    BufReader r(w.data());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Varint, ZigZagRoundTrip) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
                         std::int64_t{-64}, std::int64_t{64},
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
    BufWriter w;
    w.svarint(v);
    BufReader r(w.data());
    EXPECT_EQ(r.svarint(), v);
  }
  // Small magnitudes stay short — the point of the mapping.
  EXPECT_EQ(varint_size(zigzag(-1)), 1u);
  EXPECT_EQ(varint_size(zigzag(63)), 1u);
}

TEST(Varint, ReaderRejectsOverlongEncoding) {
  Bytes overlong(11, 0x80);  // continuation bit forever
  BufReader r(overlong);
  r.varint();
  EXPECT_TRUE(r.failed());
}

// A varint length near 2^64 must fail the bounds check, not wrap past
// it: position + length overflows, so the check compares the length
// against what remains.
TEST(BufReader, HugeVarintLengthFailsInsteadOfWrapping) {
  for (std::uint64_t len : {~0ull, ~0ull - 1, ~0ull - 8}) {
    BufWriter w;
    w.varint(len);
    w.vstr("payload");
    {
      BufReader r(w.data());
      EXPECT_TRUE(r.vstr().empty()) << len;
      EXPECT_TRUE(r.failed()) << len;
    }
    {
      BufReader r(w.data());
      EXPECT_TRUE(r.view(r.varint()).empty()) << len;
      EXPECT_TRUE(r.failed()) << len;
    }
  }
}

// --- binary event form ---------------------------------------------------

TEST(BinaryEvent, RoundTripPreservesEquality) {
  for (int i = 0; i < 20; ++i) {
    const Event e = sample_event(i);
    BufWriter w;
    e.to_binary(w);
    EXPECT_EQ(w.size(), e.binary_wire_size()) << "size must be exact";
    BufReader r(w.data());
    auto back = Event::from_binary(r);
    ASSERT_TRUE(back.is_ok());
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(back.value(), e);
    EXPECT_EQ(back.value().describe(), e.describe());
  }
}

TEST(BinaryEvent, CacheInvalidatedOnMutation) {
  Event e = sample_event(1);
  const std::size_t before = e.binary_wire_size();
  e.set("extra", "payload-that-changes-the-size");
  EXPECT_GT(e.binary_wire_size(), before);
  BufWriter w;
  e.to_binary(w);
  EXPECT_EQ(w.size(), e.binary_wire_size());
}

TEST(BinaryEvent, DecodeRejectsBadTypeTag) {
  BufWriter w;
  w.varint(1);      // one attribute
  w.vstr("name");
  w.u8(9);          // no such ValueType
  BufReader r(w.data());
  EXPECT_FALSE(Event::from_binary(r).is_ok());
}

// --- exact binary sizes + round-trips for every message kind -------------

// A standalone binary datagram is a one-member frame: size() must be
// that frame's exact length, and the frame must decode to a message
// that re-encodes to the same bytes.  Returns the decoded message.
template <typename Msg>
Msg expect_exact_and_roundtrip(const Msg& m) {
  const auto frame = encode_frame(std::vector<Body>{m});
  EXPECT_TRUE(frame.is_ok());
  if (!frame.is_ok()) return {};
  EXPECT_EQ(binary_codec().size(m), frame.value().size());
  const auto back = decode_frame(frame.value());
  EXPECT_TRUE(back.is_ok());
  if (!back.is_ok() || back.value().size() != 1) return {};
  const auto* decoded = back.value()[0].get<Msg>();
  EXPECT_NE(decoded, nullptr);
  if (decoded == nullptr) return {};
  const auto again = encode_frame(back.value());
  EXPECT_TRUE(again.is_ok() && again.value() == frame.value());
  return *decoded;
}

TEST(BinaryCodec, SizesAreExactAndBodiesRoundTrip) {
  const SubscribeMsg sub{77, sample_filter(1)};
  const SubscribeMsg sub_back = expect_exact_and_roundtrip(sub);
  EXPECT_EQ(sub_back.id, sub.id);
  EXPECT_EQ(sub_back.filter.describe(), sub.filter.describe());
  EXPECT_EQ(expect_exact_and_roundtrip(AdvertiseMsg{301, sample_filter(2)}).id, 301u);
  EXPECT_EQ(expect_exact_and_roundtrip(UnsubscribeMsg{1u << 20}).id, 1u << 20);
  const PublishMsg pub = expect_exact_and_roundtrip(PublishMsg{sample_event(3), 999});
  EXPECT_EQ(pub.pub_id, 999u);
  EXPECT_EQ(pub.event, sample_event(3));
  EXPECT_EQ(expect_exact_and_roundtrip(DeliverMsg{sample_event(4)}).event, sample_event(4));
  EXPECT_EQ(expect_exact_and_roundtrip(SyncRequestMsg{5}).round, 5u);
  SyncReplyMsg reply;
  reply.round = 6;
  reply.subscriptions.push_back(SubscribeMsg{1, sample_filter(1)});
  reply.subscriptions.push_back(SubscribeMsg{2, sample_filter(2)});
  reply.advertisements.push_back(AdvertiseMsg{3, sample_filter(3)});
  const SyncReplyMsg reply_back = expect_exact_and_roundtrip(reply);
  EXPECT_EQ(reply_back.round, 6u);
  EXPECT_EQ(reply_back.subscriptions.size(), 2u);
  EXPECT_EQ(reply_back.advertisements.size(), 1u);

  // Reals travel as text in filter bodies: NaN and the infinities must
  // decode like any other real.
  Filter edges;
  edges.where("a", Op::kEq, std::numeric_limits<double>::quiet_NaN())
      .where("b", Op::kLt, std::numeric_limits<double>::infinity())
      .where("c", Op::kGt, -std::numeric_limits<double>::infinity());
  const SubscribeMsg edges_back = expect_exact_and_roundtrip(SubscribeMsg{8, edges});
  EXPECT_EQ(edges_back.filter.describe(), edges.describe());
  ASSERT_EQ(edges_back.filter.constraints().size(), 3u);
  for (const auto& c : edges_back.filter.constraints()) EXPECT_TRUE(c.value.is_real());

  // The publication encoding bench_e2e's codec_encode probe times is
  // the publish member body.
  BufWriter w;
  binary_codec().encode(w, PublishMsg{sample_event(3), 999});
  EXPECT_EQ(binary_codec().size(PublishMsg{sample_event(3), 999}),
            4 + varint_size(w.size()) + w.size());
}

TEST(BinaryCodec, BeatsXmlOnEverySampledMessage) {
  for (int i = 0; i < 10; ++i) {
    const PublishMsg pub{sample_event(i), static_cast<std::uint64_t>(i)};
    EXPECT_LT(binary_codec().size(pub), xml_codec().size(pub));
    const SubscribeMsg sub{static_cast<std::uint64_t>(i), sample_filter(i)};
    EXPECT_LT(binary_codec().size(sub), xml_codec().size(sub));
  }
}

// --- framing -------------------------------------------------------------

std::vector<Body> sample_bodies() {
  std::vector<Body> bodies;
  bodies.emplace_back(SubscribeMsg{7, sample_filter(0)});
  bodies.emplace_back(PublishMsg{sample_event(1), 41});
  bodies.emplace_back(DeliverMsg{sample_event(2)});
  bodies.emplace_back(UnsubscribeMsg{7});
  bodies.emplace_back(SyncRequestMsg{3});
  return bodies;
}

TEST(BinaryFrame, FrameSizeMatchesEncodedBytes) {
  const Codec& bin = binary_codec();
  const auto bodies = sample_bodies();
  std::vector<std::size_t> datagrams;
  datagrams.push_back(bin.size(*bodies[0].get<SubscribeMsg>()));
  datagrams.push_back(bin.size(*bodies[1].get<PublishMsg>()));
  datagrams.push_back(bin.size(*bodies[2].get<DeliverMsg>()));
  datagrams.push_back(bin.size(*bodies[3].get<UnsubscribeMsg>()));
  datagrams.push_back(bin.size(*bodies[4].get<SyncRequestMsg>()));

  auto frame = encode_frame(bodies);
  ASSERT_TRUE(frame.is_ok());
  EXPECT_EQ(frame.value().size(), bin.frame_size(datagrams));
  // Coalescing must beat sending the datagrams separately.
  std::size_t separate = 0;
  for (std::size_t d : datagrams) separate += d;
  EXPECT_LT(frame.value().size(), separate);
}

TEST(BinaryFrame, DecodeRoundTripsEveryMember) {
  auto frame = encode_frame(sample_bodies());
  ASSERT_TRUE(frame.is_ok());
  auto members = decode_frame(frame.value());
  ASSERT_TRUE(members.is_ok());
  ASSERT_EQ(members.value().size(), 5u);
  const auto* pub = members.value()[1].get<PublishMsg>();
  ASSERT_NE(pub, nullptr);
  EXPECT_EQ(pub->pub_id, 41u);
  EXPECT_EQ(pub->event, sample_event(1));
  const auto* del = members.value()[2].get<DeliverMsg>();
  ASSERT_NE(del, nullptr);
  EXPECT_EQ(del->event, sample_event(2));
}

TEST(BinaryFrame, RejectsForeignBody) {
  std::vector<Body> bodies;
  bodies.emplace_back(std::string("not a pubsub message"));
  EXPECT_FALSE(encode_frame(bodies).is_ok());
}

// The binary analogue of the XML corpus SHA-1 pin: any change to the
// frame layout, the member bodies, the varint form or the event binary
// encoding shows up here as a digest mismatch and must bump the frame
// version.
TEST(BinaryFrame, GoldenByteFixture) {
  std::vector<Body> bodies;
  for (int i = 0; i < 4; ++i) {
    bodies.emplace_back(PublishMsg{sample_event(i), static_cast<std::uint64_t>(100 + i)});
    bodies.emplace_back(SubscribeMsg{static_cast<std::uint64_t>(i), sample_filter(i)});
  }
  SyncReplyMsg reply;
  reply.round = 9;
  reply.subscriptions.push_back(SubscribeMsg{1, sample_filter(1)});
  reply.advertisements.push_back(AdvertiseMsg{2, sample_filter(2)});
  bodies.emplace_back(std::move(reply));

  auto frame = encode_frame(bodies);
  ASSERT_TRUE(frame.is_ok());
  ASSERT_FALSE(frame.value().empty());
  EXPECT_EQ(frame.value()[0], 0xB5);  // magic
  EXPECT_EQ(frame.value()[1], 0x01);  // version
  EXPECT_EQ(Uid160::from_content(to_string(frame.value())).to_hex(),
            "e71add379bcb860e35a5ed67b4c704b379d33cbc");
}

TEST(BinaryFrame, TruncationNeverCrashesAndAlwaysFails) {
  auto frame = encode_frame(sample_bodies());
  ASSERT_TRUE(frame.is_ok());
  const Bytes& full = frame.value();
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::span<const std::uint8_t> prefix(full.data(), len);
    EXPECT_FALSE(decode_frame(prefix).is_ok()) << "len=" << len;
  }
}

// Seeded corruption loop (label `sanitize`; the asan preset runs it with
// bounds checking on): flip random bytes in a valid frame; decode must never read
// out of bounds, loop, or crash — any result is acceptable as long as
// re-encoding a successful decode is itself well-formed.
TEST(BinaryFrame, CorruptionFuzzLoop) {
  auto frame = encode_frame(sample_bodies());
  ASSERT_TRUE(frame.is_ok());
  Rng rng(20260808);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes mutated = frame.value();
    const int flips = 1 + static_cast<int>(rng.next() % 4);
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next() % mutated.size();
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next() % 255);
    }
    auto decoded = decode_frame(mutated);
    if (decoded.is_ok()) {
      auto re = encode_frame(decoded.value());
      EXPECT_TRUE(re.is_ok());
    }
  }
}

// The fuzz loop's few random byte flips practically never form a
// 10-byte varint, so these frames are built by hand: a length near 2^64
// must fail the decode, not wrap the reader's bounds check.
TEST(BinaryFrame, HugeLengthsFailLoudly) {
  // A publication whose one attribute name claims 2^64-1 bytes.
  BufWriter pub;
  pub.u8(0xB5);
  pub.u8(0x01);
  pub.varint(1);            // one member
  pub.u8(4);                // publish
  pub.varint(13);           // body length
  pub.varint(7);            // pub_id
  pub.varint(1);            // one attribute
  pub.varint(~0ull);        // its name's length
  pub.u8('x');
  EXPECT_FALSE(decode_frame(pub.data()).is_ok());

  // A member whose body claims 2^64-2 bytes.
  BufWriter member;
  member.u8(0xB5);
  member.u8(0x01);
  member.varint(1);
  member.u8(4);
  member.varint(~0ull - 1);
  EXPECT_FALSE(decode_frame(member.data()).is_ok());
}

TEST(BinaryCodec, SyncReplyRejectsAbsurdCounts) {
  BufWriter w;
  w.u8(0xB5);
  w.u8(0x01);
  w.varint(1);                                         // one member
  w.u8(7);                                             // sync reply
  w.varint(varint_size(1) + varint_size(1ull << 40));  // body length
  w.varint(1);                                         // round
  w.varint(1ull << 40);  // subscription count far past the cap
  const auto decoded = decode_frame(w.data());
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().message(), "absurd sync reply count");
}

// --- XML codec: legacy size formulas -------------------------------------

// The chaos suite pins exact byte counters for clean unbatched XML runs
// (Chaos.CleanNetworkTrafficBitIdenticalGolden); those counters assume
// these size formulas, so they are part of the golden surface.
TEST(XmlCodec, LegacySizeFormulasArePinned) {
  const Codec& xml = xml_codec();
  const Filter f = sample_filter(1);
  const std::size_t filter_size = f.describe().size() + 16;
  EXPECT_EQ(xml.size(SubscribeMsg{1, f}), filter_size + 8);
  EXPECT_EQ(xml.size(AdvertiseMsg{1, f}), filter_size + 8);
  EXPECT_EQ(xml.size(UnsubscribeMsg{1}), 16u);
  const Event e = sample_event(1);
  EXPECT_EQ(xml.size(PublishMsg{e, 7}), e.wire_size());
  EXPECT_EQ(xml.size(DeliverMsg{e}), e.wire_size());
  EXPECT_EQ(xml.size(SyncRequestMsg{1}), 16u);
  SyncReplyMsg reply;
  reply.round = 1;
  reply.subscriptions.push_back(SubscribeMsg{1, f});
  reply.advertisements.push_back(AdvertiseMsg{2, f});
  EXPECT_EQ(xml.size(reply), 24 + 2 * (filter_size + 8));

  // The filter term is counted without rendering: pin it against
  // describe() over the empty filter ("<any>") and random filters of
  // every operator, with string values that describe() must escape and
  // reals from the formatting edge cases.
  EXPECT_EQ(xml.size(SubscribeMsg{1, Filter()}), Filter().describe().size() + 16 + 8);
  EXPECT_EQ(Filter().describe(), "<any>");
  static const char* kStrings[] = {"", "r1", "say \"hi\"", "back\\slash", "<&>'", "lab-"};
  static const double kReals[] = {20.5, -0.0, 1e308, 5e-324,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  -std::numeric_limits<double>::infinity()};
  Rng rng(3301);
  for (int trial = 0; trial < 2000; ++trial) {
    Filter random;
    for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
      const auto op = static_cast<Op>(rng.below(static_cast<std::uint64_t>(Op::kExists) + 1));
      AttrValue value;
      switch (rng.below(4)) {
        case 0: value = kStrings[rng.below(std::size(kStrings))]; break;
        case 1: value = static_cast<std::int64_t>(rng.next()); break;
        case 2: value = kReals[rng.below(std::size(kReals))]; break;
        default: value = rng.chance(0.5); break;
      }
      random.where("attr" + std::to_string(rng.below(6)), op, value);
    }
    ASSERT_EQ(xml.size(SubscribeMsg{1, random}), random.describe().size() + 16 + 8)
        << random.describe();
    ASSERT_EQ(xml.size(AdvertiseMsg{1, random}), random.describe().size() + 16 + 8);
  }

  // A frame costs a 16-byte header plus a 2-byte length per member.
  const std::size_t members[] = {100, 200};
  EXPECT_EQ(xml.frame_size(members), 16u + (100 + 2) + (200 + 2));
  EXPECT_EQ(xml.frame_size(members), 320u);
}

// A one-member subscribe frame whose filter is one constraint on
// "celsius", written with the given operator byte, type byte and value
// text.
Bytes subscribe_frame(std::uint8_t op, std::uint8_t type, std::string_view text) {
  BufWriter body;
  body.varint(1);  // subscription id
  body.u32(1);     // one constraint
  body.str("celsius");
  body.u8(op);
  body.u8(type);
  body.str(text);
  BufWriter frame;
  frame.u8(0xB5);
  frame.u8(0x01);
  frame.varint(1);  // one member
  frame.u8(1);      // subscribe
  frame.varint(body.size());
  Bytes out = std::move(frame).take();
  out.insert(out.end(), body.data().begin(), body.data().end());
  return out;
}

// A filter constraint whose operator or type byte is out of range, or
// whose value text its type refuses, fails the decode like truncation.
TEST(BinaryFrame, CorruptFilterFailsLoudly) {
  const auto op = [](Op o) { return static_cast<std::uint8_t>(o); };
  const auto type = [](event::ValueType t) { return static_cast<std::uint8_t>(t); };
  const auto real = type(event::ValueType::kReal);

  const auto good = decode_frame(subscribe_frame(op(Op::kGt), real, "20.5"));
  ASSERT_TRUE(good.is_ok());
  ASSERT_EQ(good.value().size(), 1u);
  EXPECT_EQ(good.value()[0].get<SubscribeMsg>()->filter.describe(),
            "celsius > 20.5");

  EXPECT_FALSE(decode_frame(subscribe_frame(99, real, "20.5")).is_ok());
  EXPECT_FALSE(decode_frame(subscribe_frame(op(Op::kExists) + 1, real, "20.5")).is_ok());
  EXPECT_FALSE(
      decode_frame(subscribe_frame(op(Op::kGt), type(event::ValueType::kBool) + 1, "20.5"))
          .is_ok());
  EXPECT_FALSE(decode_frame(subscribe_frame(op(Op::kGt), real, "warm")).is_ok());
  EXPECT_FALSE(decode_frame(subscribe_frame(op(Op::kGt), real, "")).is_ok());
  EXPECT_FALSE(
      decode_frame(subscribe_frame(op(Op::kGt), type(event::ValueType::kInt), "20.5")).is_ok());
  EXPECT_FALSE(
      decode_frame(subscribe_frame(op(Op::kEq), type(event::ValueType::kBool), "yes")).is_ok());
}

// --- codec names ---------------------------------------------------------

TEST(CodecNames, RoundTrip) {
  EXPECT_STREQ(codec_name(WireCodec::kXml), "xml");
  EXPECT_STREQ(codec_name(WireCodec::kBinary), "binary");
  ASSERT_TRUE(codec_from_name("binary").is_ok());
  EXPECT_EQ(codec_from_name("binary").value(), WireCodec::kBinary);
  ASSERT_TRUE(codec_from_name("xml").is_ok());
  EXPECT_EQ(codec_from_name("xml").value(), WireCodec::kXml);
  EXPECT_FALSE(codec_from_name("protobuf").is_ok());
}

}  // namespace
}  // namespace aa::wire
