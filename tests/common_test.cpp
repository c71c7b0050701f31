// Unit tests for src/common: hashing, identifiers, RNG, serialization,
// status/result, geographic primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <vector>

#include "common/body.hpp"
#include "common/bytes.hpp"
#include "common/geo.hpp"
#include "common/hash.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace aa {
namespace {

std::string hex(const Sha1Digest& d) {
  static const char* k = "0123456789abcdef";
  std::string s;
  for (auto b : d) {
    s.push_back(k[b >> 4]);
    s.push_back(k[b & 0xF]);
  }
  return s;
}

// --- SHA-1 (FIPS 180-1 test vectors) ---

TEST(Sha1, EmptyString) {
  EXPECT_EQ(hex(Sha1::hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(hex(Sha1::hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha1::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionA) {
  Sha1 s;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) s.update(chunk);
  EXPECT_EQ(hex(s.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  Sha1 s;
  s.update("hello ");
  s.update("world");
  EXPECT_EQ(s.finish(), Sha1::hash("hello world"));
}

TEST(Sha1, ReusableAfterFinish) {
  Sha1 s;
  s.update("abc");
  (void)s.finish();
  s.update("abc");
  EXPECT_EQ(hex(s.finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

// --- Uid160 ---

TEST(Uid160, HexRoundTrip) {
  const Uid160 id = Uid160::from_content("some object");
  bool ok = false;
  const Uid160 back = Uid160::from_hex(id.to_hex(), &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(id, back);
}

TEST(Uid160, FromHexRejectsBadInput) {
  bool ok = true;
  (void)Uid160::from_hex("zz", &ok);
  EXPECT_FALSE(ok);
  ok = true;
  (void)Uid160::from_hex(std::string(40, 'g'), &ok);
  EXPECT_FALSE(ok);
}

TEST(Uid160, DigitsMatchHex) {
  const Uid160 id = Uid160::from_content("x");
  const std::string h = id.to_hex();
  for (int i = 0; i < Uid160::kDigits; ++i) {
    const int expected = (h[i] <= '9') ? h[i] - '0' : h[i] - 'a' + 10;
    EXPECT_EQ(id.digit(i), expected) << "digit " << i;
  }
}

TEST(Uid160, WithDigit) {
  Uid160 id;
  id = id.with_digit(0, 0xF).with_digit(39, 0x3);
  EXPECT_EQ(id.digit(0), 0xF);
  EXPECT_EQ(id.digit(39), 0x3);
  EXPECT_EQ(id.digit(1), 0);
}

TEST(Uid160, SharedPrefix) {
  Uid160 a = Uid160::from_content("a");
  Uid160 b = a;
  EXPECT_EQ(a.shared_prefix_digits(b), 40);
  b = b.with_digit(5, (a.digit(5) + 1) % 16);
  EXPECT_EQ(a.shared_prefix_digits(b), 5);
}

TEST(Uid160, RingDistanceSymmetryAndZero) {
  const Uid160 a = Uid160::from_content("a");
  const Uid160 b = Uid160::from_content("b");
  EXPECT_EQ(a.ring_distance(b), b.ring_distance(a));
  EXPECT_TRUE(a.ring_distance(a).is_zero());
}

TEST(Uid160, RingDistanceCwWrapsAround) {
  // 0x00..01 and 0xFF..FF: cw distance from max to 1 is 2.
  Uid160 one;
  one = one.with_digit(39, 1);
  Uid160 max;
  for (int i = 0; i < 40; ++i) max = max.with_digit(i, 0xF);
  Uid160 two;
  two = two.with_digit(39, 2);
  EXPECT_EQ(max.ring_distance_cw(one), two);
}

TEST(Uid160, CloserToIsTotalAndAntisymmetric) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Uid160 t = rng.uid(), a = rng.uid(), b = rng.uid();
    if (a == b) continue;
    EXPECT_NE(a.closer_to(t, b), b.closer_to(t, a));
  }
}

// The byte-at-a-time borrow loop the word-wide ring arithmetic
// replaced, kept as its reference.
Uid160 bytewise_ring_distance_cw(const Uid160& from, const Uid160& to) {
  std::array<std::uint8_t, 20> diff{};
  int borrow = 0;
  for (std::size_t i = 20; i-- > 0;) {
    int d = static_cast<int>(to.bytes()[i]) - static_cast<int>(from.bytes()[i]) - borrow;
    borrow = d < 0 ? 1 : 0;
    diff[i] = static_cast<std::uint8_t>(d + 256 * borrow);
  }
  return Uid160(diff);
}

Uid160 bytewise_ring_distance(const Uid160& a, const Uid160& b) {
  return std::min(bytewise_ring_distance_cw(a, b), bytewise_ring_distance_cw(b, a));
}

bool bytewise_closer_to(const Uid160& self, const Uid160& target, const Uid160& other) {
  const Uid160 mine = bytewise_ring_distance(self, target);
  const Uid160 theirs = bytewise_ring_distance(other, target);
  if (mine != theirs) return mine < theirs;
  return self < other;
}

/// 2^bit, or 2^bit - 1 (every bit below `bit` set).
Uid160 power_of_two(int bit, bool minus_one = false) {
  std::array<std::uint8_t, 20> b{};
  const auto set = [&b](int i) {
    b[static_cast<std::size_t>(19 - i / 8)] |= static_cast<std::uint8_t>(1 << (i % 8));
  };
  if (!minus_one) set(bit);
  for (int i = 0; minus_one && i < bit; ++i) set(i);
  return Uid160(b);
}

TEST(Uid160, LimbArithmeticMatchesBytewiseReference) {
  // Edge ids: 0, 1, 2^160-1, 2^159 and its neighbours, and 2^k, 2^k-1
  // around both limb seams (bits 64 and 128) and the byte boundaries
  // next to them, so every borrow chain across a seam is exercised.
  std::vector<Uid160> ids = {Uid160{}, power_of_two(0), power_of_two(160, true),
                             power_of_two(159), power_of_two(159, true)};
  ids.push_back(power_of_two(159).with_digit(39, 1));
  for (int bit : {7, 8, 56, 63, 64, 65, 72, 120, 127, 128, 129, 136}) {
    ids.push_back(power_of_two(bit));
    ids.push_back(power_of_two(bit, true));
  }
  Rng rng(160);
  for (int i = 0; i < 8; ++i) ids.push_back(rng.uid());
  for (const Uid160& a : ids) {
    for (const Uid160& b : ids) {
      ASSERT_EQ(a.ring_distance_cw(b), bytewise_ring_distance_cw(a, b))
          << a.to_hex() << " -> " << b.to_hex();
      ASSERT_EQ(a.ring_distance(b), bytewise_ring_distance(a, b));
      for (const Uid160& t : ids) {
        ASSERT_EQ(a.closer_to(t, b), bytewise_closer_to(a, t, b))
            << a.to_hex() << " vs " << b.to_hex() << " to " << t.to_hex();
      }
    }
  }
  for (int trial = 0; trial < 20000; ++trial) {
    const Uid160 a = rng.uid(), b = rng.uid(), t = rng.uid();
    ASSERT_EQ(a.ring_distance_cw(b), bytewise_ring_distance_cw(a, b));
    ASSERT_EQ(a.ring_distance(b), bytewise_ring_distance(a, b));
    ASSERT_EQ(a.closer_to(t, b), bytewise_closer_to(a, t, b));
    ASSERT_EQ(a.closer_to(t, a), bytewise_closer_to(a, t, a));
  }
}

// --- Rng ---

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto r = rng.range(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
  }
}

TEST(Rng, ForkIsIndependentStream) {
  Rng parent(9);
  Rng child = parent.fork();
  EXPECT_NE(parent.next(), child.next());
}

TEST(Rng, UidsAreDistinct) {
  Rng rng(11);
  std::set<std::string> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uid().to_hex());
  EXPECT_EQ(seen.size(), 500u);
}

TEST(Zipf, SkewsTowardLowRanks) {
  Rng rng(5);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) counts[zipf.sample(rng)]++;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 100);  // far above uniform share
}

TEST(Zipf, UniformWhenExponentZero) {
  Rng rng(6);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) counts[zipf.sample(rng)]++;
  for (int c : counts) EXPECT_NEAR(c, 1000, 200);
}

// --- Bytes ---

TEST(Bytes, PrimitivesRoundTrip) {
  BufWriter w;
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  w.boolean(true);
  w.str("hello");
  w.uid(Uid160::from_content("k"));

  BufReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.uid(), Uid160::from_content("k"));
  EXPECT_TRUE(r.at_end());
  EXPECT_FALSE(r.failed());
}

TEST(Bytes, TruncatedInputFailsSoft) {
  BufWriter w;
  w.str("truncate me please");
  Bytes data = std::move(w).take();
  data.resize(6);  // cut inside the string body
  BufReader r(data);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.u64(), 0u);  // further reads stay safe
}

TEST(Bytes, StringBytesConversion) {
  const std::string s = "abc\0def";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

// --- Status / Result ---

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = error(Code::kNotFound, "missing thing");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Code::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: missing thing");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r = error(Code::kTimeout, "slow");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kTimeout);
  EXPECT_EQ(r.value_or(-1), -1);
}

// --- Geo ---

TEST(Geo, DistanceStAndrewsExample) {
  // Two points a few hundred metres apart in St Andrews (the paper's
  // ice-cream scenario geography).
  const GeoPoint market{56.3403, -2.7957};
  const GeoPoint north{56.3417, -2.7972};
  const double d = geo_distance_m(market, north);
  EXPECT_GT(d, 100.0);
  EXPECT_LT(d, 400.0);
}

TEST(Geo, DistanceZeroForSamePoint) {
  const GeoPoint p{56.0, -2.0};
  EXPECT_DOUBLE_EQ(geo_distance_m(p, p), 0.0);
}

TEST(Geo, WalkingTimeScalesWithDistance) {
  const GeoPoint a{56.0, -2.0};
  const GeoPoint b{56.01, -2.0};  // ~1.1 km
  const double t = walking_time_s(a, b);
  EXPECT_GT(t, 600.0);
  EXPECT_LT(t, 1000.0);
}

TEST(Geo, RegionContains) {
  GeoRegion r{"st-andrews", 56.33, 56.35, -2.82, -2.77};
  EXPECT_TRUE(r.contains({56.34, -2.80}));
  EXPECT_FALSE(r.contains({56.36, -2.80}));
}

TEST(Geo, RegionMapLocate) {
  RegionMap map;
  map.add(GeoRegion{"centre", 56.339, 56.341, -2.80, -2.79});
  map.add(GeoRegion{"town", 56.33, 56.35, -2.82, -2.77});
  EXPECT_EQ(map.locate({56.34, -2.795}).value(), "centre");  // first match wins
  EXPECT_EQ(map.locate({56.345, -2.78}).value(), "town");
  EXPECT_FALSE(map.locate({0, 0}).has_value());
  EXPECT_NE(map.find("town"), nullptr);
  EXPECT_EQ(map.find("nowhere"), nullptr);
}

// --- Body (type-erased packet body) ---

TEST(Body, LargerThanInlineRoomRoundTripsCopiesAndMoves) {
  struct Big {
    std::string name;
    std::array<std::uint64_t, 16> words{};
  };
  static_assert(sizeof(Big) > Body::kInlineBytes && !Body::stores_inline<Big>);
  Big big{"spill", {}};
  for (std::size_t i = 0; i < big.words.size(); ++i) big.words[i] = i * i;

  Body a(big);
  ASSERT_NE(a.get<Big>(), nullptr);
  EXPECT_EQ(a.get<Big>()->name, "spill");
  EXPECT_EQ(a.get<Big>()->words[15], 225u);

  Body copy = a;  // a deep copy: mutating it leaves `a` alone
  copy.get<Big>()->words[15] = 1;
  EXPECT_EQ(a.get<Big>()->words[15], 225u);
  EXPECT_EQ(copy.get<Big>()->words[15], 1u);

  const Big* held = a.get<Big>();
  Body moved = std::move(a);  // steals the heap block
  EXPECT_EQ(moved.get<Big>(), held);
  EXPECT_FALSE(a.has_value());
  EXPECT_EQ(a.get<Big>(), nullptr);

  Body assigned;
  assigned = moved;
  EXPECT_EQ(assigned.get<Big>()->name, "spill");
  assigned = std::move(copy);
  EXPECT_EQ(assigned.get<Big>()->words[15], 1u);
  assigned = Body(std::string("small again"));
  EXPECT_EQ(assigned.get<Big>(), nullptr);
  EXPECT_EQ(*assigned.get<std::string>(), "small again");
}

TEST(Body, InlineValueCopiesAndMovesWithoutSharing) {
  static_assert(Body::stores_inline<std::string> && Body::stores_inline<std::uint64_t>);
  Body a(std::string("inline"));
  Body b = a;
  *b.get<std::string>() += "!";
  EXPECT_EQ(*a.get<std::string>(), "inline");
  EXPECT_EQ(*b.get<std::string>(), "inline!");
  Body c = std::move(b);
  EXPECT_FALSE(b.has_value());
  EXPECT_EQ(*c.get<std::string>(), "inline!");
  const Body& alias = c;
  c = alias;  // self-assignment keeps the value
  EXPECT_EQ(*c.get<std::string>(), "inline!");
}

TEST(Body, TypeMismatchIsNull) {
  const Body empty;
  EXPECT_FALSE(empty.has_value());
  EXPECT_EQ(empty.get<int>(), nullptr);
  const Body n(std::uint64_t{42});
  EXPECT_EQ(n.get<std::int64_t>(), nullptr);  // exact type only
  EXPECT_EQ(n.get<int>(), nullptr);
  ASSERT_NE(n.get<std::uint64_t>(), nullptr);
  EXPECT_EQ(*n.get<const std::uint64_t>(), 42u);
}

}  // namespace
}  // namespace aa
