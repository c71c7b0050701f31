// Tests for the event model: attribute values, XML encoding, filters,
// the covering relation (property-tested for soundness), overlap, and
// the subscription-language parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "common/hash.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "event/event.hpp"
#include "event/filter.hpp"
#include "event/filter_index.hpp"
#include "event/filter_parser.hpp"

namespace aa::event {
namespace {

// --- AttrValue ---

TEST(AttrValue, TypesAndAccessors) {
  EXPECT_TRUE(AttrValue("s").is_string());
  EXPECT_TRUE(AttrValue(3).is_int());
  EXPECT_TRUE(AttrValue(3.5).is_real());
  EXPECT_TRUE(AttrValue(true).is_bool());
  EXPECT_TRUE(AttrValue(3).is_numeric());
  EXPECT_DOUBLE_EQ(AttrValue(3).as_real(), 3.0);
}

TEST(AttrValue, TextRoundTrip) {
  for (const AttrValue& v :
       {AttrValue("hello"), AttrValue(-42), AttrValue(3.25), AttrValue(true)}) {
    auto back = AttrValue::from_text(v.type(), v.to_text());
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), v);
  }
}

TEST(AttrValue, FromTextRejectsGarbage) {
  EXPECT_FALSE(AttrValue::from_text(ValueType::kInt, "12x").is_ok());
  EXPECT_FALSE(AttrValue::from_text(ValueType::kReal, "").is_ok());
  EXPECT_FALSE(AttrValue::from_text(ValueType::kBool, "maybe").is_ok());
}

TEST(AttrValue, CompareAcrossNumericTypes) {
  EXPECT_EQ(AttrValue(3).compare(AttrValue(3.0)).value(), 0);
  EXPECT_EQ(AttrValue(2).compare(AttrValue(2.5)).value(), -1);
  EXPECT_FALSE(AttrValue(3).compare(AttrValue("3")).has_value());
}

TEST(AttrValue, NaNComparesWithNothing) {
  // Decoded input can carry NaN: the real parser accepts "nan".
  const AttrValue nan = AttrValue::from_text(ValueType::kReal, "nan").value();
  EXPECT_FALSE(nan.compare(AttrValue(5)).has_value());
  EXPECT_FALSE(AttrValue(5.0).compare(nan).has_value());
  EXPECT_FALSE(nan.compare(nan).has_value());
}

// Values that stress the XML encoding: strings holding every escapable
// character, the real edge cases (NaN, infinities, negative zero,
// denormals, the largest magnitudes) and the int extremes.
AttrValue random_edge_value(Rng& rng) {
  static const char* kPieces[] = {"<", ">", "&", "\"", "'", "\\", "a", "Zz", "0", " ", "&amp;"};
  static const double kReals[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      1e308,
      -1e-308,
      0.1,
      17.25,
      1e16,
      123456789012345678.0,
  };
  static const std::int64_t kInts[] = {std::numeric_limits<std::int64_t>::min(),
                                       std::numeric_limits<std::int64_t>::max(), 0, -1, 9, 10,
                                       -10, 999, 1000};
  switch (rng.below(6)) {
    case 0: {
      std::string text;
      for (std::uint64_t i = rng.below(6); i > 0; --i) {
        text += kPieces[rng.below(std::size(kPieces))];
      }
      return AttrValue(text);
    }
    case 1:
      return AttrValue(kInts[rng.below(std::size(kInts))]);
    case 2:
      return AttrValue(static_cast<std::int64_t>(rng.next()));
    case 3:
      return AttrValue(kReals[rng.below(std::size(kReals))]);
    case 4:
      return AttrValue(std::bit_cast<double>(rng.next()));  // any bit pattern
    default:
      return AttrValue(rng.chance(0.5));
  }
}

TEST(AttrValue, TextSizeEqualsRendering) {
  Rng rng(6021);
  for (int trial = 0; trial < 20000; ++trial) {
    const AttrValue v = random_edge_value(rng);
    ASSERT_EQ(v.text_size(), v.to_text().size()) << v.to_text();
  }
}

TEST(AttrValue, RealTextMatchesStreamRendering) {
  // to_text() renders reals with std::to_chars; the wire form (and the
  // golden digests over it) was defined by a precision-17 stream, so
  // the two must agree byte for byte, special values included.
  auto stream_text = [](double v) {
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
  };
  Rng rng(6022);
  for (int trial = 0; trial < 50000; ++trial) {
    const AttrValue v = trial % 2 == 0 ? random_edge_value(rng)
                                       : AttrValue(std::bit_cast<double>(rng.next()));
    if (!v.is_real()) continue;
    ASSERT_EQ(v.to_text(), stream_text(v.real()));
  }
}

// --- Event ---

TEST(Event, TypedAccessors) {
  Event e("temperature");
  e.set("celsius", 21.5).set("sensor", "s1").set_time(12345);
  EXPECT_EQ(e.type(), "temperature");
  EXPECT_DOUBLE_EQ(e.get_real("celsius").value(), 21.5);
  EXPECT_EQ(e.get_string("sensor").value(), "s1");
  EXPECT_EQ(e.time(), 12345);
  EXPECT_FALSE(e.get_int("celsius").has_value());  // real, not int
  EXPECT_FALSE(e.get_real("sensor").has_value());
}

TEST(Event, XmlRoundTrip) {
  Event e("user-location");
  e.set("user", "bob").set("lat", 56.3397).set("lon", -2.80753).set("indoors", false).set(
      "floor", 2);
  auto back = Event::parse(e.to_xml_string());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), e);
}

TEST(Event, FromXmlRejectsWrongRoot) {
  EXPECT_FALSE(Event::parse("<notevent/>").is_ok());
}

TEST(Event, FromXmlRejectsBadAttr) {
  EXPECT_FALSE(Event::parse(R"(<event><attr name="x" type="int" value="nope"/></event>)").is_ok());
  EXPECT_FALSE(Event::parse(R"(<event><attr name="x" type="widget" value="1"/></event>)").is_ok());
  EXPECT_FALSE(Event::parse(R"(<event><attr name="x"/></event>)").is_ok());
}

TEST(Event, WireSizePositiveAndGrows) {
  Event small("t");
  Event big("t");
  for (int i = 0; i < 20; ++i) big.set("attr" + std::to_string(i), i);
  EXPECT_GT(small.wire_size(), 0u);
  EXPECT_GT(big.wire_size(), small.wire_size());
}

// --- Copy-on-write payload sharing ---

// Random event over a wider universe than the covering tests below:
// every value type, 0..8 attributes, random insertion order.
Event random_cow_event(Rng& rng) {
  Event e;
  const int n = static_cast<int>(rng.below(9));
  for (int i = 0; i < n; ++i) {
    const std::string name = "a" + std::to_string(rng.below(12));
    switch (rng.below(4)) {
      case 0: e.set(name, AttrValue("v" + std::to_string(rng.below(50)))); break;
      case 1: e.set(name, AttrValue(static_cast<std::int64_t>(rng.range(-100, 100)))); break;
      case 2: e.set(name, AttrValue(rng.uniform(-4.0, 4.0))); break;
      default: e.set(name, AttrValue(rng.chance(0.5))); break;
    }
  }
  if (rng.chance(0.5)) e.set_type("t" + std::to_string(rng.below(4)));
  return e;
}

TEST(EventCow, CopiesSharePayloadUntilMutation) {
  Event a("temperature");
  a.set("celsius", 21.5);
  Event b = a;
  EXPECT_TRUE(a.shares_payload_with(b));
  b.set("celsius", 22.0);  // clone point
  EXPECT_FALSE(a.shares_payload_with(b));
  EXPECT_DOUBLE_EQ(a.get_real("celsius").value(), 21.5);
  EXPECT_DOUBLE_EQ(b.get_real("celsius").value(), 22.0);
}

TEST(EventCow, TraceStampRidesHandleNotPayload) {
  Event a("t");
  a.set("key", "k");
  const std::string wire_before = a.to_xml_string();
  Event b = a;
  b.set_trace(42, 7);
  // Stamping neither clones the payload nor perturbs identity or bytes.
  EXPECT_TRUE(a.shares_payload_with(b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.to_xml_string(), wire_before);
  EXPECT_EQ(b.trace_id(), 42u);
  EXPECT_EQ(b.trace_span(), 7u);
  EXPECT_EQ(a.trace_id(), 0u);
}

TEST(EventCow, RandomizedAliasingNeverLeaksMutations) {
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    Event original = random_cow_event(rng);
    const std::string frozen = original.to_xml_string();
    std::vector<Event> copies(1 + rng.below(4), original);
    for (Event& c : copies) {
      const int edits = 1 + static_cast<int>(rng.below(3));
      for (int i = 0; i < edits; ++i) {
        c.set("m" + std::to_string(rng.below(4)),
              AttrValue(static_cast<std::int64_t>(rng.below(100))));
      }
      EXPECT_FALSE(c.shares_payload_with(original));
    }
    EXPECT_EQ(original.to_xml_string(), frozen)
        << "a mutated copy leaked into its source (trial " << trial << ")";
  }
}

// --- Wire-size caching and serialisation counting ---

TEST(EventWire, OneSerializationPerEventNotPerSend) {
  Event e("t");
  e.set("key", "value");
  const std::uint64_t before = Event::serializations();
  const std::size_t size = e.wire_size();
  // Fan-out: shared handles reuse the cached size, and sizing never
  // renders — eight copies' wire_size() calls cost zero renders.
  for (int i = 0; i < 8; ++i) {
    Event hop = e;
    hop.set_trace(1, static_cast<std::uint64_t>(i));  // stamping must not invalidate
    EXPECT_EQ(hop.wire_size(), size);
  }
  EXPECT_EQ(e.wire_size(), size);
  EXPECT_EQ(Event::serializations() - before, 0u);

  // Mutation invalidates the cached size; re-sizing still renders
  // nothing.
  e.set("key", "other");
  const std::size_t resized = e.wire_size();
  e.wire_size();
  EXPECT_EQ(Event::serializations() - before, 0u);
  EXPECT_NE(resized, 0u);
  EXPECT_EQ(size, 104u);
  EXPECT_EQ(resized, 104u);
}

// Golden pin: the COW/interned representation must keep the XML wire
// form byte-identical to the original std::map-based one.  The digest
// below was captured from the pre-refactor code over 32 events covering
// every value type and both insertion orders.
TEST(EventWire, GoldenXmlBytesPinned) {
  std::string all;
  for (int i = 0; i < 32; ++i) {
    Event e;
    if (i % 2 == 0) {
      e.set("type", "t" + std::to_string(i % 4));
      e.set("user", "user" + std::to_string(i));
      e.set("celsius", 17.25 + i);
      e.set("floor", i);
      e.set("indoors", i % 3 == 0);
    } else {
      e.set("indoors", i % 3 == 0);
      e.set("floor", i);
      e.set("celsius", 17.25 + i);
      e.set("user", "user" + std::to_string(i));
      e.set("type", "t" + std::to_string(i % 4));
    }
    e.set_time(1000 * i);
    e.set_source("host-" + std::to_string(i % 8));
    all += e.to_xml_string();
    all += '\n';
    all += std::to_string(e.wire_size());
    all += '\n';
  }
  EXPECT_EQ(Uid160::from_content(all).to_hex(),
            "07a4799ded31cd11d8acbdbee0e8d2d71a49a3a8");

  // The events above hold no escapable character; pin one that holds
  // all five in its name and in its value.
  Event escaped;
  escaped.set("say<&>\"'", "<&>\"'");
  EXPECT_EQ(escaped.to_xml_string(),
            "<event><attr name=\"say&lt;&amp;&gt;&quot;&apos;\" type=\"string\" "
            "value=\"&lt;&amp;&gt;&quot;&apos;\"/></event>");
  EXPECT_EQ(escaped.wire_size(), 106u);
}

TEST(EventWire, XmlSizeEqualsRendering) {
  // wire_size() is arithmetic over the attributes; the rendering is its
  // oracle.  Events of 0..12 attributes (past the small-vector's eight
  // inline slots), names and values drawn from the escape and number
  // edge cases, re-sized after each mutation.
  static const char* kNames[] = {"type", "a", "<b>", "c&d", "q\"", "it's", "e", "f",
                                 "g",    "h", "i",   "j",   "k",    "longer_name"};
  EXPECT_EQ(Event().wire_size(), Event().to_xml_string().size());
  EXPECT_EQ(Event().wire_size(), 8u);
  Rng rng(6023);
  int spilled = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    Event e;
    const std::uint64_t n = rng.below(13);
    for (std::uint64_t i = 0; i < n; ++i) {
      e.set(kNames[rng.below(std::size(kNames))], random_edge_value(rng));
    }
    spilled += e.attributes().size() > 8 ? 1 : 0;
    ASSERT_EQ(e.wire_size(), e.to_xml_string().size()) << e.to_xml_string();
    Event copy = e;  // a shared payload keeps the size; a mutated clone re-sizes
    copy.set(kNames[rng.below(std::size(kNames))], random_edge_value(rng));
    ASSERT_EQ(copy.wire_size(), copy.to_xml_string().size()) << copy.to_xml_string();
    ASSERT_EQ(e.wire_size(), e.to_xml_string().size());
  }
  EXPECT_GT(spilled, 100);
}

TEST(EventXml, RandomizedRoundTripPreservesEquality) {
  Rng rng(7771);
  for (int trial = 0; trial < 200; ++trial) {
    const Event e = random_cow_event(rng);
    auto back = Event::parse(e.to_xml_string());
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(back.value(), e) << e.describe();
    EXPECT_EQ(back.value().to_xml_string(), e.to_xml_string());
  }
}

TEST(EventXml, CanonicalAcrossConstructionOrders) {
  Rng rng(4242);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::pair<std::string, AttrValue>> attrs;
    const int n = 1 + static_cast<int>(rng.below(7));
    for (int i = 0; i < n; ++i) {
      attrs.emplace_back("attr" + std::to_string(i),
                         AttrValue(static_cast<std::int64_t>(rng.below(1000))));
    }
    Event forward;
    for (const auto& [name, value] : attrs) forward.set(name, value);
    // Shuffle and rebuild: same attribute set, different insertion order.
    for (std::size_t i = attrs.size(); i > 1; --i) {
      std::swap(attrs[i - 1], attrs[rng.below(i)]);
    }
    Event shuffled;
    for (const auto& [name, value] : attrs) shuffled.set(name, value);
    EXPECT_EQ(forward, shuffled);
    EXPECT_EQ(forward.to_xml_string(), shuffled.to_xml_string());
    ASSERT_EQ(forward.attributes().size(), shuffled.attributes().size());
    for (std::size_t i = 0; i < forward.attributes().size(); ++i) {
      EXPECT_EQ(forward.attributes()[i].first, shuffled.attributes()[i].first);
    }
  }
}

// --- Filter matching ---

Event sample_event() {
  Event e("user-location");
  e.set("user", "bob").set("street", "North Street").set("celsius", 20.0).set("speed", 3);
  return e;
}

TEST(Filter, EmptyMatchesEverything) {
  EXPECT_TRUE(Filter().matches(sample_event()));
}

TEST(Filter, ConjunctionSemantics) {
  Filter f;
  f.where("user", Op::kEq, "bob").where("celsius", Op::kGt, 15.0);
  EXPECT_TRUE(f.matches(sample_event()));
  f.where("celsius", Op::kGt, 25.0);
  EXPECT_FALSE(f.matches(sample_event()));
}

TEST(Filter, MissingAttributeNeverMatches) {
  Filter f;
  f.where("ghost", Op::kExists);
  EXPECT_FALSE(f.matches(sample_event()));
}

TEST(Filter, StringOps) {
  const Event e = sample_event();
  EXPECT_TRUE(Filter().where("street", Op::kPrefix, "North").matches(e));
  EXPECT_TRUE(Filter().where("street", Op::kSuffix, "Street").matches(e));
  EXPECT_TRUE(Filter().where("street", Op::kSubstring, "th St").matches(e));
  EXPECT_FALSE(Filter().where("street", Op::kPrefix, "South").matches(e));
}

TEST(Filter, NumericWideningInComparisons) {
  const Event e = sample_event();  // speed is int 3
  EXPECT_TRUE(Filter().where("speed", Op::kLt, 3.5).matches(e));
  EXPECT_TRUE(Filter().where("celsius", Op::kGe, 20).matches(e));
}

TEST(Filter, TypeMismatchNeverMatches) {
  const Event e = sample_event();
  EXPECT_FALSE(Filter().where("user", Op::kGt, 5).matches(e));
  EXPECT_FALSE(Filter().where("user", Op::kNe, 5).matches(e));  // incomparable
}

TEST(Filter, NaNSatisfiesOnlyExists) {
  const AttrValue nan = std::numeric_limits<double>::quiet_NaN();
  Event five;
  five.set("v", 5);
  Event not_a_number;
  not_a_number.set("v", nan);
  EXPECT_FALSE(Filter().where("v", Op::kEq, nan).matches(five));
  EXPECT_FALSE(Filter().where("v", Op::kNe, 5).matches(not_a_number));
  EXPECT_FALSE(Filter().where("v", Op::kNe, nan).matches(not_a_number));
  EXPECT_TRUE(Filter().where("v", Op::kExists).matches(not_a_number));
  // Neither equality implies the other, so neither filter covers.
  const Filter eq5 = Filter().where("v", Op::kEq, 5);
  const Filter eq_nan = Filter().where("v", Op::kEq, nan);
  EXPECT_FALSE(eq5.covers(eq_nan));
  EXPECT_FALSE(eq_nan.covers(eq5));
}

// --- Covering: directed cases ---

TEST(Covering, EmptyFilterCoversAll) {
  Filter any;
  Filter narrow;
  narrow.where("a", Op::kEq, 1);
  EXPECT_TRUE(any.covers(narrow));
  EXPECT_FALSE(narrow.covers(any));
}

TEST(Covering, WiderRangeCoversNarrower) {
  Filter wide, narrow;
  wide.where("t", Op::kGt, 10.0);
  narrow.where("t", Op::kGt, 20.0);
  EXPECT_TRUE(wide.covers(narrow));
  EXPECT_FALSE(narrow.covers(wide));
}

TEST(Covering, EqualityCoveredByRange) {
  Filter range, point;
  range.where("t", Op::kGe, 10.0);
  point.where("t", Op::kEq, 15.0);
  EXPECT_TRUE(range.covers(point));
  EXPECT_FALSE(point.covers(range));
}

TEST(Covering, PrefixLattice) {
  Filter shorter, longer;
  shorter.where("s", Op::kPrefix, "ab");
  longer.where("s", Op::kPrefix, "abc");
  EXPECT_TRUE(shorter.covers(longer));
  EXPECT_FALSE(longer.covers(shorter));
}

TEST(Covering, ExistsCoversEverythingOnAttribute) {
  Filter exists, eq;
  exists.where("a", Op::kExists);
  eq.where("a", Op::kEq, "x");
  EXPECT_TRUE(exists.covers(eq));
  EXPECT_FALSE(eq.covers(exists));
}

TEST(Covering, ExtraConstraintsMakeNarrower) {
  Filter one, two;
  one.where("a", Op::kGt, 0);
  two.where("a", Op::kGt, 5).where("b", Op::kEq, "x");
  EXPECT_TRUE(one.covers(two));
  EXPECT_FALSE(two.covers(one));
}

// --- Covering: soundness property ---
// If F1.covers(F2) then every event matching F2 must match F1.
// Randomised over a small attribute/value universe so matches happen.

AttrValue random_value(Rng& rng) {
  if (rng.chance(0.05)) return std::numeric_limits<double>::quiet_NaN();
  switch (rng.below(4)) {
    case 0: return AttrValue(static_cast<std::int64_t>(rng.range(0, 9)));
    case 1: return AttrValue(static_cast<double>(rng.range(0, 9)) / 2.0);
    case 2: return AttrValue(std::string(1, static_cast<char>('a' + rng.below(4))) +
                             std::string(1, static_cast<char>('a' + rng.below(4))));
    default: return AttrValue(rng.chance(0.5));
  }
}

Constraint random_constraint(Rng& rng) {
  static const Op kOps[] = {Op::kEq, Op::kNe, Op::kLt, Op::kLe, Op::kGt,
                            Op::kGe, Op::kPrefix, Op::kSuffix, Op::kSubstring, Op::kExists};
  const std::string attribute(1, static_cast<char>('p' + rng.below(3)));
  const Op op = kOps[rng.below(10)];
  return Constraint(attribute, op, random_value(rng));
}

Filter random_filter(Rng& rng) {
  std::vector<Constraint> cs;
  const int n = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < n; ++i) cs.push_back(random_constraint(rng));
  return Filter(std::move(cs));
}

Event random_event(Rng& rng) {
  Event e;
  const int n = static_cast<int>(rng.below(5));
  for (int i = 0; i < n; ++i) {
    e.set(std::string(1, static_cast<char>('p' + rng.below(3))), random_value(rng));
  }
  return e;
}

class CoveringSoundness : public ::testing::TestWithParam<int> {};

TEST_P(CoveringSoundness, CoversImpliesSupersetOfMatches) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  for (int trial = 0; trial < 200; ++trial) {
    const Filter f1 = random_filter(rng);
    const Filter f2 = random_filter(rng);
    if (!f1.covers(f2)) continue;
    for (int k = 0; k < 50; ++k) {
      const Event e = random_event(rng);
      if (f2.matches(e)) {
        EXPECT_TRUE(f1.matches(e))
            << "violation: [" << f1.describe() << "] claims to cover [" << f2.describe()
            << "] but missed " << e.describe();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CoveringSoundness, ::testing::Range(0, 10));

// --- Covering: lattice property ---
// Transitivity and mutual covering, which the covering prune and
// Broker::reforward_covered rely on.  Four attributes and small value
// pools make covering chains common; the generators above form only a
// few per thousand random triples.  Longer sweep under ASan.
namespace lattice {

#if defined(__SANITIZE_ADDRESS__)
constexpr int kFuzzIters = 5000;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr int kFuzzIters = 5000;
#else
constexpr int kFuzzIters = 800;
#endif
#else
constexpr int kFuzzIters = 800;
#endif

const std::vector<std::string>& attr_pool() {
  static const std::vector<std::string> attrs{"type", "value", "name", "zone"};
  return attrs;
}

const std::vector<std::string>& string_pool() {
  static const std::vector<std::string> strings{"t0",    "t1",   "t12",  "alpha",
                                                "alp",   "beta", "north", "no"};
  return strings;
}

AttrValue random_value(Rng& rng) {
  switch (rng.below(4)) {
    case 0: return AttrValue(string_pool()[rng.below(string_pool().size())]);
    case 1: return AttrValue(static_cast<std::int64_t>(rng.below(16)) - 5);
    case 2: return AttrValue((static_cast<double>(rng.below(32)) - 10.0) / 2.0);
    default: return AttrValue(rng.chance(0.5));
  }
}

Constraint random_constraint(Rng& rng) {
  const std::string& attr = attr_pool()[rng.below(attr_pool().size())];
  const Op op = static_cast<Op>(rng.below(10));
  switch (op) {
    case Op::kExists:
      return Constraint(attr, op);
    case Op::kPrefix:
    case Op::kSuffix:
    case Op::kSubstring:
      return Constraint(attr, op, AttrValue(string_pool()[rng.below(string_pool().size())]));
    default:
      return Constraint(attr, op, random_value(rng));
  }
}

Filter random_filter(Rng& rng) {
  std::vector<Constraint> cs;
  const std::size_t n = 1 + rng.below(3);
  for (std::size_t i = 0; i < n; ++i) cs.push_back(random_constraint(rng));
  return Filter(std::move(cs));
}

Event random_event(Rng& rng) {
  Event e("fuzz");
  for (const std::string& attr : attr_pool()) {
    if (rng.chance(0.2)) continue;  // sometimes absent: exercises kExists
    e.set(attr, random_value(rng));
  }
  return e;
}

}  // namespace lattice

TEST(Covering, LatticeFuzz) {
  Rng rng(0xC0FEu);
  std::uint64_t covering_pairs = 0;
  for (int iter = 0; iter < lattice::kFuzzIters; ++iter) {
    const Filter a = lattice::random_filter(rng);
    const Filter b = lattice::random_filter(rng);
    const Filter c = lattice::random_filter(rng);

    // Soundness: covers(a, b) means every b-match is an a-match.
    if (a.covers(b)) {
      ++covering_pairs;
      for (int s = 0; s < 16; ++s) {
        const Event e = lattice::random_event(rng);
        if (b.matches(e)) {
          EXPECT_TRUE(a.matches(e)) << a.describe() << " claims to cover " << b.describe();
        }
      }
    }
    // Antisymmetry (up to semantic equivalence): mutual covering means
    // the two filters match the same events.
    if (a.covers(b) && b.covers(a)) {
      for (int s = 0; s < 16; ++s) {
        const Event e = lattice::random_event(rng);
        EXPECT_EQ(a.matches(e), b.matches(e)) << a.describe() << " <-> " << b.describe();
      }
    }
    // Transitivity: covering chains along the broker overlay compose.
    if (a.covers(b) && b.covers(c)) {
      EXPECT_TRUE(a.covers(c)) << a.describe() << " -> " << b.describe() << " -> "
                               << c.describe();
    }
  }
  EXPECT_GT(covering_pairs, 0u);
}

class OverlapSoundness : public ::testing::TestWithParam<int> {};

// overlaps() is conservative: it may say true when filters are disjoint,
// but must never say false when a common event exists.
TEST_P(OverlapSoundness, JointMatchImpliesOverlap) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1553 + 7);
  for (int trial = 0; trial < 300; ++trial) {
    const Filter f1 = random_filter(rng);
    const Filter f2 = random_filter(rng);
    const Event e = random_event(rng);
    if (f1.matches(e) && f2.matches(e)) {
      EXPECT_TRUE(f1.overlaps(f2)) << "[" << f1.describe() << "] vs [" << f2.describe()
                                   << "] share " << e.describe();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, OverlapSoundness, ::testing::Range(0, 10));

TEST(Overlap, ProvablyDisjointDetected) {
  Filter cold, hot;
  cold.where("t", Op::kLt, 0.0);
  hot.where("t", Op::kGt, 30.0);
  EXPECT_FALSE(cold.overlaps(hot));

  Filter pa, pb;
  pa.where("s", Op::kPrefix, "aa");
  pb.where("s", Op::kPrefix, "bb");
  EXPECT_FALSE(pa.overlaps(pb));

  Filter eq1, eq2;
  eq1.where("x", Op::kEq, 1);
  eq2.where("x", Op::kEq, 2);
  EXPECT_FALSE(eq1.overlaps(eq2));
}

// --- Parser ---

TEST(FilterParser, FullLanguage) {
  auto f = parse_filter(
      R"(type = "temperature" and celsius > 20 and street prefix "North" and user exists)");
  ASSERT_TRUE(f.is_ok()) << f.status().to_string();
  ASSERT_EQ(f.value().constraints().size(), 4u);
  Event e("temperature");
  e.set("celsius", 25.0).set("street", "North Street").set("user", "bob");
  EXPECT_TRUE(f.value().matches(e));
  e.set("celsius", 15.0);
  EXPECT_FALSE(f.value().matches(e));
}

TEST(FilterParser, NumbersAndBooleans) {
  auto f = parse_filter("n = 5 and x >= -1.5 and flag = true");
  ASSERT_TRUE(f.is_ok());
  Event e;
  e.set("n", 5).set("x", 0.0).set("flag", true);
  EXPECT_TRUE(f.value().matches(e));
}

TEST(FilterParser, BarewordsAreStrings) {
  auto f = parse_filter("kind = icecream");
  ASSERT_TRUE(f.is_ok());
  Event e;
  e.set("kind", "icecream");
  EXPECT_TRUE(f.value().matches(e));
}

TEST(FilterParser, Errors) {
  EXPECT_FALSE(parse_filter("").is_ok());
  EXPECT_FALSE(parse_filter("a >").is_ok());
  EXPECT_FALSE(parse_filter("a = 1 and").is_ok());
  EXPECT_FALSE(parse_filter("a = 1 or b = 2").is_ok());  // no 'or' in language
  EXPECT_FALSE(parse_filter("= 5").is_ok());
  EXPECT_FALSE(parse_filter("a = \"unterminated").is_ok());
}

TEST(FilterParser, RoundTripThroughDescribe) {
  // describe() output is itself parseable for simple filters, string
  // values holding quotes and backslashes included.
  Filter f;
  f.where("a", Op::kGt, 5).where("b", Op::kPrefix, "xy");
  Filter quoted;
  quoted.where("name", Op::kEq, "say \"hi\" \\ 'bye' \\\"");
  for (const Filter& want : {f, quoted}) {
    auto back = parse_filter(want.describe());
    ASSERT_TRUE(back.is_ok()) << want.describe();
    EXPECT_EQ(back.value(), want);
  }

  // A real reads back as the same real, never as an int or a bareword
  // string: integral ones, -0.0, the infinities, NaN, and the edges of
  // to_text's exponent-free spelling.
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double v : {20.0, -3.0, -0.0, 0.0, kInf, -kInf, 1e308, 20.5, 5e-324,
                         99999999999999984.0, 1e17, -1e17,
                         std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN()}) {
    Filter real;
    real.where("celsius", Op::kGt, v).where("type", Op::kEq, "temp");
    const std::string text = real.describe();
    EXPECT_EQ(real.describe_size(), text.size()) << text;
    auto back = parse_filter(text);
    ASSERT_TRUE(back.is_ok()) << text << ": " << back.status().to_string();
    ASSERT_EQ(back.value().constraints().size(), 2u) << text;
    const AttrValue& got = back.value().constraints()[0].value;
    ASSERT_TRUE(got.is_real()) << text;
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(got.real())) << text;
    } else {
      EXPECT_EQ(got.real(), v) << text;
      EXPECT_EQ(std::signbit(got.real()), std::signbit(v)) << text;
      EXPECT_EQ(back.value(), real) << text;
    }
  }
  EXPECT_EQ(Filter().where("celsius", Op::kGt, 20.0).describe(), "celsius > 20.0");
  EXPECT_EQ(Filter().where("celsius", Op::kGt, -kInf).describe(), "celsius > -inf");
  // The unsigned spellings still lex as words, so they may name an
  // attribute; as a value they read as reals.
  auto named = parse_filter("inf = nan");
  ASSERT_TRUE(named.is_ok());
  EXPECT_EQ(named.value().constraints()[0].attribute(), "inf");
  EXPECT_TRUE(named.value().constraints()[0].value.is_real());
}

// --- FilterIndex ---

std::vector<std::uint64_t> index_match(const FilterIndex& index, const Event& e) {
  std::vector<std::uint64_t> ids;
  index.match(e, ids);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(FilterIndex, MatchesEveryOperatorKind) {
  FilterIndex index;
  index.add(1, Filter().where("type", Op::kEq, "temp"));
  index.add(2, Filter().where("celsius", Op::kGt, 20.0));
  index.add(3, Filter().where("celsius", Op::kLe, 25));
  index.add(4, Filter().where("room", Op::kPrefix, "lab-"));
  index.add(5, Filter().where("room", Op::kSuffix, "-7"));
  index.add(6, Filter().where("room", Op::kSubstring, "ab"));
  index.add(7, Filter().where("type", Op::kNe, "humidity"));
  index.add(8, Filter().where("celsius", Op::kExists));
  index.add(9, Filter());  // empty filter matches everything

  Event e("temp");
  e.set("celsius", 22.5).set("room", "lab-7");
  EXPECT_EQ(index_match(index, e),
            (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9}));

  Event cold("temp");
  cold.set("celsius", 10);
  EXPECT_EQ(index_match(index, cold), (std::vector<std::uint64_t>{1, 3, 7, 8, 9}));
}

TEST(FilterIndex, ConjunctionRequiresEveryConstraint) {
  FilterIndex index;
  index.add(1, Filter().where("type", Op::kEq, "temp").where("celsius", Op::kGt, 20.0));
  Event warm("temp");
  warm.set("celsius", 30.0);
  Event mistyped("humidity");
  mistyped.set("celsius", 30.0);
  Event cold("temp");
  cold.set("celsius", 10.0);
  EXPECT_EQ(index_match(index, warm), (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(index_match(index, mistyped).empty());
  EXPECT_TRUE(index_match(index, cold).empty());
}

TEST(FilterIndex, NumericEqualityWidensLikeCompare) {
  // int 3 and real 3.0 are equal under AttrValue::compare; the index
  // must reproduce that, in both directions.
  FilterIndex index;
  index.add(1, Filter().where("v", Op::kEq, 3));
  index.add(2, Filter().where("v", Op::kEq, 3.0));
  Event as_int;
  as_int.set("v", 3);
  Event as_real;
  as_real.set("v", 3.0);
  EXPECT_EQ(index_match(index, as_int), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(index_match(index, as_real), (std::vector<std::uint64_t>{1, 2}));
}

TEST(FilterIndex, NaNAgreesWithOracle) {
  // A NaN bound or equality matches nothing, and a NaN event value must
  // not satisfy equality or range constraints.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  FilterIndex index;
  index.add(1, Filter().where("v", Op::kLt, 5));
  index.add(2, Filter().where("v", Op::kLt, nan));
  index.add(3, Filter().where("v", Op::kEq, nan));
  index.add(4, Filter().where("v", Op::kExists));
  index.add(5, Filter().where("v", Op::kEq, 5));
  Event three;
  three.set("v", 3);
  Event five;
  five.set("v", 5.0);
  Event not_a_number;
  not_a_number.set("v", nan);
  EXPECT_EQ(index_match(index, three), (std::vector<std::uint64_t>{1, 4}));
  EXPECT_EQ(index_match(index, five), (std::vector<std::uint64_t>{4, 5}));
  EXPECT_EQ(index_match(index, not_a_number), (std::vector<std::uint64_t>{4}));
  index.remove(2);
  index.remove(3);
  EXPECT_EQ(index_match(index, three), (std::vector<std::uint64_t>{1, 4}));
}

TEST(FilterIndex, RemoveAndReAdd) {
  FilterIndex index;
  index.add(1, Filter().where("a", Op::kEq, 1));
  index.add(2, Filter().where("a", Op::kEq, 1));
  Event e;
  e.set("a", 1);
  EXPECT_EQ(index_match(index, e), (std::vector<std::uint64_t>{1, 2}));

  index.remove(1);
  EXPECT_EQ(index_match(index, e), (std::vector<std::uint64_t>{2}));
  EXPECT_FALSE(index.contains(1));

  // Re-adding an id replaces its previous filter.
  index.add(2, Filter().where("a", Op::kEq, 7));
  EXPECT_TRUE(index_match(index, e).empty());
  index.remove(2);
  index.remove(99);  // unknown id: no-op
  EXPECT_TRUE(index.empty());
}

TEST(FilterIndex, KeyedMatchProbesOnlyAccessCandidates) {
  // heat's device table: every filter names the suggestion type, and one
  // user.  A linear scan would test all 1000 filters; the access path
  // verifies only the filters marked under the event's keys — here the
  // first filter (marked under the type, its lists being equally empty
  // when it arrived) and user17's.
  FilterIndex devices;
  for (std::uint64_t n = 0; n < 1000; ++n) {
    devices.add(n, Filter()
                       .where("type", Op::kEq, "suggestion")
                       .where("user", Op::kEq, "user" + std::to_string(n)));
  }
  devices.add(1000, Filter().where("source", Op::kEq, "sensor"));
  Event suggestion("suggestion");
  suggestion.set("user", "user17").set_source("matchlet");
  std::vector<std::uint64_t> out;
  EXPECT_LE(devices.match(suggestion, out), 2u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{17}));

  // fanout's table: a topic key plus a 30-wide value window.  Each
  // filter's one equality is its access predicate, so an event verifies
  // exactly the filters on its topic, and its value probes no table.
  Rng rng(5);
  FilterIndex windows;
  std::vector<Filter> filters;
  std::map<std::string, std::uint64_t> per_topic;
  for (std::uint64_t id = 0; id < 400; ++id) {
    const std::string topic = "t" + std::to_string(rng.below(8));
    const auto lo = static_cast<double>(rng.range(0, 70));
    Filter f = Filter()
                   .where("topic", Op::kEq, topic)
                   .where("value", Op::kGe, lo)
                   .where("value", Op::kLe, lo + 30);
    windows.add(id, f);
    filters.push_back(std::move(f));
    ++per_topic[topic];
  }
  for (int i = 0; i < 50; ++i) {
    const std::string topic = "t" + std::to_string(rng.below(8));
    Event e("reading");
    e.set("topic", topic).set("value", static_cast<double>(rng.range(0, 100)));
    std::vector<std::uint64_t> expected;
    for (std::uint64_t id = 0; id < filters.size(); ++id) {
      if (filters[id].matches(e)) expected.push_back(id);
    }
    std::vector<std::uint64_t> got;
    EXPECT_EQ(windows.match(e, got), per_topic[topic]) << e.describe();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << e.describe();
  }
}

TEST(FilterIndex, UnkeyedFiltersCostOneProbeEach) {
  // A filter with no non-NaN equality has no access predicate: match()
  // verifies every constraint of each such filter, one probe apiece,
  // whether or not the event satisfies it.  The empty filter costs no
  // probe; keyed filters cost the candidates under the event's keys.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Filter> unkeyed = {
      Filter().where("celsius", Op::kGt, 20.0),
      Filter().where("celsius", Op::kLe, 25).where("room", Op::kPrefix, "lab-"),
      Filter().where("room", Op::kSuffix, "-7"),
      Filter().where("room", Op::kSubstring, "ab"),
      Filter().where("type", Op::kNe, "humidity"),
      Filter().where("celsius", Op::kExists),
      Filter().where("celsius", Op::kEq, nan),  // a NaN equality is no key
      Filter().where("room", Op::kGe, "lab-5").where("celsius", Op::kLt, 30.0),
  };
  const std::vector<Filter> keyed = {
      Filter().where("type", Op::kEq, "temp").where("celsius", Op::kGt, 22.0),
      Filter().where("type", Op::kEq, "temp"),
      Filter().where("type", Op::kEq, "humidity").where("room", Op::kPrefix, "lab-"),
  };
  // Keyed candidates per event type: the filters marked under it.
  const std::map<std::string, std::uint64_t> candidates = {
      {"temp", 2}, {"humidity", 1}, {"door", 0}};

  FilterIndex index;
  std::map<std::uint64_t, Filter> oracle;
  for (const auto* group : {&unkeyed, &keyed}) {
    for (const Filter& f : *group) {
      const std::uint64_t id = oracle.size();
      index.add(id, f);
      oracle.emplace(id, f);
    }
  }
  index.add(oracle.size(), Filter());
  oracle.emplace(oracle.size(), Filter());

  Event warm("temp");
  warm.set("celsius", 22.5).set("room", "lab-7");
  Event cold("temp");
  cold.set("celsius", 10);
  Event damp("humidity");
  damp.set("room", "lab-2");
  Event bare("door");
  Event not_a_number("temp");
  not_a_number.set("celsius", nan);
  for (const Event* e : {&warm, &cold, &damp, &bare, &not_a_number}) {
    std::vector<std::uint64_t> expected;
    std::size_t unkeyed_matched = 0;
    for (const auto& [id, f] : oracle) {
      if (!f.matches(*e)) continue;
      expected.push_back(id);
      if (id < unkeyed.size()) ++unkeyed_matched;
    }
    // Every event here satisfies some unkeyed filters and fails others.
    EXPECT_GT(unkeyed_matched, 0u) << e->describe();
    EXPECT_LT(unkeyed_matched, unkeyed.size()) << e->describe();
    std::vector<std::uint64_t> got;
    EXPECT_EQ(index.match(*e, got), candidates.at(e->type()) + unkeyed.size()) << e->describe();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << e->describe();
  }
}

// A fresh filter for an id being re-added: often its previous filter
// with the equalities dropped or one added (flipping it between the
// unkeyed list and the access path), or a shape at the access path's
// edges.
Filter readd_filter(Rng& rng, const Filter& previous) {
  const auto is_eq = [](const Constraint& c) { return c.op == Op::kEq; };
  const std::string attribute(1, static_cast<char>('p' + rng.below(3)));
  std::vector<Constraint> cs = previous.constraints();
  switch (rng.below(6)) {
    case 0:  // loses every equality: keyed -> unkeyed
      std::erase_if(cs, is_eq);
      break;
    case 1:  // gains an equality: unkeyed -> keyed
      cs.emplace_back(attribute, Op::kEq, random_value(rng));
      break;
    case 2:  // its only equality is NaN, which no key can hold
      std::erase_if(cs, is_eq);
      cs.emplace_back(attribute, Op::kEq, std::numeric_limits<double>::quiet_NaN());
      break;
    case 3:  // two equalities on one attribute (a = 1 and a = 2, or a = 1 and a = 1.0)
      cs = {Constraint(attribute, Op::kEq, random_value(rng)),
            Constraint(attribute, Op::kEq, random_value(rng))};
      break;
    case 4:  // a repeated equality
      cs = random_filter(rng).constraints();
      cs.emplace_back(attribute, Op::kEq, random_value(rng));
      cs.push_back(cs.back());
      break;
    default:  // equality-rich
      cs.clear();
      for (int i = 0, n = 1 + static_cast<int>(rng.below(3)); i < n; ++i) {
        cs.push_back(random_constraint(rng));
        if (rng.chance(0.5)) cs.back().op = Op::kEq;
      }
  }
  return Filter(std::move(cs));
}

// An event that sets most of `target`'s equalities, so keyed candidates
// reach verification; the rest of the event is random.
Event aimed_event(Rng& rng, const Filter& target) {
  Event e = random_event(rng);
  for (const Constraint& c : target.constraints()) {
    if (c.op == Op::kEq && rng.chance(0.9)) e.set(c.atom, c.value);
  }
  return e;
}

TEST(FilterIndex, RandomizedAgreesWithLinearScanOracle) {
  // Property test: over generated filters and events covering every Op
  // kind and value type (reusing the covering-soundness generators,
  // whose small attribute/value pool forces collisions), the index
  // returns exactly the filters the linear-scan oracle accepts —
  // including empty filters, after random removals, and after re-adding
  // ids with fresh filters (freed slots reused, keyed <-> unkeyed flips,
  // NaN-only, conflicting and repeated equalities).
  Rng rng(41);
  for (int round = 0; round < 20; ++round) {
    FilterIndex index;
    std::map<std::uint64_t, Filter> oracle;
    auto expect_oracle = [&](const Event& e, const char* phase) {
      std::vector<std::uint64_t> expected;
      for (const auto& [id, f] : oracle) {
        if (f.matches(e)) expected.push_back(id);
      }
      EXPECT_EQ(index_match(index, e), expected)
          << "event: " << e.describe() << " (" << phase << ", round " << round << ")";
    };
    for (std::uint64_t id = 1; id <= 60; ++id) {
      Filter f = rng.chance(0.1) ? Filter() : random_filter(rng);
      index.add(id, f);
      oracle.emplace(id, std::move(f));
    }
    // Drop a random third to exercise removal from every list kind.
    for (auto it = oracle.begin(); it != oracle.end();) {
      if (rng.chance(1.0 / 3.0)) {
        index.remove(it->first);
        it = oracle.erase(it);
      } else {
        ++it;
      }
    }
    for (int i = 0; i < 50; ++i) expect_oracle(random_event(rng), "removed");

    // Re-add a random third of the ids, stored or removed, with fresh
    // filters.
    for (std::uint64_t id = 1; id <= 60; ++id) {
      if (!rng.chance(1.0 / 3.0)) continue;
      const auto old = oracle.find(id);
      Filter f = readd_filter(rng, old == oracle.end() ? Filter() : old->second);
      index.add(id, f);
      oracle[id] = std::move(f);
    }
    ASSERT_EQ(index.size(), oracle.size());
    ASSERT_FALSE(oracle.empty());
    for (int i = 0; i < 50; ++i) {
      expect_oracle(random_event(rng), "re-added");
      const auto target = std::next(oracle.begin(), static_cast<long>(rng.below(oracle.size())));
      expect_oracle(aimed_event(rng, target->second), "re-added, aimed");
    }
  }
}

// Covering-rich filters for the probe test: equalities are common, so
// covering pairs are too, and a share of filters derive from stored ones
// (exact duplicates, one constraint more or one fewer).
Filter covering_filter(Rng& rng, const std::map<std::uint64_t, Filter>& stored) {
  const std::uint64_t kind = rng.below(10);
  if (kind == 0) return Filter();
  std::vector<Constraint> cs;
  if (kind <= 3 && !stored.empty()) {
    cs = std::next(stored.begin(), static_cast<long>(rng.below(stored.size())))
             ->second.constraints();
    if (kind == 2) cs.push_back(random_constraint(rng));
    if (kind == 3 && !cs.empty()) cs.erase(cs.begin() + static_cast<long>(rng.below(cs.size())));
    return Filter(std::move(cs));
  }
  const int n = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < n; ++i) {
    cs.push_back(random_constraint(rng));
    if (rng.chance(0.5)) cs.back().op = Op::kEq;
  }
  // Repeat one constraint: an equality posted twice for one slot.
  if (rng.chance(0.1)) cs.push_back(cs[rng.below(cs.size())]);
  return Filter(std::move(cs));
}

TEST(FilterIndex, RandomizedCoveringProbesMatchScanOracle) {
  // Random add / re-add / remove sequences (slot reuse, duplicates,
  // repeated equalities, int/real widening, bools, NaN, empty filters and
  // filters with no equality).  Both probes must return a superset of a
  // brute-force covers() scan, and a probe holding every stored equality
  // once must reach each stored filter exactly once — one access
  // predicate per filter.
  Rng rng(97);
  for (int round = 0; round < 20; ++round) {
    FilterIndex index;
    std::map<std::uint64_t, Filter> stored;
    std::uint64_t next_id = 1;
    for (int step = 0; step < 120; ++step) {
      const std::uint64_t op = rng.below(4);
      const auto it = std::next(stored.begin(), static_cast<long>(rng.below(stored.size() + 1)));
      if (op == 0 && it != stored.end()) {
        index.remove(it->first);
        stored.erase(it);
      } else if (op == 1 && it != stored.end()) {
        it->second = covering_filter(rng, stored);
        index.add(it->first, it->second);
      } else {
        const Filter f = covering_filter(rng, stored);
        index.add(next_id, f);
        stored.emplace(next_id++, f);
      }
      ASSERT_EQ(index.size(), stored.size());

      for (int probe = 0; probe < 4; ++probe) {
        const Filter f = covering_filter(rng, stored);
        std::set<std::uint64_t> covering;
        EXPECT_FALSE(index.covering_candidates(f, [&](std::uint64_t id) {
          covering.insert(id);
          return false;
        }));
        std::vector<std::uint64_t> covered_list;
        index.covered_candidates(f, covered_list);
        const std::set<std::uint64_t> covered(covered_list.begin(), covered_list.end());
        for (const auto& [id, g] : stored) {
          if (g.covers(f)) {
            EXPECT_TRUE(covering.contains(id))
                << "[" << g.describe() << "] covers [" << f.describe() << "] (round " << round
                << ", step " << step << ")";
          }
          if (f.covers(g)) {
            EXPECT_TRUE(covered.contains(id))
                << "[" << f.describe() << "] covers [" << g.describe() << "] (round " << round
                << ", step " << step << ")";
          }
        }
        for (std::uint64_t id : covering) EXPECT_TRUE(stored.contains(id));
        for (std::uint64_t id : covered) EXPECT_TRUE(stored.contains(id));
      }

      // Every distinct stored equality once (int 3 and real 3.0 are one).
      Filter all_keys;
      for (const auto& [id, g] : stored) {
        for (const Constraint& c : g.constraints()) {
          if (c.op != Op::kEq) continue;
          const auto& have = all_keys.constraints();
          const bool seen = std::any_of(have.begin(), have.end(), [&](const Constraint& d) {
            return d.atom == c.atom && d.matches(c.value);
          });
          if (!seen) all_keys.where(c.atom, Op::kEq, c.value);
        }
      }
      std::map<std::uint64_t, int> visits;
      index.covering_candidates(all_keys, [&](std::uint64_t id) {
        ++visits[id];
        return false;
      });
      ASSERT_EQ(visits.size(), stored.size()) << "round " << round << ", step " << step;
      for (const auto& [id, count] : visits) {
        EXPECT_TRUE(stored.contains(id));
        EXPECT_EQ(count, 1) << stored[id].describe() << " (round " << round << ")";
      }
    }
  }
}

}  // namespace
}  // namespace aa::event
