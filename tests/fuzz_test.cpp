// Robustness (fuzz/property) tests: every parser and codec in the
// system must fail soft on malformed input — a wide-area architecture
// feeds them bytes from other administrative domains (§4.7's open
// interfaces cut both ways).
#include <gtest/gtest.h>

#include "bundle/bundle.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "event/filter_parser.hpp"
#include "match/rule.hpp"
#include "storage/erasure.hpp"
#include "xml/xml.hpp"

namespace aa {
namespace {

std::string random_bytes_string(Rng& rng, std::size_t max_len) {
  std::string s;
  const std::size_t n = rng.below(max_len + 1);
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng.below(256)));
  }
  return s;
}

std::string random_xmlish(Rng& rng, std::size_t max_len) {
  static const char* kAtoms[] = {"<",  ">",   "</", "/>", "a",    "bc",  "=",
                                 "\"", "'",   " ",  "&",  "&lt;", ";",   "<!--",
                                 "-->", "<?", "?>", "\n", "x=\"y\"", "zz",
                                 "&#", "&#x", "7", "65", "99999999999999"};
  std::string s;
  const std::size_t n = rng.below(max_len + 1);
  for (std::size_t i = 0; i < n; ++i) {
    s += kAtoms[rng.below(std::size(kAtoms))];
  }
  return s;
}

/// Applies `count` random single-character mutations.
std::string mutate(std::string s, Rng& rng, int count) {
  for (int i = 0; i < count && !s.empty(); ++i) {
    const std::size_t pos = rng.below(s.size());
    switch (rng.below(3)) {
      case 0: s[pos] = static_cast<char>(rng.below(256)); break;
      case 1: s.erase(pos, 1); break;
      default: s.insert(pos, 1, static_cast<char>(rng.below(128)));
    }
  }
  return s;
}

class FuzzCase : public ::testing::TestWithParam<int> {
 protected:
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1};
};

TEST_P(FuzzCase, XmlParserNeverCrashes) {
  for (int i = 0; i < 300; ++i) {
    (void)xml::parse(random_bytes_string(rng, 200));
    (void)xml::parse(random_xmlish(rng, 60));
  }
}

TEST_P(FuzzCase, XmlParserOnMutatedValidDocuments) {
  const std::string valid =
      R"(<event a="1"><attr name="x" type="int" value="3"/><nested deep="y">text &amp; more</nested></event>)";
  for (int i = 0; i < 300; ++i) {
    const std::string doc = mutate(valid, rng, 1 + static_cast<int>(rng.below(6)));
    auto r = xml::parse(doc);
    if (r.is_ok()) {
      // Whatever parsed must re-serialise and re-parse to itself.
      auto again = xml::parse(xml::to_string(r.value()));
      ASSERT_TRUE(again.is_ok()) << doc;
      EXPECT_TRUE(again.value() == r.value());
    }
  }
}

TEST_P(FuzzCase, FilterParserNeverCrashes) {
  static const char* kAtoms[] = {"type", "=",  "!=",  "<",        "<=",     ">",
                                 "and",  "or", "5",   "5.5",      "\"s\"",  "'",
                                 "exists", "prefix", "contains", "celsius", "\"", " "};
  for (int i = 0; i < 400; ++i) {
    std::string s;
    const std::size_t n = rng.below(12);
    for (std::size_t k = 0; k < n; ++k) {
      s += kAtoms[rng.below(std::size(kAtoms))];
      s += ' ';
    }
    auto f = event::parse_filter(s);
    if (f.is_ok()) {
      // A parsed filter must be describable and re-parseable.
      auto back = event::parse_filter(f.value().describe());
      if (!f.value().empty()) {
        EXPECT_TRUE(back.is_ok()) << f.value().describe();
      }
    }
    (void)event::parse_filter(random_bytes_string(rng, 60));
  }
}

TEST_P(FuzzCase, EventParserOnMutatedInput) {
  event::Event e("user-location");
  e.set("user", "bob").set("lat", 56.34).set("ok", true).set("n", 7);
  const std::string valid = e.to_xml_string();
  for (int i = 0; i < 300; ++i) {
    (void)event::Event::parse(mutate(valid, rng, 1 + static_cast<int>(rng.below(8))));
  }
}

TEST_P(FuzzCase, BundleParserOnMutatedInput) {
  xml::Element config("config");
  config.set_attribute("filter", "a > 1");
  bundle::CodeBundle b("fuzzed", "pipe.filter", config);
  b.set_payload(to_bytes("payload-bytes"));
  b.require_capability("run.x");
  const std::string valid = b.to_xml_string();
  for (int i = 0; i < 300; ++i) {
    (void)bundle::CodeBundle::parse(mutate(valid, rng, 1 + static_cast<int>(rng.below(8))));
  }
}

TEST_P(FuzzCase, RuleParserOnMutatedInput) {
  match::Rule rule;
  rule.name = "r";
  rule.triggers = {{"a", event::parse_filter("type = \"x\" and v > 3").value(),
                    duration::minutes(1)}};
  rule.joins = {{match::Operand::ref("a", "v"), event::Op::kGe,
                 match::Operand::lit(event::AttrValue(2.5))}};
  rule.emit.type = "out";
  rule.emit.sets = {{"v", std::nullopt, "a", "v"}};
  const std::string valid = rule.to_xml_string();
  for (int i = 0; i < 300; ++i) {
    (void)match::Rule::parse(mutate(valid, rng, 1 + static_cast<int>(rng.below(8))));
  }
}

TEST_P(FuzzCase, BufReaderFailsSoftOnRandomBytes) {
  for (int i = 0; i < 300; ++i) {
    Bytes data(rng.below(64));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    BufReader r(data);
    // Random typed reads must never touch out-of-bounds memory.
    for (int k = 0; k < 8; ++k) {
      switch (rng.below(6)) {
        case 0: (void)r.u8(); break;
        case 1: (void)r.u32(); break;
        case 2: (void)r.u64(); break;
        case 3: (void)r.str(); break;
        case 4: (void)r.bytes(); break;
        default: (void)r.uid(); break;
      }
    }
  }
}

TEST_P(FuzzCase, ErasureDecodeOnCorruptedFragments) {
  storage::ErasureCoder coder(4, 2);
  Bytes object(200);
  for (auto& b : object) b = static_cast<std::uint8_t>(rng.below(256));
  for (int i = 0; i < 100; ++i) {
    auto frags = coder.encode(object);
    // Corrupt: drop, truncate, scramble indices, mangle lengths.
    if (rng.chance(0.5) && !frags.empty()) frags.erase(frags.begin() + static_cast<std::ptrdiff_t>(rng.below(frags.size())));
    if (rng.chance(0.5) && !frags.empty()) {
      auto& f = frags[rng.below(frags.size())];
      f.data.resize(rng.below(f.data.size() + 1));
    }
    if (rng.chance(0.5) && !frags.empty()) {
      frags[rng.below(frags.size())].index = static_cast<int>(rng.below(20)) - 5;
    }
    (void)coder.decode(frags);  // must not crash; may fail or mis-decode
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCase, ::testing::Range(0, 8));

// --- Uid160 algebra properties ---

TEST(Uid160Property, CwDistancesAreComplementary) {
  // cw(a->b) + cw(b->a) == 0 (mod 2^160) for distinct a, b.
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    const Uid160 a = rng.uid(), b = rng.uid();
    if (a == b) continue;
    const Uid160 ab = a.ring_distance_cw(b);
    const Uid160 ba = b.ring_distance_cw(a);
    // Add the byte arrays with carry; expect exact wrap to zero.
    std::array<std::uint8_t, 20> sum{};
    int carry = 0;
    for (int k = 19; k >= 0; --k) {
      const int s = ab.bytes()[static_cast<std::size_t>(k)] + ba.bytes()[static_cast<std::size_t>(k)] + carry;
      sum[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(s & 0xFF);
      carry = s >> 8;
    }
    EXPECT_EQ(carry, 1);  // wrapped exactly once
    EXPECT_TRUE(Uid160(sum).is_zero());
  }
}

TEST(Uid160Property, RingDistanceSymmetricAndBounded) {
  Rng rng(78);
  Uid160 half;
  half = half.with_digit(0, 8);  // 2^159
  for (int i = 0; i < 300; ++i) {
    const Uid160 a = rng.uid(), b = rng.uid();
    EXPECT_EQ(a.ring_distance(b), b.ring_distance(a));
    EXPECT_LE(a.ring_distance(b), half);  // min(cw, ccw) <= half the ring
  }
}

}  // namespace
}  // namespace aa
