// Unit + property tests for the XML document model, parser and type
// projection.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "xml/projection.hpp"
#include "xml/xml.hpp"

namespace aa::xml {
namespace {

// --- Parse basics ---

TEST(XmlParse, SimpleElement) {
  auto r = parse("<a/>");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().name(), "a");
}

TEST(XmlParse, AttributesAndText) {
  auto r = parse(R"(<user name="bob" age="30">hello</user>)");
  ASSERT_TRUE(r.is_ok());
  const Element& e = r.value();
  EXPECT_EQ(e.attribute("name").value(), "bob");
  EXPECT_EQ(e.attribute("age").value(), "30");
  EXPECT_EQ(e.text(), "hello");
  EXPECT_FALSE(e.attribute("missing").has_value());
}

TEST(XmlParse, NestedChildren) {
  auto r = parse("<a><b><c>deep</c></b><b>two</b></a>");
  ASSERT_TRUE(r.is_ok());
  const Element& a = r.value();
  EXPECT_EQ(a.children_named("b").size(), 2u);
  EXPECT_EQ(a.child("b")->child("c")->text(), "deep");
}

TEST(XmlParse, DeclarationAndComments) {
  auto r = parse("<?xml version=\"1.0\"?><!-- c --><root><!-- inner -->ok</root>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().text(), "ok");
}

TEST(XmlParse, Entities) {
  auto r = parse("<e a=\"&lt;&amp;&gt;\">&quot;x&apos; &#65;</e>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().attribute("a").value(), "<&>");
  EXPECT_EQ(r.value().text(), "\"x' A");
}

TEST(XmlParse, SingleQuotedAttributes) {
  auto r = parse("<e a='v'/>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().attribute("a").value(), "v");
}

// --- Parse errors ---

TEST(XmlParse, RejectsMismatchedTags) {
  EXPECT_FALSE(parse("<a></b>").is_ok());
}

TEST(XmlParse, RejectsUnterminated) {
  EXPECT_FALSE(parse("<a><b></b>").is_ok());
  EXPECT_FALSE(parse("<a").is_ok());
}

TEST(XmlParse, RejectsTrailingContent) {
  EXPECT_FALSE(parse("<a/><b/>").is_ok());
}

TEST(XmlParse, RejectsBadAttributes) {
  EXPECT_FALSE(parse("<a x=y/>").is_ok());
  EXPECT_FALSE(parse("<a x=\"unterminated/>").is_ok());
}

TEST(XmlParse, RejectsUnknownEntity) {
  EXPECT_FALSE(parse("<a>&bogus;</a>").is_ok());
}

TEST(XmlParse, RejectsBadNumericReferences) {
  // Empty, non-digit, and beyond-ASCII references fail; a long digit
  // run fails on its bound instead of overflowing the accumulator.
  for (const char* doc : {"<a v=\"&#99999999999999;\"/>", "<a v=\"&#xFFFFFFFFFFFFFFFFFF;\"/>",
                          "<a v=\"&#zz;\"/>", "<a v=\"&#;\"/>", "<a v=\"&#x;\"/>",
                          "<a v=\"&#xg1;\"/>", "<a v=\"&#1a;\"/>", "<a v=\"&#-1;\"/>",
                          "<a v=\"&#128;\"/>", "<a v=\"&#x80;\"/>", "<a>&#200;</a>"}) {
    auto r = parse(doc);
    ASSERT_FALSE(r.is_ok()) << doc;
    EXPECT_EQ(r.status().code(), Code::kInvalidArgument) << doc;
  }
  auto ok = parse("<a v=\"&#65;&#x42;&#X63;&#127;&#x7f;&#0065;\"/>");
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value().attribute("v").value(), "ABc\x7f\x7f" "A");
}

// --- Writer / round-trip ---

TEST(XmlWrite, EscapesSpecials) {
  Element e("t");
  e.set_attribute("a", "<\"&'>");
  e.add_text("x < y & z");
  const std::string s = to_string(e);
  auto back = parse(s);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().attribute("a").value(), "<\"&'>");
  EXPECT_EQ(back.value().text(), "x < y & z");
}

TEST(XmlWrite, EscapedSizeEqualsEscape) {
  static const char* kPieces[] = {"<", ">", "&", "\"", "'", "a", "bc", " ", ";", "&amp;", "\n"};
  EXPECT_EQ(escaped_size(""), 0u);
  EXPECT_EQ(escaped_size("<>&\"'"), escape("<>&\"'").size());
  Rng rng(4417);
  for (int trial = 0; trial < 5000; ++trial) {
    std::string text;
    for (std::uint64_t n = rng.below(12); n > 0; --n) {
      text += kPieces[rng.below(std::size(kPieces))];
    }
    ASSERT_EQ(escaped_size(text), escape(text).size()) << text;
  }
}

Element random_element(Rng& rng, int depth) {
  Element e("el" + std::to_string(rng.below(5)));
  const int attrs = static_cast<int>(rng.below(3));
  for (int i = 0; i < attrs; ++i) {
    e.set_attribute("a" + std::to_string(i), "v<&>" + std::to_string(rng.below(100)));
  }
  if (depth > 0) {
    const int kids = static_cast<int>(rng.below(4));
    for (int i = 0; i < kids; ++i) {
      if (rng.chance(0.3)) {
        e.add_text("text " + std::to_string(rng.below(100)));
      } else {
        e.add_child(random_element(rng, depth - 1));
      }
    }
  } else if (rng.chance(0.5)) {
    e.add_text("leaf");
  }
  return e;
}

class XmlRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(XmlRoundTrip, ParsePrintIdentity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Element original = random_element(rng, 4);
  for (bool pretty : {false, true}) {
    WriteOptions opt;
    opt.pretty = pretty;
    auto r = parse(to_string(original, opt));
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_TRUE(r.value() == original) << "pretty=" << pretty;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDocuments, XmlRoundTrip, ::testing::Range(0, 25));

// --- Type projection ---

TEST(Projection, PrimitiveRecordFromAttributesAndElements) {
  auto doc = parse(R"(<loc user="bob"><lat>56.34</lat><lon>-2.79</lon><floor>2</floor></loc>)");
  ASSERT_TRUE(doc.is_ok());
  const ProjType t = ProjType::record({
      ProjType::field("user", ProjType::string()),
      ProjType::field("lat", ProjType::real()),
      ProjType::field("lon", ProjType::real()),
      ProjType::field("floor", ProjType::integer()),
  });
  auto v = project(doc.value(), t);
  ASSERT_TRUE(v.is_ok()) << v.status().to_string();
  EXPECT_EQ(v.value().str("user"), "bob");
  EXPECT_DOUBLE_EQ(v.value().real("lat"), 56.34);
  EXPECT_EQ(v.value().integer("floor"), 2);
}

TEST(Projection, IgnoresUnmentionedContent) {
  // The "partial specification" property: unknown islands are skipped.
  auto doc = parse(
      "<ev><known>1</known><junk a=\"b\"><deep/></junk><extra>stuff</extra></ev>");
  const ProjType t = ProjType::record({ProjType::field("known", ProjType::integer())});
  auto v = project(doc.value(), t);
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value().integer("known"), 1);
}

TEST(Projection, RequiredFieldMissingFails) {
  auto doc = parse("<ev><a>1</a></ev>");
  const ProjType t = ProjType::record({ProjType::field("b", ProjType::integer())});
  auto v = project(doc.value(), t);
  EXPECT_FALSE(v.is_ok());
  EXPECT_EQ(v.status().code(), Code::kNotFound);
}

TEST(Projection, OptionalFieldMissingOk) {
  auto doc = parse("<ev><a>1</a></ev>");
  const ProjType t = ProjType::record({
      ProjType::field("a", ProjType::integer()),
      ProjType::field("b", ProjType::integer(), /*required=*/false),
  });
  auto v = project(doc.value(), t);
  ASSERT_TRUE(v.is_ok());
  EXPECT_TRUE(v.value().has_field("a"));
  EXPECT_FALSE(v.value().has_field("b"));
}

TEST(Projection, TypeMismatchFails) {
  auto doc = parse("<ev><n>abc</n></ev>");
  const ProjType t = ProjType::record({ProjType::field("n", ProjType::integer())});
  auto v = project(doc.value(), t);
  EXPECT_FALSE(v.is_ok());
  EXPECT_EQ(v.status().code(), Code::kInvalidArgument);
}

TEST(Projection, NestedRecords) {
  auto doc = parse("<ev><pos><lat>1.0</lat><lon>2.0</lon></pos><who>anna</who></ev>");
  const ProjType t = ProjType::record({
      ProjType::field("pos", ProjType::record({
                                 ProjType::field("lat", ProjType::real()),
                                 ProjType::field("lon", ProjType::real()),
                             })),
      ProjType::field("who", ProjType::string()),
  });
  auto v = project(doc.value(), t);
  ASSERT_TRUE(v.is_ok());
  EXPECT_DOUBLE_EQ(v.value().field("pos").real("lat"), 1.0);
}

TEST(Projection, ListCollectsNamedChildren) {
  auto doc = parse(
      "<menu><item><price>2.5</price></item><item><price>3.0</price></item><other/></menu>");
  const ProjType t = ProjType::record({ProjType::field(
      "menu_items",
      ProjType::list("item", ProjType::record({ProjType::field("price", ProjType::real())})),
      /*required=*/false)});
  // Lists are matched against the element itself, so project the list
  // type directly onto the parsed root.
  const ProjType items =
      ProjType::list("item", ProjType::record({ProjType::field("price", ProjType::real())}), 2);
  auto v = project(doc.value(), items);
  ASSERT_TRUE(v.is_ok());
  ASSERT_EQ(v.value().list().size(), 2u);
  EXPECT_DOUBLE_EQ(v.value().list()[1].real("price"), 3.0);
}

TEST(Projection, ListMinItemsEnforced) {
  auto doc = parse("<menu><item/></menu>");
  const ProjType t = ProjType::list("item", ProjType::string(), 2);
  EXPECT_FALSE(project(doc.value(), t).is_ok());
}

TEST(Projection, BooleanForms) {
  auto doc = parse("<e><a>true</a><b>0</b><c>yes</c></e>");
  const ProjType t = ProjType::record({
      ProjType::field("a", ProjType::boolean()),
      ProjType::field("b", ProjType::boolean()),
      ProjType::field("c", ProjType::boolean()),
  });
  auto v = project(doc.value(), t);
  ASSERT_TRUE(v.is_ok());
  EXPECT_TRUE(v.value().boolean("a"));
  EXPECT_FALSE(v.value().boolean("b"));
  EXPECT_TRUE(v.value().boolean("c"));
}

}  // namespace
}  // namespace aa::xml
