// Tests for the matching engine: knowledge base indexing, rule XML
// round-trips, temporal windows, joins, spatial predicates, cooldowns,
// the full ice-cream scenario from §1.1, equivalence with the naive
// baseline, and discovery matchlets.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/naive_engine.hpp"
#include "event/filter_parser.hpp"
#include "match/discovery.hpp"
#include "match/engine.hpp"
#include "match/matchlet.hpp"
#include "overlay/overlay_network.hpp"
#include "pipeline/components.hpp"

namespace aa::match {
namespace {

using event::Event;
using event::Filter;
using event::Op;

Filter f(const std::string& text) {
  auto r = event::parse_filter(text);
  EXPECT_TRUE(r.is_ok()) << text << ": " << r.status().to_string();
  return r.value_or(Filter());
}

// --- KnowledgeBase ---

TEST(Knowledge, AddQueryRemove) {
  KnowledgeBase kb;
  Fact pref;
  pref.set("kind", "preference").set("user", "bob").set("likes", "icecream");
  const FactId id = kb.add(pref);
  EXPECT_EQ(kb.query(f("kind = preference and user = bob")).size(), 1u);
  EXPECT_TRUE(kb.remove(id));
  EXPECT_TRUE(kb.query(f("kind = preference")).empty());
  EXPECT_FALSE(kb.remove(id));
}

TEST(Knowledge, UpdateReindexes) {
  KnowledgeBase kb;
  Fact fact;
  fact.set("kind", "shop").set("name", "janettas");
  const FactId id = kb.add(fact);
  Fact updated;
  updated.set("kind", "restaurant").set("name", "janettas");
  ASSERT_TRUE(kb.update(id, updated));
  EXPECT_TRUE(kb.query(f("kind = shop")).empty());
  EXPECT_EQ(kb.query(f("kind = restaurant")).size(), 1u);
}

TEST(Knowledge, IndexedProbeExaminesFewerFacts) {
  KnowledgeBase kb;
  for (int i = 0; i < 1000; ++i) {
    Fact fact;
    fact.set("kind", i % 2 == 0 ? "a" : "b").set("user", "u" + std::to_string(i));
    kb.add(fact);
  }
  const auto before = kb.stats().facts_examined;
  EXPECT_EQ(kb.query(f("user = u77")).size(), 1u);
  EXPECT_EQ(kb.stats().facts_examined - before, 1u);  // index hit exactly one
  EXPECT_GE(kb.stats().indexed_queries, 1u);
}

TEST(Knowledge, NonStringFilterFallsBackToScan) {
  KnowledgeBase kb;
  Fact fact;
  fact.set("level", 5);
  kb.add(fact);
  EXPECT_EQ(kb.query(Filter().where("level", Op::kGt, 3)).size(), 1u);
  EXPECT_GE(kb.stats().scan_queries, 1u);
}

// --- Rule XML round-trip ---

Rule ice_cream_rule() {
  Rule rule;
  rule.name = "icecream-meetup";
  rule.cooldown = duration::minutes(10);
  rule.triggers = {
      {"loc", f("type = user-location and user = bob"), duration::minutes(5)},
      {"temp", f("type = temperature"), duration::minutes(15)},
  };
  rule.facts = {
      {"pref", f("kind = preference and likes = icecream")},
      {"shop", f("kind = shop and sells = icecream")},
  };
  rule.joins = {
      {Operand::ref("loc", "user"), Op::kEq, Operand::ref("pref", "user")},
      {Operand::ref("temp", "celsius"), Op::kGe, Operand::ref("pref", "min_celsius")},
  };
  rule.spatials = {{"loc", "shop", -1.0, 600.0}};  // within 10 min walk
  rule.emit.type = "suggestion";
  rule.emit.sets = {
      {"user", std::nullopt, "loc", "user"},
      {"place", std::nullopt, "shop", "name"},
      {"what", event::AttrValue("icecream"), "", ""},
  };
  return rule;
}

TEST(RuleXml, RoundTrip) {
  const Rule rule = ice_cream_rule();
  auto back = Rule::parse(rule.to_xml_string());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string() << "\n" << rule.to_xml_string();
  const Rule& r = back.value();
  EXPECT_EQ(r.name, rule.name);
  EXPECT_EQ(r.cooldown, rule.cooldown);
  ASSERT_EQ(r.triggers.size(), 2u);
  EXPECT_EQ(r.triggers[0].alias, "loc");
  EXPECT_EQ(r.triggers[0].window, duration::minutes(5));
  EXPECT_EQ(r.triggers[0].filter, rule.triggers[0].filter);
  ASSERT_EQ(r.facts.size(), 2u);
  ASSERT_EQ(r.joins.size(), 2u);
  EXPECT_EQ(r.joins[1].op, Op::kGe);
  ASSERT_EQ(r.spatials.size(), 1u);
  EXPECT_DOUBLE_EQ(r.spatials[0].max_walk_seconds, 600.0);
  ASSERT_EQ(r.emit.sets.size(), 3u);
  EXPECT_EQ(r.emit.sets[2].constant->str(), "icecream");
}

TEST(RuleXml, RejectsMalformed) {
  EXPECT_FALSE(Rule::parse("<rule name=\"x\"/>").is_ok());  // no trigger/emit
  EXPECT_FALSE(Rule::parse("<notarule/>").is_ok());
  EXPECT_FALSE(
      Rule::parse("<rule name=\"x\"><trigger alias=\"a\" filter=\"t = 1\"/></rule>").is_ok());
}

TEST(RuleXml, RejectsRepeatedAlias) {
  // Conditions and <set>s name bound events by alias, so each trigger
  // and fact needs its own.
  const std::string emit = "<emit type=\"e\"/>";
  EXPECT_TRUE(Rule::parse("<rule name=\"x\"><trigger alias=\"a\" filter=\"t = 1\"/>"
                          "<trigger alias=\"b\" filter=\"t = 2\"/>" + emit + "</rule>")
                  .is_ok());
  const auto twice = Rule::parse("<rule name=\"x\"><trigger alias=\"a\" filter=\"t = 1\"/>"
                                 "<trigger alias=\"a\" filter=\"t = 2\"/>" + emit + "</rule>");
  ASSERT_FALSE(twice.is_ok());
  EXPECT_EQ(twice.status().code(), Code::kInvalidArgument);
  const auto fact = Rule::parse("<rule name=\"x\"><trigger alias=\"a\" filter=\"t = 1\"/>"
                                "<fact alias=\"a\" filter=\"kind = k\"/>" + emit + "</rule>");
  ASSERT_FALSE(fact.is_ok());
  EXPECT_EQ(fact.status().code(), Code::kInvalidArgument);
}

// --- Engine semantics ---

struct EngineFixture {
  KnowledgeBase kb;
  MatchEngine engine{kb};
  std::vector<Event> out;
  MatchEngine::Sink sink = [this](const Event& e) { out.push_back(e); };
};

Event loc_event(const std::string& user, double lat, double lon, SimTime t) {
  Event e("user-location");
  e.set("user", user).set("lat", lat).set("lon", lon).set_time(t);
  return e;
}

Event temp_event(double celsius, SimTime t) {
  Event e("temperature");
  e.set("celsius", celsius).set_time(t);
  return e;
}

TEST(Engine, SingleTriggerWithFactJoin) {
  EngineFixture fx;
  Fact pref;
  pref.set("kind", "preference").set("user", "bob").set("min_celsius", 18.0);
  fx.kb.add(pref);

  Rule rule;
  rule.name = "hot-for-bob";
  rule.triggers = {{"temp", f("type = temperature"), duration::minutes(5)}};
  rule.facts = {{"pref", f("kind = preference and user = bob")}};
  rule.joins = {{Operand::ref("temp", "celsius"), Op::kGe, Operand::ref("pref", "min_celsius")}};
  rule.emit.type = "hot";
  rule.emit.sets = {{"user", std::nullopt, "pref", "user"}};
  fx.engine.add_rule(rule);

  fx.engine.on_event(temp_event(20.0, 1000), 1000, fx.sink);
  fx.engine.on_event(temp_event(15.0, 2000), 2000, fx.sink);
  ASSERT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(fx.out[0].type(), "hot");
  EXPECT_EQ(fx.out[0].get_string("user").value(), "bob");
  EXPECT_EQ(fx.out[0].get_string("rule").value(), "hot-for-bob");
}

TEST(Engine, TwoTriggerTemporalJoinWithinWindow) {
  EngineFixture fx;
  Rule rule;
  rule.name = "both";
  rule.triggers = {
      {"a", f("type = alpha"), duration::seconds(10)},
      {"b", f("type = beta"), duration::seconds(10)},
  };
  rule.emit.type = "correlated";
  fx.engine.add_rule(rule);

  Event alpha("alpha");
  alpha.set_time(duration::seconds(1));
  fx.engine.on_event(alpha, duration::seconds(1), fx.sink);
  EXPECT_TRUE(fx.out.empty());  // beta not seen yet

  Event beta("beta");
  beta.set_time(duration::seconds(5));
  fx.engine.on_event(beta, duration::seconds(5), fx.sink);
  EXPECT_EQ(fx.out.size(), 1u);  // alpha still in window
}

TEST(Engine, WindowExpiryPreventsStaleJoin) {
  EngineFixture fx;
  Rule rule;
  rule.name = "both";
  rule.triggers = {
      {"a", f("type = alpha"), duration::seconds(10)},
      {"b", f("type = beta"), duration::seconds(10)},
  };
  rule.emit.type = "correlated";
  fx.engine.add_rule(rule);

  Event alpha("alpha");
  alpha.set_time(duration::seconds(1));
  fx.engine.on_event(alpha, duration::seconds(1), fx.sink);
  Event beta("beta");
  beta.set_time(duration::seconds(30));
  fx.engine.on_event(beta, duration::seconds(30), fx.sink);  // alpha expired
  EXPECT_TRUE(fx.out.empty());
}

TEST(Engine, CooldownSuppressesRepeats) {
  EngineFixture fx;
  Rule rule;
  rule.name = "r";
  rule.cooldown = duration::minutes(10);
  rule.triggers = {{"t", f("type = temperature"), duration::minutes(1)}};
  rule.emit.type = "alert";
  fx.engine.add_rule(rule);

  for (int i = 0; i < 5; ++i) {
    fx.engine.on_event(temp_event(20.0, duration::seconds(i)), duration::seconds(i), fx.sink);
  }
  EXPECT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(fx.engine.stats().cooldown_suppressed, 4u);

  // After the cooldown elapses it fires again.
  fx.engine.on_event(temp_event(20.0, duration::minutes(20)), duration::minutes(20), fx.sink);
  EXPECT_EQ(fx.out.size(), 2u);
}

TEST(Engine, CooldownSkipsJoinWork) {
  // The key reads only `loc`, so it is decided as soon as the report is
  // bound: a repeat from a user still cooling never probes for its
  // preference, and a key that fires stops the enumeration beneath it.
  EngineFixture fx;
  Fact pref;
  pref.set("kind", "preference").set("user", "bob").set("min_celsius", 15.0);
  fx.kb.add(pref);

  Rule rule;
  rule.name = "warm";
  rule.cooldown = duration::minutes(10);
  rule.triggers = {
      {"loc", f("type = user-location"), duration::minutes(5)},
      {"temp", f("type = temperature"), duration::minutes(5)},
  };
  rule.facts = {{"pref", f("kind = preference")}};
  rule.joins = {{Operand::ref("loc", "user"), Op::kEq, Operand::ref("pref", "user")},
                {Operand::ref("temp", "celsius"), Op::kGe, Operand::ref("pref", "min_celsius")}};
  rule.emit.type = "suggestion";
  rule.emit.sets = {{"user", std::nullopt, "loc", "user"}};
  fx.engine.add_rule(rule);

  for (int i = 0; i < 3; ++i) {
    fx.engine.on_event(temp_event(20.0, duration::seconds(i)), duration::seconds(i), fx.sink);
  }
  const SimTime t0 = duration::minutes(1);
  fx.engine.on_event(loc_event("bob", 56.0, -2.0, t0), t0, fx.sink);
  ASSERT_EQ(fx.out.size(), 1u);
  // The first reading and the preference completed the binding; the
  // other two readings were never tried.
  EXPECT_EQ(fx.engine.stats().candidate_bindings, 2u);
  const std::uint64_t queries = fx.kb.stats().indexed_queries;

  const SimTime t1 = duration::minutes(2);
  fx.engine.on_event(loc_event("bob", 56.0, -2.0, t1), t1, fx.sink);
  EXPECT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(fx.kb.stats().indexed_queries, queries);
  EXPECT_EQ(fx.engine.stats().cooldown_suppressed, 1u);
  EXPECT_EQ(fx.engine.stats().candidate_bindings, 2u);

  // Another user's key is idle, so that report is joined as before.
  fx.engine.on_event(loc_event("anna", 56.0, -2.0, t1), t1, fx.sink);
  EXPECT_EQ(fx.out.size(), 1u);  // anna has no preference
  EXPECT_GT(fx.kb.stats().indexed_queries, queries);
}

TEST(Engine, SpatialPredicateFiltersFarApart) {
  EngineFixture fx;
  Fact shop;
  shop.set("kind", "shop").set("name", "janettas").set("lat", 56.3403).set("lon", -2.7957);
  fx.kb.add(shop);

  Rule rule;
  rule.name = "nearby";
  rule.triggers = {{"loc", f("type = user-location"), duration::minutes(5)}};
  rule.facts = {{"shop", f("kind = shop")}};
  rule.spatials = {{"loc", "shop", 500.0, -1.0}};
  rule.emit.type = "near-shop";
  rule.emit.sets = {{"user", std::nullopt, "loc", "user"}};
  fx.engine.add_rule(rule);

  fx.engine.on_event(loc_event("bob", 56.3417, -2.7972, 1000), 1000, fx.sink);  // ~200 m
  EXPECT_EQ(fx.out.size(), 1u);
  fx.engine.on_event(loc_event("anna", 56.5, -2.5, 2000), 2000, fx.sink);  // ~25 km
  EXPECT_EQ(fx.out.size(), 1u);
}

TEST(Engine, RemoveRuleStopsMatching) {
  EngineFixture fx;
  Rule rule;
  rule.name = "r";
  rule.triggers = {{"t", f("type = temperature"), duration::minutes(1)}};
  rule.emit.type = "alert";
  fx.engine.add_rule(rule);
  EXPECT_TRUE(fx.engine.remove_rule("r"));
  EXPECT_FALSE(fx.engine.remove_rule("r"));
  fx.engine.on_event(temp_event(20.0, 0), 0, fx.sink);
  EXPECT_TRUE(fx.out.empty());
}

TEST(Engine, HandlesTypeReflectsTriggers) {
  EngineFixture fx;
  Rule rule;
  rule.name = "r";
  rule.triggers = {{"t", f("type = temperature and celsius > 5"), duration::minutes(1)}};
  rule.emit.type = "alert";
  fx.engine.add_rule(rule);
  EXPECT_TRUE(fx.engine.handles_type("temperature"));
  EXPECT_FALSE(fx.engine.handles_type("humidity"));
}

// --- The §1.1 ice-cream scenario, end to end ---

TEST(Engine, IceCreamScenario) {
  EngineFixture fx;
  // The paper's items of knowledge:
  Fact pref;  // "Bob likes ice cream, but only when the weather is hot"
  pref.set("kind", "preference").set("user", "bob").set("likes", "icecream")
      .set("min_celsius", 18.0);  // "Bob is Scottish ... regards 20º as hot"
  fx.kb.add(pref);
  Fact shop;  // "Janetta's in Market Street sells ice cream, open 9-17"
  shop.set("kind", "shop").set("name", "janettas").set("sells", "icecream")
      .set("lat", 56.3403).set("lon", -2.7957).set("opens", 9.0).set("closes", 17.0);
  fx.kb.add(shop);

  fx.engine.add_rule(ice_cream_rule());

  const SimTime t0 = duration::hours(16) + duration::minutes(45);
  // "it is 20ºC ... at 16.30"
  fx.engine.on_event(temp_event(20.0, t0 - duration::minutes(15) + duration::seconds(1)),
                     t0 - duration::minutes(15) + duration::seconds(1), fx.sink);
  EXPECT_TRUE(fx.out.empty());
  // "Bob is in North Street at 16.45" (~200 m from Janetta's)
  fx.engine.on_event(loc_event("bob", 56.3417, -2.7972, t0), t0, fx.sink);

  ASSERT_EQ(fx.out.size(), 1u);
  const Event& suggestion = fx.out[0];
  EXPECT_EQ(suggestion.type(), "suggestion");
  EXPECT_EQ(suggestion.get_string("user").value(), "bob");
  EXPECT_EQ(suggestion.get_string("place").value(), "janettas");
  EXPECT_EQ(suggestion.get_string("what").value(), "icecream");
}

TEST(Engine, IceCreamScenarioColdWeatherNoMatch) {
  EngineFixture fx;
  Fact pref;
  pref.set("kind", "preference").set("user", "bob").set("likes", "icecream")
      .set("min_celsius", 18.0);
  fx.kb.add(pref);
  Fact shop;
  shop.set("kind", "shop").set("name", "janettas").set("sells", "icecream")
      .set("lat", 56.3403).set("lon", -2.7957);
  fx.kb.add(shop);
  fx.engine.add_rule(ice_cream_rule());

  fx.engine.on_event(temp_event(10.0, 1000), 1000, fx.sink);  // too cold for Bob
  fx.engine.on_event(loc_event("bob", 56.3417, -2.7972, 2000), 2000, fx.sink);
  EXPECT_TRUE(fx.out.empty());
}

// --- Naive equivalence ---

TEST(NaiveEquivalence, SameMatchesOnInWindowWorkload) {
  KnowledgeBase kb;
  Fact pref;
  pref.set("kind", "preference").set("user", "bob").set("min_celsius", 15.0);
  kb.add(pref);

  Rule rule;
  rule.name = "r";
  rule.triggers = {
      {"loc", f("type = user-location"), duration::minutes(10)},
      {"temp", f("type = temperature"), duration::minutes(10)},
  };
  rule.facts = {{"pref", f("kind = preference")}};
  rule.joins = {{Operand::ref("loc", "user"), Op::kEq, Operand::ref("pref", "user")},
                {Operand::ref("temp", "celsius"), Op::kGe,
                 Operand::ref("pref", "min_celsius")}};
  rule.emit.type = "match";
  rule.emit.sets = {{"user", std::nullopt, "loc", "user"}};

  MatchEngine incremental(kb);
  incremental.add_rule(rule);
  baselines::NaiveEngine naive(kb);
  naive.add_rule(rule);

  int inc_count = 0, naive_count = 0;
  Rng rng(3);
  SimTime t = 0;
  for (int i = 0; i < 120; ++i) {
    t += duration::seconds(static_cast<std::int64_t>(rng.below(30)));
    Event e = rng.chance(0.5)
                  ? loc_event(rng.chance(0.7) ? "bob" : "anna", 56.0, -2.0, t)
                  : temp_event(rng.uniform(5.0, 25.0), t);
    incremental.on_event(e, t, [&](const Event&) { ++inc_count; });
    naive.on_event(e, t, [&](const Event&) { ++naive_count; });
  }
  EXPECT_GT(inc_count, 0);
  EXPECT_EQ(inc_count, naive_count);
  // And the incremental engine explored far fewer candidates.
  EXPECT_LT(incremental.stats().candidate_bindings, naive.candidate_bindings());
}

TEST(NaiveEquivalence, SameSuggestionsUnderCooldown) {
  // The oracle checks the cooldown on every complete binding, with a
  // key rendered from the emitted event; the engine decides it as soon
  // as the emit spec's aliases are bound, rendering the key itself.
  // Three emit shapes: a key fixed by the trigger, one fixed only by the
  // fact join, and <set>s of type, rule and time, which the emitted
  // event overwrites (type by the set, rule and time by its stamps).
  constexpr int kUsers = 12;
  KnowledgeBase kb;
  Rng fact_rng(5);
  for (int u = 0; u < kUsers; ++u) {
    Fact pref;
    pref.set("kind", "preference").set("user", "u" + std::to_string(u))
        .set("min_celsius", fact_rng.uniform(10.0, 20.0));
    kb.add(pref);
  }
  const std::vector<std::vector<Assignment>> shapes = {
      {{"user", std::nullopt, "loc", "user"}},
      {{"user", std::nullopt, "pref", "user"}, {"min", std::nullopt, "pref", "min_celsius"}},
      {{"rule", std::nullopt, "temp", "celsius"},
       {"type", std::nullopt, "loc", "user"},
       {"time", std::nullopt, "temp", "celsius"}},
  };
  for (const auto& sets : shapes) {
    Rule rule;
    rule.name = "r";
    rule.cooldown = duration::minutes(10);
    rule.triggers = {
        {"loc", f("type = user-location"), duration::minutes(2)},
        {"temp", f("type = temperature"), duration::minutes(5)},
    };
    rule.facts = {{"pref", f("kind = preference")}};
    rule.joins = {{Operand::ref("loc", "user"), Op::kEq, Operand::ref("pref", "user")},
                  {Operand::ref("temp", "celsius"), Op::kGe,
                   Operand::ref("pref", "min_celsius")}};
    rule.emit.type = "suggestion";
    rule.emit.sets = sets;

    MatchEngine engine(kb);
    engine.add_rule(rule);
    baselines::NaiveEngine naive(kb);
    naive.add_rule(rule);
    std::vector<std::string> got, want;
    Rng rng(9);
    SimTime t = 0;
    for (int i = 0; i < 600; ++i) {
      t += duration::seconds(static_cast<std::int64_t>(rng.below(20)));
      const Event e =
          rng.chance(0.7)
              ? loc_event("u" + std::to_string(rng.below(kUsers)), 56.0, -2.0, t)
              : temp_event(rng.uniform(5.0, 25.0), t);
      engine.on_event(e, t, [&](const Event& out) { got.push_back(out.describe()); });
      naive.on_event(e, t, [&](const Event& out) { want.push_back(out.describe()); });
    }
    EXPECT_GT(want.size(), 50u) << rule.to_xml_string();
    EXPECT_EQ(got, want) << rule.to_xml_string();
    EXPECT_GT(engine.stats().cooldown_suppressed, 0u);
  }
}

TEST(Engine, JoinsOnAttributeInternedAfterAddRule) {
  // Compiling interns nothing: a joined (and emitted) name no event has
  // carried yet is resolved once something interns it, and the rule
  // joins from then on.
  const std::string attr = "badge_first_seen_after_add_rule";
  const std::string emitted = "badge_emitted_after_add_rule";
  ASSERT_EQ(event::lookup_atom(attr), event::kNoAtom);
  ASSERT_EQ(event::lookup_atom(emitted), event::kNoAtom);
  EngineFixture fx;
  Rule rule;
  rule.name = "late";
  rule.cooldown = duration::minutes(1);
  rule.triggers = {
      {"a", f("type = alpha"), duration::minutes(5)},
      {"b", f("type = beta"), duration::minutes(5)},
  };
  rule.joins = {{Operand::ref("a", attr), Op::kEq, Operand::ref("b", attr)}};
  rule.emit.type = "pair";
  rule.emit.sets = {{emitted, std::nullopt, "b", attr}};
  fx.engine.add_rule(rule);
  EXPECT_EQ(event::lookup_atom(attr), event::kNoAtom);
  EXPECT_EQ(event::lookup_atom(emitted), event::kNoAtom);

  // Events lacking the attribute: the join is tested and fails, and
  // testing it interns nothing either.
  fx.engine.on_event(Event("beta").set_time(500), 500, fx.sink);
  fx.engine.on_event(Event("alpha").set_time(1000), 1000, fx.sink);
  EXPECT_EQ(fx.engine.stats().candidate_bindings, 1u);
  EXPECT_EQ(event::lookup_atom(attr), event::kNoAtom);
  Event alpha("alpha");
  alpha.set(attr, "b7").set_time(2000);
  fx.engine.on_event(alpha, 2000, fx.sink);
  Event beta("beta");
  beta.set(attr, "b7").set_time(3000);
  fx.engine.on_event(beta, 3000, fx.sink);
  ASSERT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(fx.out[0].get_string(emitted).value(), "b7");
  // The emitted name is interned now, and the key rendered before that
  // is the one the repeat finds cooling.
  beta.set_time(4000);
  fx.engine.on_event(beta, 4000, fx.sink);
  EXPECT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(fx.engine.stats().cooldown_suppressed, 1u);
}

TEST(Engine, CooldownKeysAreSweptOnceIdle) {
  // A new user a minute, each repeated four minutes later, inside its
  // five-minute cooldown: the table keeps the keys still cooling, not
  // all 10^4 that fired, and no sweep drops a key a repeat would find
  // cooling.
  constexpr int kUsers = 10000;
  EngineFixture fx;
  Rule rule;
  rule.name = "per-user";
  rule.cooldown = duration::minutes(5);
  rule.triggers = {{"loc", f("type = user-location"), duration::minutes(1)}};
  rule.emit.type = "seen";
  rule.emit.sets = {{"user", std::nullopt, "loc", "user"}};
  fx.engine.add_rule(rule);
  std::uint64_t most_keys = 0;
  for (int i = 0; i < kUsers + 4; ++i) {
    const SimTime t = i * duration::minutes(1);
    if (i < kUsers) {
      fx.engine.on_event(loc_event("u" + std::to_string(i), 56.0, -2.0, t), t, fx.sink);
    }
    if (i >= 4) {
      fx.engine.on_event(loc_event("u" + std::to_string(i - 4), 56.0, -2.0, t), t, fx.sink);
    }
    most_keys = std::max(most_keys, fx.engine.stats().cooldown_keys);
  }
  EXPECT_EQ(fx.out.size(), static_cast<std::size_t>(kUsers));
  EXPECT_EQ(fx.engine.stats().cooldown_suppressed, static_cast<std::uint64_t>(kUsers));
  EXPECT_GE(most_keys, 5u);
  EXPECT_LE(most_keys, 64u);  // the sweep's floor
}

TEST(Engine, FactProbesPushDownBoundJoinValues) {
  // An equality join against a bound alias or a constant narrows the
  // fact probe to the joined value.  A bound event lacking the joined
  // attribute pushes nothing, so every fact the rest of the probe
  // admits is a candidate, and each fails the join.
  EngineFixture fx;
  for (int u = 0; u < 20; ++u) {
    Fact pref;
    pref.set("kind", "preference").set("user", "u" + std::to_string(u)).set("tier", u % 2);
    fx.kb.add(pref);
  }
  Rule rule;
  rule.name = "probe";
  rule.triggers = {{"loc", f("type = user-location"), duration::minutes(5)}};
  rule.facts = {{"pref", f("kind = preference")}};
  rule.joins = {{Operand::ref("loc", "user"), Op::kEq, Operand::ref("pref", "user")},
                {Operand::ref("pref", "tier"), Op::kEq, Operand::lit(1)}};
  rule.emit.type = "hit";
  rule.emit.sets = {{"user", std::nullopt, "pref", "user"}};
  fx.engine.add_rule(rule);

  fx.engine.on_event(loc_event("u3", 56.0, -2.0, 1000), 1000, fx.sink);
  EXPECT_EQ(fx.engine.stats().candidate_bindings, 1u);  // user = u3 and tier = 1
  EXPECT_EQ(fx.out.size(), 1u);
  fx.engine.on_event(loc_event("u4", 56.0, -2.0, 2000), 2000, fx.sink);
  EXPECT_EQ(fx.engine.stats().candidate_bindings, 1u);  // u4's tier is 0
  Event anonymous("user-location");
  anonymous.set_time(3000);
  fx.engine.on_event(anonymous, 3000, fx.sink);
  EXPECT_EQ(fx.engine.stats().candidate_bindings, 11u);  // the ten tier-1 preferences
  EXPECT_EQ(fx.out.size(), 1u);
}

// A random value of the "user" attribute: the string "5", the int 5
// and the real 5.0 render the same in an emission key, and join
// according to AttrValue::compare.
event::AttrValue random_user(Rng& rng) {
  switch (rng.below(6)) {
    case 0: return event::AttrValue("5");
    case 1: return event::AttrValue(5);
    case 2: return event::AttrValue(5.0);
    case 3: return event::AttrValue(7);
    default: return event::AttrValue("u" + std::to_string(rng.below(2)));
  }
}

// Sets each attribute with probability 0.8, so some events and facts
// lack a joined, emitted or spatial attribute.
void random_attrs(Event& e, Rng& rng) {
  if (rng.chance(0.8)) e.set("user", random_user(rng));
  if (rng.chance(0.8)) e.set("v", static_cast<std::int64_t>(rng.below(4)));
  if (rng.chance(0.8)) e.set("w", rng.uniform(0.0, 4.0));
  if (rng.chance(0.8)) e.set("lat", 56.0 + rng.uniform(0.0, 0.01));
  if (rng.chance(0.8)) e.set("lon", -2.0 + rng.uniform(0.0, 0.01));
}

// A random rule over aliases t0..t2 (triggers) and f0..f1 (facts).
// Operands may name "ghost", which the rule never binds, or "zz",
// which no event carries.
Rule random_rule(Rng& rng) {
  static const char* kTypes[] = {"alpha", "beta", "gamma"};
  static const char* kAttrs[] = {"user", "v", "w", "zz"};
  static const char* kNames[] = {"user", "x", "type", "rule", "time"};
  Rule rule;
  rule.name = "rand";
  rule.cooldown = rng.chance(0.5) ? 0 : duration::seconds(static_cast<std::int64_t>(30 + rng.below(300)));
  std::vector<std::string> aliases;
  const std::uint64_t triggers = 1 + rng.below(3);
  for (std::uint64_t t = 0; t < triggers; ++t) {
    aliases.push_back("t" + std::to_string(t));
    rule.triggers.push_back({aliases.back(), f(std::string("type = ") + kTypes[rng.below(3)]),
                             duration::seconds(static_cast<std::int64_t>(60 + rng.below(240)))});
  }
  // Three triggers take at most one fact, so the oracle's rescans stay
  // small.
  const std::uint64_t facts = rng.below(triggers == 3 ? 2 : 3);
  for (std::uint64_t k = 0; k < facts; ++k) {
    aliases.push_back("f" + std::to_string(k));
    rule.facts.push_back({aliases.back(), f(rng.chance(0.5) ? "kind = pref" : "kind exists")});
  }
  aliases.push_back("ghost");
  auto ref = [&] {
    return Operand::ref(aliases[rng.below(aliases.size())], kAttrs[rng.below(4)]);
  };
  auto constant = [&]() -> Operand {
    switch (rng.below(3)) {
      case 0: return Operand::lit(random_user(rng));
      case 1: return Operand::lit(static_cast<std::int64_t>(rng.below(4)));
      default: return Operand::lit(rng.uniform(0.0, 4.0));
    }
  };
  for (std::uint64_t j = rng.below(4); j > 0; --j) {
    const auto op = static_cast<Op>(rng.below(static_cast<std::uint64_t>(Op::kExists) + 1));
    switch (rng.below(4)) {
      case 0: rule.joins.push_back({constant(), op, ref()}); break;
      case 1: rule.joins.push_back({ref(), op, constant()}); break;
      default: rule.joins.push_back({ref(), op, ref()}); break;
    }
  }
  if (rng.chance(0.4)) {
    rule.spatials.push_back({aliases[rng.below(aliases.size())],
                             aliases[rng.below(aliases.size())],
                             rng.chance(0.5) ? rng.uniform(100.0, 1500.0) : -1.0,
                             rng.chance(0.5) ? rng.uniform(60.0, 900.0) : -1.0});
  }
  rule.emit.type = "out";
  for (std::uint64_t k = rng.below(4); k > 0; --k) {
    Assignment a;
    a.name = kNames[rng.below(5)];
    if (rng.chance(0.3)) {
      a.constant = random_user(rng);
    } else {
      a.from_alias = aliases[rng.below(aliases.size())];
      a.from_attr = kAttrs[rng.below(4)];
    }
    rule.emit.sets.push_back(std::move(a));
  }
  if (rng.chance(0.3)) {
    // A repeated name whose later source is missing keeps the earlier
    // value.
    rule.emit.sets.push_back({"x", std::nullopt, "t0", "user"});
    rule.emit.sets.push_back({"x", std::nullopt, "t0", "zz"});
  }
  return rule;
}

TEST(NaiveEquivalence, RandomRuleShapes) {
  // The compiled engine against the by-name oracle over random rule
  // shapes and in-window streams: every Op with constants on either
  // side, spatial conditions, an alias the rule never binds, <set>s
  // overriding type, rule and time, a repeated name whose later source
  // is missing, cooldowns of 0 and more, events lacking joined
  // attributes, and "user" values "5", 5 and 5.0.
  constexpr int kRules = 300;
  constexpr int kEvents = 32;
  Rng rng(2101);
  KnowledgeBase kb;
  for (int k = 0; k < 8; ++k) {
    Fact fact;
    fact.set("kind", rng.chance(0.7) ? "pref" : "shop");
    random_attrs(fact, rng);
    kb.add(fact);
  }
  std::size_t emitted = 0;
  std::uint64_t suppressed = 0;
  for (int r = 0; r < kRules; ++r) {
    const Rule rule = random_rule(rng);
    MatchEngine engine(kb);
    engine.add_rule(rule);
    baselines::NaiveEngine naive(kb);
    naive.add_rule(rule);
    std::vector<std::string> got, want;
    SimTime t = 0;
    for (int i = 0; i < kEvents; ++i) {
      t += duration::seconds(static_cast<std::int64_t>(rng.below(40)));
      static const char* kTypes[] = {"alpha", "beta", "gamma"};
      Event e(kTypes[rng.below(3)]);
      random_attrs(e, rng);
      e.set_time(t);
      engine.on_event(e, t, [&](const Event& out) { got.push_back(out.describe()); });
      naive.on_event(e, t, [&](const Event& out) { want.push_back(out.describe()); });
    }
    ASSERT_EQ(got, want) << rule.to_xml_string();
    emitted += got.size();
    suppressed += engine.stats().cooldown_suppressed;
  }
  EXPECT_GT(emitted, 1000u);
  EXPECT_GT(suppressed, 100u);
}

// --- Matchlet as pipeline component ---

TEST(Matchlet, EmitsDownstream) {
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(4, 1000);
  sim::Network net(sched, topo);
  pipeline::PipelineNetwork pipes(net);
  KnowledgeBase kb;

  auto matchlet = std::make_unique<Matchlet>("m", kb);
  Rule rule;
  rule.name = "r";
  rule.triggers = {{"t", f("type = temperature and celsius > 10"), duration::minutes(1)}};
  rule.emit.type = "hot";
  matchlet->add_rule(rule);

  auto m_ref = pipes.add(0, std::move(matchlet));
  std::vector<Event> got;
  auto sink = pipes.add(0, std::make_unique<pipeline::SinkComponent>(
                               "s", [&](const Event& e) { got.push_back(e); }));
  ASSERT_TRUE(pipes.connect(m_ref, sink).is_ok());

  pipes.inject(m_ref, temp_event(20.0, 0));
  sched.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type(), "hot");
}

TEST(Matchlet, InstallerBuildsRulesAndWiresConnectLinks) {
  // The "matchlet" installer: <rule> children become the rule set and
  // <connect/> children wire the sink through the install tail every
  // pipe.* component shares.  A malformed link fails the install and
  // leaves no component behind.
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(4, 1000);
  sim::Network net(sched, topo);
  pipeline::PipelineNetwork pipes(net);
  bundle::ThinServerRuntime runtime(net, "secret");
  KnowledgeBase kb;
  register_matchlet_installer(runtime, pipes,
                              [&kb](sim::HostId) -> KnowledgeBase& { return kb; });
  runtime.start_server(1, {"run.matchlet"});
  std::vector<Event> got;
  pipes.add(0, std::make_unique<pipeline::SinkComponent>(
                   "s", [&](const Event& e) { got.push_back(e); }));

  Rule rule;
  rule.name = "r";
  rule.triggers = {{"t", f("type = temperature and celsius > 10"), duration::minutes(1)}};
  rule.emit.type = "hot";
  auto install = [&](const std::string& name, xml::Element link) {
    xml::Element config("config");
    config.add_child(rule.to_xml());
    config.add_child(std::move(link));
    bundle::CodeBundle b(name, "matchlet", config);
    return runtime.install_local(1, b, b.seal("secret"));
  };

  xml::Element to_sink("connect");
  to_sink.set_attribute("host", "0");
  to_sink.set_attribute("component", "s");
  ASSERT_EQ(install("m", to_sink), bundle::DeployResult::kInstalled);
  pipes.inject(pipeline::ComponentRef{1, "m"}, temp_event(20.0, 0));
  sched.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type(), "hot");

  xml::Element no_host("connect");
  no_host.set_attribute("component", "s");
  EXPECT_EQ(install("bad", no_host), bundle::DeployResult::kInstallerFailed);
  EXPECT_FALSE(pipes.exists(pipeline::ComponentRef{1, "bad"}));
}

// --- Discovery ---

struct DiscoveryFixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::Topology> topo = std::make_shared<sim::UniformTopology>(16, 1000);
  sim::Network net{sched, topo};
  overlay::OverlayNetwork overlay;
  storage::ObjectStore store;
  bundle::ThinServerRuntime runtime{net, "secret"};
  bundle::BundleDeployer deployer{net, runtime};
  pipeline::PipelineNetwork pipes{net};
  KnowledgeBase kb;

  DiscoveryFixture()
      : overlay(net, no_maintenance()), store(net, overlay, storage::ObjectStore::Params{}) {
    std::vector<sim::HostId> hosts;
    for (sim::HostId h = 0; h < 16; ++h) hosts.push_back(h);
    overlay.build_ring(hosts);
    store.sync_hosts();
    register_matchlet_installer(runtime, pipes, [this](sim::HostId) -> KnowledgeBase& {
      return kb;
    });
    for (sim::HostId h = 0; h < 16; ++h) runtime.start_server(h, {"run.matchlet"});
  }
  static overlay::OverlayNetwork::Params no_maintenance() {
    overlay::OverlayNetwork::Params p;
    p.maintenance_period = 0;
    return p;
  }
};

TEST(Discovery, FetchesAndDeploysHandlerForUnknownType) {
  DiscoveryFixture fx;
  // Publish a handler bundle for "pollen" events in the code directory.
  Rule rule;
  rule.name = "pollen-alert";
  rule.triggers = {{"p", f("type = pollen and level > 5"), duration::minutes(1)}};
  rule.emit.type = "pollen-warning";
  xml::Element config("config");
  config.add_child(rule.to_xml());
  bundle::CodeBundle handler("pollen-handler", "matchlet", config);
  handler.require_capability("run.matchlet");
  fx.store.put_named(0, DiscoveryService::handler_key("pollen"),
                     to_bytes(handler.to_xml_string()));
  fx.sched.run();

  DiscoveryService discovery(
      3, fx.store, fx.deployer,
      [&](const std::string& type) {
        // "handled" = some matchlet on host 5 handles it.
        const auto* c = fx.pipes.component(pipeline::ComponentRef{5, "pollen-handler"});
        return c != nullptr && type == "pollen";
      },
      [](const std::string&) { return sim::HostId{5}; });

  Event pollen("pollen");
  pollen.set("level", 8);
  EXPECT_FALSE(discovery.consider(pollen));
  fx.sched.run();

  EXPECT_EQ(discovery.stats().handlers_deployed, 1u);
  EXPECT_TRUE(discovery.deployed_types().contains("pollen"));
  EXPECT_TRUE(fx.pipes.exists(pipeline::ComponentRef{5, "pollen-handler"}));
  EXPECT_TRUE(discovery.consider(pollen));  // now handled
}

TEST(Discovery, UnpublishedTypeFailsOnce) {
  DiscoveryFixture fx;
  DiscoveryService discovery(
      3, fx.store, fx.deployer, [](const std::string&) { return false; },
      [](const std::string&) { return sim::HostId{5}; });
  Event mystery("mystery");
  EXPECT_FALSE(discovery.consider(mystery));
  fx.sched.run();
  EXPECT_EQ(discovery.stats().lookup_failures, 1u);
  // Subsequent sightings do not retry (remembered as unpublished).
  EXPECT_FALSE(discovery.consider(mystery));
  fx.sched.run();
  EXPECT_EQ(discovery.stats().lookups, 1u);
  discovery.reset_failed();
  EXPECT_FALSE(discovery.consider(mystery));
  fx.sched.run();
  EXPECT_EQ(discovery.stats().lookups, 2u);
}

TEST(Discovery, MatchletPassesEventsThrough) {
  DiscoveryFixture fx;
  DiscoveryService discovery(
      3, fx.store, fx.deployer, [](const std::string&) { return true; },
      [](const std::string&) { return sim::HostId{5}; });
  auto watcher =
      fx.pipes.add(0, std::make_unique<DiscoveryMatchlet>("disc", discovery));
  std::vector<Event> got;
  auto sink = fx.pipes.add(0, std::make_unique<pipeline::SinkComponent>(
                                  "s", [&](const Event& e) { got.push_back(e); }));
  ASSERT_TRUE(fx.pipes.connect(watcher, sink).is_ok());
  fx.pipes.inject(watcher, temp_event(5.0, 0));
  fx.sched.run();
  EXPECT_EQ(got.size(), 1u);
}

}  // namespace
}  // namespace aa::match
