// C7 — §1.1: "the major difficulty is in extracting the correlated set
// in the first place, from the huge number of items available" — and
// the matching engine "must be capable of processing the event stream
// sufficiently quickly to produce contextual information that is
// pertinent to users within an appropriate time frame" (§1.2).
//
// CPU-time benchmark of the matching engine itself: events/second and
// per-event latency while the knowledge base scales from 1k to 100k
// facts, against the naive full-rescan baseline (run at small scale
// only; its cost explodes exactly as the paper warns).
#include <chrono>
#include <map>

#include "alloc_counter.hpp"
#include "baselines/naive_engine.hpp"
#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "sim/metrics.hpp"
#include "event/filter_index.hpp"
#include "event/filter_parser.hpp"
#include "match/engine.hpp"
#include "pubsub/messages.hpp"
#include "wire/codec.hpp"
#include "xml/xml.hpp"

// Section (d) reports allocations per event for the old map-based
// layout vs the interned COW core with bench_e2e's process-wide counter
// (alloc_counter.cpp, linked into this binary only).  Section (a)'s
// rows count the engine's allocations with it too.

using namespace aa;

namespace {

event::Filter filt(const std::string& text) { return event::parse_filter(text).value(); }

match::Rule scenario_rule() {
  match::Rule rule;
  rule.name = "personal-heat";
  rule.triggers = {
      {"loc", filt("type = user-location"), duration::minutes(2)},
      {"w", filt("type = temperature"), duration::minutes(5)},
  };
  rule.facts = {{"pref", filt("kind = preference")}};
  rule.joins = {
      {match::Operand::ref("loc", "user"), event::Op::kEq, match::Operand::ref("pref", "user")},
      {match::Operand::ref("w", "celsius"), event::Op::kGe,
       match::Operand::ref("pref", "min_celsius")},
  };
  rule.emit.type = "suggestion";
  rule.emit.sets = {{"user", std::nullopt, "loc", "user"}};
  return rule;
}

/// One preference fact per user (facts/3 users), padded with shop and
/// web-page knowledge — so match counts reflect the stream, not
/// duplicated preferences, as the knowledge base scales.
void fill_kb(match::KnowledgeBase& kb, int facts, Rng& rng) {
  for (int i = 0; i < facts; ++i) {
    match::Fact f;
    switch (i % 3) {
      case 0:
        f.set("kind", "preference").set("user", "user" + std::to_string(i / 3))
            .set("min_celsius", rng.uniform(10.0, 30.0));
        break;
      case 1:
        f.set("kind", "shop").set("name", "shop" + std::to_string(i))
            .set("lat", rng.uniform(56.0, 57.0)).set("lon", rng.uniform(-3.0, -2.0));
        break;
      default:
        f.set("kind", "web-page").set("url", "http://example/" + std::to_string(i))
            .set("topic", "topic" + std::to_string(rng.below(50)));
    }
    kb.add(f);
  }
}

std::vector<event::Event> make_stream(int events, int users, Rng& rng) {
  std::vector<event::Event> stream;
  SimTime t = 0;
  for (int i = 0; i < events; ++i) {
    t += duration::seconds(static_cast<std::int64_t>(rng.below(5)));
    if (rng.chance(0.8)) {
      event::Event e("user-location");
      e.set("user", "user" + std::to_string(rng.below(static_cast<std::uint64_t>(users))))
          .set("lat", rng.uniform(56.0, 57.0)).set("lon", rng.uniform(-3.0, -2.0)).set_time(t);
      stream.push_back(e);
    } else {
      event::Event e("temperature");
      e.set("celsius", rng.uniform(5.0, 30.0)).set_time(t);
      stream.push_back(e);
    }
  }
  return stream;
}

// The pre-refactor event layout, reconstructed for comparison: one
// std::map node per attribute, string-keyed lookups, and a fresh XML
// rendering on every send (no wire-size cache, deep copy per fan-out).
struct MapEvent {
  std::map<std::string, event::AttrValue> attrs;

  MapEvent& set(const std::string& name, event::AttrValue v) {
    attrs[name] = std::move(v);
    return *this;
  }
  const event::AttrValue* get(const std::string& name) const {
    auto it = attrs.find(name);
    return it == attrs.end() ? nullptr : &it->second;
  }
  std::size_t wire_size() const {
    xml::Element root("event");
    for (const auto& [name, value] : attrs) {
      xml::Element attr("attr");
      attr.set_attribute("name", name);
      attr.set_attribute("type", event::value_type_name(value.type()));
      attr.set_attribute("value", value.to_text());
      root.add_child(std::move(attr));
    }
    return xml::to_string(root).size();
  }
};

double wall_us(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct EngineRun {
  int matches = 0;
  double us = 0;
  std::uint64_t allocs = 0;  // operator-new calls across the on_event loop
  match::EngineStats stats;
};

/// Section (a)'s row: `rule` over `facts` facts and a 2000-event stream
/// of `users` users.
EngineRun run_engine(int facts, int users, const match::Rule& rule) {
  Rng rng(3);
  match::KnowledgeBase kb;
  fill_kb(kb, facts, rng);
  match::MatchEngine engine(kb);
  engine.add_rule(rule);
  const auto stream = make_stream(2000, users, rng);

  EngineRun run;
  const std::uint64_t allocs = bench_e2e::allocations();
  const auto start = std::chrono::steady_clock::now();
  for (const auto& e : stream) {
    engine.on_event(e, e.time(), [&](const event::Event&) { ++run.matches; });
  }
  run.us = wall_us(start);
  run.allocs = bench_e2e::allocations() - allocs;
  run.stats = engine.stats();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bench::headline("C7 (§1.1/§1.2)",
                  "matching engine: extracting the correlated set from a huge number of "
                  "items — incremental vs naive rescan");
  bench::Snapshot snap("c7", argc, argv);

  std::printf("\n(a) Incremental engine, knowledge-base scale sweep (2000 events; the\n"
              "    last row adds F1's cooldown over 100 users):\n");
  bench::Table table({"facts", "events/s", "us/event", "matches", "candidates", "allocs"});
  for (int facts : {1000, 10000, 100000}) {
    const EngineRun run = run_engine(facts, facts / 3, scenario_rule());
    const std::uint64_t candidates = run.stats.candidate_bindings;
    table.row({bench::fmt("%d", facts), bench::fmt("%.0f", 2000.0 / (run.us / 1e6)),
               bench::fmt("%.1f", run.us / 2000.0), bench::fmt("%d", run.matches),
               bench::fmt("%llu", (unsigned long long)candidates),
               bench::fmt("%llu", (unsigned long long)run.allocs)});
    sim::MetricsRegistry reg;
    reg.add("match.facts", static_cast<std::uint64_t>(facts));
    reg.add("match.events", 2000);
    reg.add("match.matches", static_cast<std::uint64_t>(run.matches));
    reg.add("match.candidate_bindings", candidates);
    reg.add("match.events_per_sec", static_cast<std::uint64_t>(2000.0 / (run.us / 1e6)));
    bench::metrics_line(bench::fmt("C7 facts=%d", facts), reg);
    snap.add(bench::fmt("match.facts%d.matches", facts), static_cast<std::uint64_t>(run.matches));
    snap.add(bench::fmt("match.facts%d.candidate_bindings", facts), candidates);
    snap.add(bench::fmt("match.facts%d.allocs", facts), run.allocs);
    snap.add_scaled(bench::fmt("match.facts%d.us_per_event", facts), run.us / 2000.0);
  }
  {
    // F1's ten-minute cooldown over a stream of 100 users: most bindings
    // find their user's key cooling, which the engine decides as soon as
    // the location report is bound, before the preference probe.
    match::Rule rule = scenario_rule();
    rule.cooldown = duration::minutes(10);
    const EngineRun run = run_engine(10000, 100, rule);
    table.row({"10000+cooldown", bench::fmt("%.0f", 2000.0 / (run.us / 1e6)),
               bench::fmt("%.1f", run.us / 2000.0), bench::fmt("%d", run.matches),
               bench::fmt("%llu", (unsigned long long)run.stats.candidate_bindings),
               bench::fmt("%llu", (unsigned long long)run.allocs)});
    std::printf("  cooldown row: %llu bindings suppressed\n",
                (unsigned long long)run.stats.cooldown_suppressed);
    snap.add("match.cooldown.matches", static_cast<std::uint64_t>(run.matches));
    snap.add("match.cooldown.candidate_bindings", run.stats.candidate_bindings);
    snap.add("match.cooldown.cooldown_suppressed", run.stats.cooldown_suppressed);
    snap.add("match.cooldown.allocs", run.allocs);
  }

  std::printf("\n(b) Incremental vs naive full-rescan (10k facts; event-count sweep —\n"
              "    naive cost grows with history, incremental stays flat):\n");
  bench::Table vs({"events", "incr us/ev", "naive us/ev", "speedup", "same matches"});
  for (int events : {100, 200, 400}) {
    Rng rng(7);
    match::KnowledgeBase kb;
    fill_kb(kb, 10000, rng);
    const auto stream = make_stream(events, 10000 / 3, rng);

    match::MatchEngine engine(kb);
    engine.add_rule(scenario_rule());
    int incr_matches = 0;
    auto start = std::chrono::steady_clock::now();
    for (const auto& e : stream) {
      engine.on_event(e, e.time(), [&](const event::Event&) { ++incr_matches; });
    }
    const double incr_us = wall_us(start) / events;

    baselines::NaiveEngine naive(kb);
    naive.add_rule(scenario_rule());
    int naive_matches = 0;
    start = std::chrono::steady_clock::now();
    for (const auto& e : stream) {
      naive.on_event(e, e.time(), [&](const event::Event&) { ++naive_matches; });
    }
    const double naive_us = wall_us(start) / events;

    vs.row({bench::fmt("%d", events), bench::fmt("%.1f", incr_us),
            bench::fmt("%.1f", naive_us), bench::fmt("%.0fx", naive_us / incr_us),
            incr_matches == naive_matches ? "yes" : "NO"});
    snap.add(bench::fmt("vs.events%d.matches", events),
             static_cast<std::uint64_t>(incr_matches));
    snap.add(bench::fmt("vs.events%d.match_agree", events),
             incr_matches == naive_matches ? 1 : 0);
    snap.add_scaled(bench::fmt("vs.events%d.speedup", events), naive_us / incr_us);
  }

  std::printf("\n(c) Broker forwarding table: FilterIndex vs linear scan\n"
              "    (2000 events against N two-constraint subscription filters):\n");
  bench::Table idx({"filters", "index us/ev", "scan us/ev", "speedup", "probes/ev",
                    "tests/ev", "same matches"});
  for (int filters : {1000, 10000, 100000}) {
    Rng rng(11);
    event::FilterIndex index;
    std::vector<std::pair<std::uint64_t, event::Filter>> table;
    for (int i = 0; i < filters; ++i) {
      event::Filter f;
      f.where("type", event::Op::kEq, "type" + std::to_string(rng.below(64)));
      switch (rng.below(3)) {
        case 0: f.where("topic", event::Op::kEq, "topic" + std::to_string(rng.below(64))); break;
        case 1: f.where("value", event::Op::kGt, rng.uniform(0.0, 100.0)); break;
        default: f.where("name", event::Op::kPrefix, "n" + std::to_string(rng.below(16)));
      }
      const auto id = static_cast<std::uint64_t>(i + 1);
      index.add(id, f);
      table.emplace_back(id, std::move(f));
    }
    std::vector<event::Event> events;
    for (int i = 0; i < 2000; ++i) {
      event::Event e("type" + std::to_string(rng.below(64)));
      e.set("topic", "topic" + std::to_string(rng.below(64)))
          .set("value", rng.uniform(0.0, 100.0))
          .set("name", "n" + std::to_string(rng.below(32)) + "x");
      events.push_back(e);
    }

    std::uint64_t probes = 0, index_matched = 0;
    std::vector<std::uint64_t> out;
    auto start = std::chrono::steady_clock::now();
    for (const auto& e : events) {
      out.clear();
      probes += index.match(e, out);
      index_matched += out.size();
    }
    const double index_us = wall_us(start) / 2000.0;

    std::uint64_t tests = 0, scan_matched = 0;
    start = std::chrono::steady_clock::now();
    for (const auto& e : events) {
      for (const auto& [id, f] : table) {
        ++tests;
        if (f.matches(e)) ++scan_matched;
      }
    }
    const double scan_us = wall_us(start) / 2000.0;

    idx.row({bench::fmt("%d", filters), bench::fmt("%.1f", index_us),
             bench::fmt("%.1f", scan_us), bench::fmt("%.0fx", scan_us / index_us),
             bench::fmt("%.0f", static_cast<double>(probes) / 2000.0),
             bench::fmt("%.0f", static_cast<double>(tests) / 2000.0),
             index_matched == scan_matched ? "yes" : "NO"});
    snap.add(bench::fmt("index.filters%d.matched", filters), index_matched);
    snap.add(bench::fmt("index.filters%d.match_agree", filters),
             index_matched == scan_matched ? 1 : 0);
    snap.add_scaled(bench::fmt("index.filters%d.probes_per_event", filters),
                    static_cast<double>(probes) / 2000.0);
    snap.add_scaled(bench::fmt("index.filters%d.speedup", filters), scan_us / index_us);
  }

  std::printf("\n(d) Event representation: map-per-event vs interned COW core\n"
              "    (2000 events: construct 6 attrs + match 20 filters + fan-out x8):\n");
  {
    constexpr int kEvents = 2000;
    constexpr int kFanOut = 8;
    constexpr int kFilters = 20;

    // Parallel filter banks: string-keyed equality checks for the map
    // layout, real AtomId-probing Filters for the COW core.
    std::vector<std::pair<std::string, std::string>> map_filters;
    std::vector<event::Filter> cow_filters;
    for (int i = 0; i < kFilters; ++i) {
      const std::string want = "t" + std::to_string(i % 4);
      map_filters.emplace_back("type", want);
      cow_filters.push_back(event::Filter().where("type", event::Op::kEq, want));
    }

    auto attr_val = [](int i, int k) {
      switch (k) {
        case 0: return event::AttrValue("user" + std::to_string(i % 97));
        case 1: return event::AttrValue(17.25 + i % 13);
        case 2: return event::AttrValue(static_cast<std::int64_t>(i));
        default: return event::AttrValue(i % 3 == 0);
      }
    };

    // Map layout: every set allocates a tree node, every fan-out hop
    // deep-copies the map and re-renders the XML to price the packet.
    std::uint64_t map_matches = 0, map_bytes = 0;
    const std::uint64_t map_alloc_start = bench_e2e::allocations();
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kEvents; ++i) {
      MapEvent e;
      e.set("type", event::AttrValue("t" + std::to_string(i % 4)));
      e.set("user", attr_val(i, 0)).set("celsius", attr_val(i, 1));
      e.set("floor", attr_val(i, 2)).set("indoors", attr_val(i, 3));
      e.set("key", event::AttrValue("p" + std::to_string(i)));
      for (const auto& [name, want] : map_filters) {
        const event::AttrValue* v = e.get(name);
        if (v != nullptr && v->is_string() && v->str() == want) ++map_matches;
      }
      for (int hop = 0; hop < kFanOut; ++hop) {
        MapEvent packet = e;  // deep copy, one node per attribute
        map_bytes += packet.wire_size();  // re-serialises every hop
      }
    }
    const double map_us = wall_us(start) / kEvents;
    const std::uint64_t map_allocs = bench_e2e::allocations() - map_alloc_start;

    // COW core: one shared payload per event, handle copies per hop,
    // one cached XML size (summed, not rendered) regardless of fan-out.
    std::uint64_t cow_matches = 0, cow_bytes = 0;
    const std::uint64_t cow_alloc_start = bench_e2e::allocations();
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < kEvents; ++i) {
      event::Event e("t" + std::to_string(i % 4));
      e.set("user", attr_val(i, 0)).set("celsius", attr_val(i, 1));
      e.set("floor", attr_val(i, 2)).set("indoors", attr_val(i, 3));
      e.set("key", event::AttrValue("p" + std::to_string(i)));
      for (const event::Filter& f : cow_filters) {
        if (f.matches(e)) ++cow_matches;
      }
      for (int hop = 0; hop < kFanOut; ++hop) {
        event::Event packet = e;  // handle copy, payload shared
        cow_bytes += packet.wire_size();  // sized once, then cached
      }
    }
    const double cow_us = wall_us(start) / kEvents;
    const std::uint64_t cow_allocs = bench_e2e::allocations() - cow_alloc_start;

    const double alloc_ratio =
        static_cast<double>(map_allocs) / static_cast<double>(cow_allocs ? cow_allocs : 1);
    bench::Table repr({"repr", "allocs/ev", "us/ev", "matches", "bytes"});
    repr.row({"map+reserialize", bench::fmt("%.1f", static_cast<double>(map_allocs) / kEvents),
              bench::fmt("%.2f", map_us), bench::fmt("%llu", (unsigned long long)map_matches),
              bench::fmt("%llu", (unsigned long long)map_bytes)});
    repr.row({"interned-cow", bench::fmt("%.1f", static_cast<double>(cow_allocs) / kEvents),
              bench::fmt("%.2f", cow_us), bench::fmt("%llu", (unsigned long long)cow_matches),
              bench::fmt("%llu", (unsigned long long)cow_bytes)});
    std::printf("  allocation ratio (map/cow): %.1fx %s\n", alloc_ratio,
                alloc_ratio >= 2.0 ? "(>=2x target met)" : "(BELOW 2x TARGET)");

    sim::MetricsRegistry reg;
    reg.add("repr.events", kEvents);
    reg.add("repr.fanout", kFanOut);
    reg.add("repr.map_allocs", map_allocs);
    reg.add("repr.cow_allocs", cow_allocs);
    reg.add("repr.alloc_ratio_x10", static_cast<std::uint64_t>(alloc_ratio * 10.0));
    bench::metrics_line("C7 repr fanout=8", reg);
    snap.add("repr.map_allocs", map_allocs);
    snap.add("repr.cow_allocs", cow_allocs);
    snap.add("repr.matches", cow_matches);
    snap.add_scaled("repr.alloc_ratio", alloc_ratio);
  }

  std::printf("\n(e) Wire codec economics: the same publish/subscribe traffic priced\n"
              "    by the XML interop codec vs the length-prefixed binary codec\n"
              "    (wire/codec.hpp) — bytes a broker link would carry per message:\n");
  {
    Rng rng(7);
    const auto stream = make_stream(2000, 64, rng);
    std::uint64_t xml_bytes = 0, bin_bytes = 0, count = 0;
    std::uint64_t roundtrip_failures = 0;
    const wire::Codec& xml = wire::xml_codec();
    const wire::Codec& bin = wire::binary_codec();
    for (const event::Event& e : stream) {
      const pubsub::PublishMsg pub{e, count};
      xml_bytes += xml.size(pub);
      bin_bytes += bin.size(pub);
      // The binary bytes must decode back to the same payload — the
      // reduction only counts if nothing is lost.  A standalone binary
      // datagram is a one-member frame.
      const Body member = pub;
      const auto frame = wire::encode_frame({&member, 1});
      const auto back = wire::decode_frame(frame.value_or(Bytes{}));
      const auto* decoded = back.is_ok() && back.value().size() == 1
                                ? back.value()[0].get<pubsub::PublishMsg>()
                                : nullptr;
      if (decoded == nullptr || decoded->event.to_xml_string() != e.to_xml_string()) {
        ++roundtrip_failures;
      }
      ++count;
    }
    std::uint64_t xml_sub_bytes = 0, bin_sub_bytes = 0;
    for (int i = 0; i < 200; ++i) {
      event::Filter f;
      f.where("type", event::Op::kEq, "user-location")
          .where("user", event::Op::kPrefix, "user" + std::to_string(i % 64));
      const pubsub::SubscribeMsg sub{static_cast<std::uint64_t>(i), f};
      xml_sub_bytes += xml.size(sub);
      bin_sub_bytes += bin.size(sub);
    }
    const double pub_reduction =
        static_cast<double>(xml_bytes) / static_cast<double>(bin_bytes ? bin_bytes : 1);
    const double sub_reduction = static_cast<double>(xml_sub_bytes) /
                                 static_cast<double>(bin_sub_bytes ? bin_sub_bytes : 1);
    bench::Table codec_table({"traffic", "xml bytes", "binary bytes", "reduction"});
    codec_table.row({"publish x2000", bench::fmt("%llu", (unsigned long long)xml_bytes),
                     bench::fmt("%llu", (unsigned long long)bin_bytes),
                     bench::fmt("%.2fx", pub_reduction)});
    codec_table.row({"subscribe x200", bench::fmt("%llu", (unsigned long long)xml_sub_bytes),
                     bench::fmt("%llu", (unsigned long long)bin_sub_bytes),
                     bench::fmt("%.2fx", sub_reduction)});
    std::printf("  binary reduction: %.2fx %s, round-trip failures: %llu\n", pub_reduction,
                pub_reduction >= 2.0 ? "(>=2x target met)" : "(BELOW 2x TARGET)",
                (unsigned long long)roundtrip_failures);
    snap.add("codec.publish.xml_bytes", xml_bytes);
    snap.add("codec.publish.binary_bytes", bin_bytes);
    snap.add("codec.publish.roundtrip_failures", roundtrip_failures);
    snap.add_scaled("codec.publish.reduction", pub_reduction);
    snap.add("codec.subscribe.xml_bytes", xml_sub_bytes);
    snap.add("codec.subscribe.binary_bytes", bin_sub_bytes);
    snap.add_scaled("codec.subscribe.reduction", sub_reduction);
  }

  std::printf("\nShape check: the incremental engine's per-event cost is flat in\n"
              "both fact count (indexed probes) and history length (windows);\n"
              "the naive rescan's per-event cost grows with everything — the\n"
              "architecture's reason for existing.\n");
  return snap.write() ? 0 : 1;
}
