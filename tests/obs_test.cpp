// Tests for the aa::obs layer: trace collection, Chrome-JSON export +
// validation, per-delivery metrics, the metrics hub plumbing, the
// sim-time logger clock, and — end to end — causal traces threading
// broker routing, pipelines, reliable retransmission and delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "obs/profiler.hpp"
#include "event/filter_parser.hpp"
#include "gloss/active_architecture.hpp"
#include "obs/metrics_hub.hpp"
#include "obs/trace.hpp"
#include "overlay/overlay_network.hpp"
#include "pubsub/siena_network.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/reliable.hpp"
#include "wire/codec.hpp"

namespace aa {
namespace {

using event::Event;
using event::Filter;
using event::Op;

// --- TraceCollector core ---

TEST(Trace, SpansNestAndCloseIdempotently) {
  obs::TraceCollector tc;
  const obs::TraceContext root = tc.start_trace();
  ASSERT_TRUE(root.active());

  const std::uint64_t a = tc.begin(root, 3, "client", "publish", 100);
  const std::uint64_t b = tc.begin({root.trace_id, a}, 3, "net", "wire", 100);
  tc.end(b, 150);
  tc.end(b, 999);  // idempotent: a duplicated packet cannot stretch the span
  tc.annotate(b, "p->h4");
  tc.annotate(b, "dup");
  tc.end(a, 150);

  ASSERT_EQ(tc.spans().size(), 2u);
  EXPECT_EQ(tc.span(b)->parent, a);
  EXPECT_EQ(tc.span(b)->end, 150);
  EXPECT_EQ(tc.span(b)->detail, "p->h4;dup");
  EXPECT_EQ(tc.span(a)->parent, 0u);
  EXPECT_EQ(tc.trace(root.trace_id).size(), 2u);
}

TEST(Trace, InactiveContextIsFree) {
  obs::TraceCollector tc;
  EXPECT_EQ(tc.begin(obs::TraceContext{}, 0, "x", "y", 0), 0u);
  EXPECT_TRUE(tc.spans().empty());
}

TEST(Trace, DeliveryMetricsBreakDownTheChain) {
  obs::TraceCollector tc;
  const obs::TraceContext root = tc.start_trace();
  const std::uint64_t pub = tc.begin(root, 0, "client", "publish", 0);
  const std::uint64_t wire = tc.begin({root.trace_id, pub}, 0, "net", "wire", 0);
  tc.end(wire, 10);
  const std::uint64_t del = tc.begin({root.trace_id, wire}, 1, "client", "deliver", 15);
  tc.end(del, 15);
  tc.end(pub, 0);

  const auto metrics = tc.delivery_metrics();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].trace_id, root.trace_id);
  EXPECT_EQ(metrics[0].host, 1u);
  EXPECT_EQ(metrics[0].hops, 1);
  EXPECT_EQ(metrics[0].total, 15);
  EXPECT_EQ(metrics[0].wire, 10);
  EXPECT_EQ(metrics[0].match, 0);
  EXPECT_EQ(metrics[0].queue, 5);
}

// --- Chrome JSON export + validator ---

TEST(TraceValidator, AcceptsCollectorExport) {
  obs::TraceCollector tc;
  const obs::TraceContext root = tc.start_trace();
  const std::uint64_t a = tc.begin(root, 0, "client", "publish", 5);
  const std::uint64_t b = tc.begin({root.trace_id, a}, 0, "net", "wire", 5);
  tc.annotate(b, "quoted \"detail\"\nline");
  tc.end(b, 25);
  tc.end(a, 5);
  tc.begin({root.trace_id, b}, 1, "client", "deliver", 25);  // left open

  std::istringstream in(tc.chrome_json());
  const auto problems = obs::validate_chrome_trace(in);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(TraceValidator, RejectsMalformedJson) {
  std::istringstream in("{\"traceEvents\":[");
  EXPECT_FALSE(obs::validate_chrome_trace(in).empty());
}

TEST(TraceValidator, RejectsMissingParent) {
  std::istringstream in(R"({"traceEvents":[
    {"name":"deliver","ph":"X","ts":5,"dur":0,"pid":0,"tid":1,
     "args":{"trace":1,"span":2,"parent":7}}]})");
  const auto problems = obs::validate_chrome_trace(in);
  ASSERT_FALSE(problems.empty());
}

TEST(TraceValidator, RejectsDuplicateSpanIds) {
  std::istringstream in(R"({"traceEvents":[
    {"name":"a","ph":"X","ts":0,"dur":0,"pid":0,"tid":1,"args":{"trace":1,"span":1,"parent":0}},
    {"name":"b","ph":"X","ts":1,"dur":0,"pid":0,"tid":1,"args":{"trace":1,"span":1,"parent":0}}]})");
  EXPECT_FALSE(obs::validate_chrome_trace(in).empty());
}

TEST(TraceValidator, RejectsChildStartingBeforeParent) {
  std::istringstream in(R"({"traceEvents":[
    {"name":"a","ph":"X","ts":100,"dur":0,"pid":0,"tid":1,"args":{"trace":1,"span":1,"parent":0}},
    {"name":"b","ph":"X","ts":50,"dur":0,"pid":0,"tid":1,"args":{"trace":1,"span":2,"parent":1}}]})");
  EXPECT_FALSE(obs::validate_chrome_trace(in).empty());
}

TEST(TraceValidator, RejectsCrossTraceParent) {
  std::istringstream in(R"({"traceEvents":[
    {"name":"a","ph":"X","ts":0,"dur":0,"pid":0,"tid":1,"args":{"trace":1,"span":1,"parent":0}},
    {"name":"b","ph":"X","ts":1,"dur":0,"pid":0,"tid":2,"args":{"trace":2,"span":2,"parent":1}}]})");
  EXPECT_FALSE(obs::validate_chrome_trace(in).empty());
}

// --- Histogram::merge (satellite b) ---

TEST(Metrics, HistogramMergePreservesPercentiles) {
  sim::Histogram low, high, all;
  for (int i = 1; i <= 50; ++i) {
    low.record(i);
    all.record(i);
  }
  for (int i = 51; i <= 100; ++i) {
    high.record(i);
    all.record(i);
  }
  // Percentile queries sort lazily; merging *after* a query must still
  // include the merged samples in the next query.
  const double pre_merge_p50 = low.percentile(50);
  low.merge(high);
  EXPECT_GT(low.percentile(50), pre_merge_p50);
  EXPECT_EQ(low.count(), 100u);
  EXPECT_DOUBLE_EQ(low.percentile(50), all.percentile(50));
  EXPECT_DOUBLE_EQ(low.percentile(99), all.percentile(99));
  EXPECT_DOUBLE_EQ(low.max(), 100.0);

  sim::Histogram empty;
  low.merge(empty);  // merging nothing changes nothing
  EXPECT_EQ(low.count(), 100u);

  sim::Histogram self;
  self.record(1);
  self.record(3);
  self.merge(self);  // self-merge doubles the samples, keeps quantiles
  EXPECT_EQ(self.count(), 4u);
  EXPECT_DOUBLE_EQ(self.max(), 3.0);

  // Many small merges into one histogram (a bench folding per-subscriber
  // histograms) keep every sample, in merge order.
  sim::Histogram merged, direct;
  for (int i = 0; i < 4096; ++i) {
    const double v = static_cast<double>((i * 7919) % 4096) / 8.0;
    sim::Histogram one;
    one.record(v);
    merged.merge(one);
    direct.record(v);
  }
  EXPECT_EQ(merged.values(), direct.values());
  EXPECT_DOUBLE_EQ(merged.mean(), direct.mean());
  EXPECT_DOUBLE_EQ(merged.percentile(50), direct.percentile(50));
  EXPECT_DOUBLE_EQ(merged.percentile(99), direct.percentile(99));
}

// --- MetricsRegistry JSON + accessors (satellite c) ---

TEST(Metrics, RegistryToJsonRoundTrip) {
  sim::MetricsRegistry reg;
  reg.add("net.messages_sent", 7);
  reg.add("broker.routed", 3);
  reg.histogram("trace.hops").record(2);
  reg.histogram("trace.hops").record(4);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"net.messages_sent\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"broker.routed\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace.hops\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;

  // Const accessors see the same data, without creating entries.
  const sim::MetricsRegistry& cref = reg;
  ASSERT_NE(cref.find_histogram("trace.hops"), nullptr);
  EXPECT_EQ(cref.find_histogram("trace.hops")->count(), 2u);
  EXPECT_EQ(cref.find_histogram("absent"), nullptr);
  EXPECT_EQ(cref.histograms().size(), 1u);

  // Round-trip: rebuilding a registry from the accessors reproduces the
  // exact same JSON document.
  sim::MetricsRegistry rebuilt;
  for (const auto& [name, value] : cref.counters()) rebuilt.add(name, value);
  for (const auto& [name, h] : cref.histograms()) rebuilt.histogram(name).merge(h);
  EXPECT_EQ(rebuilt.to_json(), json);
}

TEST(Metrics, HubSnapshotsEverySource) {
  obs::MetricsHub hub;
  sim::NetworkStats net;
  net.messages_sent = 11;
  hub.add_stats("net", net);
  hub.add_source([](sim::MetricsRegistry& reg) { reg.add("custom.flag", 1); });
  EXPECT_EQ(hub.source_count(), 2u);

  const sim::MetricsRegistry reg = hub.snapshot();
  EXPECT_EQ(reg.counter("net.messages_sent"), 11u);
  EXPECT_EQ(reg.counter("custom.flag"), 1u);
}

TEST(Metrics, NetworkExportIncludesBatchCounters) {
  obs::MetricsHub hub;
  sim::NetworkStats net;
  net.messages_sent = 10;
  net.frames_sent = 2;
  net.batched_messages = 6;
  net.batch_flushes = 3;
  hub.add_stats("net", net);
  const sim::MetricsRegistry reg = hub.snapshot();
  EXPECT_EQ(reg.counter("net.batch.frames"), 2u);
  EXPECT_EQ(reg.counter("net.batch.members"), 6u);
  EXPECT_EQ(reg.counter("net.batch.flushes"), 3u);
  // 10 messages, 6 of which coalesced into 2 frames: 6 physical packets.
  EXPECT_EQ(reg.counter("net.packets_sent"), 6u);
}

TEST(Tracing, BatchedFrameRecordsOneWireSpanForAllMembers) {
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(2, duration::millis(5));
  sim::Network net(sched, topo);
  net.enable_tracing();
  net.enable_batching(0, [](std::span<const std::size_t> sizes) {
    return wire::xml_codec().frame_size(sizes);
  });
  int got = 0;
  net.register_handler(1, "t", [&](const sim::Packet&) { ++got; });
  sched.after(1, [&] {
    sim::Network::TraceScope root(net, net.start_trace());
    net.send(0, 1, "t", 1, 100);
    net.send(0, 1, "t", 2, 100);
    net.send(0, 1, "t", 3, 100);
  });
  sched.run();
  ASSERT_EQ(got, 3);
  const obs::TraceCollector* tc = net.tracer();
  ASSERT_NE(tc, nullptr);
  int wire_spans = 0;
  bool batch_annotated = false;
  for (const obs::Span& s : tc->spans()) {
    if (s.action != "wire") continue;
    ++wire_spans;
    if (s.detail.find("batch:3") != std::string::npos) batch_annotated = true;
  }
  // One physical hop, one wire span — members don't fake three.
  EXPECT_EQ(wire_spans, 1);
  EXPECT_TRUE(batch_annotated);
  std::istringstream in(tc->chrome_json());
  EXPECT_TRUE(obs::validate_chrome_trace(in).empty());
}

// --- Logger sim-time clock (satellite a) ---

TEST(Logging, ClockPrefixesLinesWithSimTime) {
  std::vector<std::string> lines;
  Logger::set_sink([&lines](const std::string& line) { lines.push_back(line); });
  Logger::set_clock([]() { return std::int64_t{1234}; });
  const LogLevel saved = Logger::level();
  Logger::set_level(LogLevel::kInfo);

  AA_INFO("test") << "hello";
  Logger::set_clock(nullptr);
  AA_INFO("test") << "later";

  Logger::set_level(saved);
  Logger::set_sink(nullptr);

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("[t=1234us] ", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("hello"), std::string::npos);
  EXPECT_EQ(lines[1].find("[t="), std::string::npos) << lines[1];
}

// --- Trace propagation through retransmission (satellite d) ---

TEST(Tracing, RetransmitDedupKeepsOneDeliverSpanPerDelivery) {
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(2, duration::millis(5));
  sim::Network net(sched, topo);
  pubsub::SienaNetwork ps(net, {0, 1});
  ASSERT_TRUE(ps.connect_tree().is_ok());
  sim::ReliableParams rp;
  rp.initial_rto = duration::millis(20);
  rp.max_rto = duration::millis(500);
  rp.max_retries = 20;
  ps.enable_reliable_transport(rp);

  ps.attach_client(0, 0);
  ps.attach_client(1, 1);
  int delivered = 0;
  ps.subscribe(1, Filter().where("type", Op::kEq, "ping"),
               [&delivered](const Event&) { ++delivered; });
  sched.run();
  net.reset_stats();

  net.enable_tracing();
  // Lossy, duplicating broker-broker link: retries recover the drops and
  // receiver-side dedup must swallow the duplicates *before* any deliver
  // span is recorded.
  net.set_link_faults(0, 1, sim::LinkFaults{.drop = 0.3, .duplicate = 0.4, .seed = 99});

  constexpr int kEvents = 20;
  for (int i = 0; i < kEvents; ++i) {
    Event e("ping");
    e.set("n", i);
    ps.publish(0, e);
    sched.run();
  }

  ASSERT_EQ(delivered, kEvents);
  const obs::TraceCollector* tc = net.tracer();
  ASSERT_NE(tc, nullptr);
  int deliver_spans = 0, retransmit_spans = 0;
  for (const obs::Span& s : tc->spans()) {
    if (s.action == "deliver") ++deliver_spans;
    if (s.action == "retransmit") ++retransmit_spans;
  }
  // The faults were real — retries happened and duplicates arrived — yet
  // exactly one deliver span per delivery survived.
  EXPECT_EQ(deliver_spans, kEvents);
  EXPECT_GT(retransmit_spans, 0);
  ASSERT_NE(ps.reliable_transport(), nullptr);
  EXPECT_GT(ps.reliable_transport()->stats().retransmits, 0u);
  EXPECT_GT(ps.reliable_transport()->stats().duplicates_suppressed, 0u);
  EXPECT_EQ(ps.reliable_transport()->stats().give_ups, 0u);

  std::istringstream in(tc->chrome_json());
  EXPECT_TRUE(obs::validate_chrome_trace(in).empty());
}

// --- End to end through the facade ---

TEST(Tracing, FacadeTraceThreadsBrokerPipelineAndDelivery) {
  gloss::ActiveArchitecture::Config config;
  config.hosts = 8;
  config.brokers = 2;
  config.regions = 2;
  gloss::ActiveArchitecture arch(config);
  arch.enable_tracing();

  match::Rule rule;
  rule.name = "echo";
  rule.triggers = {{"p", event::parse_filter("type = ping").value(), duration::minutes(2)}};
  rule.emit.type = "pong";

  gloss::ServiceSpec spec;
  spec.name = "echo";
  spec.input = event::parse_filter("type = ping").value();
  spec.rules = {rule};
  arch.deploy_service(spec);
  arch.run_for(duration::seconds(30));

  int delivered = 0;
  std::uint64_t delivered_trace = 0;
  arch.subscribe_user(5, event::parse_filter("type = pong").value(),
                      [&](const Event& e) {
                        ++delivered;
                        delivered_trace = e.trace_id();
                      });
  arch.run_for(duration::seconds(5));

  for (int i = 0; i < 5; ++i) {
    Event ping("ping");
    ping.set("n", i);
    arch.publish(3, ping);
    arch.run_for(duration::seconds(2));
  }
  arch.run_for(duration::seconds(5));

  ASSERT_GT(delivered, 0);
  // Delivered events carry their trace coordinates as attributes.
  EXPECT_NE(delivered_trace, 0u);

  const obs::TraceCollector* tc = arch.network().tracer();
  ASSERT_NE(tc, nullptr);

  // Some single trace must witness the whole path: broker routing, the
  // pipeline handing the event to a component, and final delivery.
  // Trace ids are keyed hashes (not dense), so enumerate via trace_ids.
  bool full_path = false;
  for (std::uint64_t tid : tc->trace_ids()) {
    if (full_path) break;
    bool route = false, put = false, deliver = false;
    for (const obs::Span* s : tc->trace(tid)) {
      route |= s->component == "broker" && s->action == "route";
      put |= s->component == "pipeline" && s->action == "put";
      deliver |= s->component == "client" && s->action == "deliver";
    }
    full_path = route && put && deliver;
  }
  EXPECT_TRUE(full_path);

  // Derived per-delivery metrics exist and crossed at least one wire.
  const auto dm = tc->delivery_metrics();
  ASSERT_FALSE(dm.empty());
  bool some_hops = false;
  for (const auto& m : dm) some_hops |= m.hops > 0;
  EXPECT_TRUE(some_hops);

  // The export validates.
  std::istringstream in(tc->chrome_json());
  const auto problems = obs::validate_chrome_trace(in);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

// --- Keyed sampling ---

TEST(Trace, KeyedSamplingIsDeterministicAcrossSlots) {
  // Sampling decisions and trace ids mix (task key, per-task call index)
  // and nothing else, so feeding the same keys admits the same traces.
  // The ids are pinned by constants recorded when sharded runs were
  // still checked against this one.
  obs::TraceCollector tc;
  obs::TraceCollector::TaskKey key;
  tc.bind_task_keys([&key] { return key; });
  tc.set_sample_every(3);

  const obs::TraceCollector::TaskKey keys[] = {
      {100, 1, 7}, {100, 2, 1}, {250, 1, 8}, {250, 3, 1}, {900, 2, 4}};
  std::vector<std::uint64_t> admitted;
  for (const auto& k : keys) {
    key = k;
    for (int call = 0; call < 4; ++call) {  // several candidates per task
      const obs::TraceContext ctx = tc.start_trace();
      if (ctx.active()) admitted.push_back(ctx.trace_id);
    }
  }
  EXPECT_EQ(admitted, (std::vector<std::uint64_t>{0xdd7c3f1e5a24ULL, 0x37bc530568d7ULL,
                                                 0xf675ad2da3b9ULL, 0xb0e6c4064d74ULL}));
  EXPECT_EQ(tc.trace_count(), admitted.size());

  // 0 stops admitting new traces entirely.
  tc.set_sample_every(0);
  for (const auto& k : keys) {
    key = k;
    EXPECT_FALSE(tc.start_trace().active());
  }
  EXPECT_EQ(tc.trace_count(), admitted.size());
}

TEST(Trace, UnboundCollectorKeysEveryCallAsRootContext) {
  // A collector no Network bound samples as one bound to the root
  // context's key (TaskKey{}): same decisions, same ids.
  obs::TraceCollector bare;
  obs::TraceCollector root;
  root.bind_task_keys([] { return obs::TraceCollector::TaskKey{}; });
  bare.set_sample_every(3);
  root.set_sample_every(3);
  int active = 0;
  for (int call = 0; call < 30; ++call) {
    const obs::TraceContext a = bare.start_trace();
    const obs::TraceContext b = root.start_trace();
    EXPECT_EQ(a.trace_id, b.trace_id) << call;
    if (a.active()) ++active;
  }
  EXPECT_GT(active, 0);
  EXPECT_LT(active, 30);
  EXPECT_EQ(bare.trace_count(), static_cast<std::uint64_t>(active));
}

TEST(Trace, TraceIdsEnumeratesRecordedTraces) {
  // Keyed trace ids are 48-bit hashes, not dense counters: consumers
  // enumerate via trace_ids(), which lists each recorded trace once.
  obs::TraceCollector tc;
  obs::TraceCollector::TaskKey key{50, 2, 1};
  tc.bind_task_keys([&key] { return key; });

  const obs::TraceContext a = tc.start_trace();
  key = {60, 3, 1};
  const obs::TraceContext b = tc.start_trace();
  ASSERT_TRUE(a.active());
  ASSERT_TRUE(b.active());
  EXPECT_NE(a.trace_id, b.trace_id);
  const std::uint64_t sa = tc.begin(a, 0, "client", "publish", 50);
  tc.begin({a.trace_id, sa}, 0, "net", "wire", 50);
  tc.begin(b, 1, "client", "publish", 60);

  const std::vector<std::uint64_t> ids = tc.trace_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_NE(std::find(ids.begin(), ids.end(), a.trace_id), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), b.trace_id), ids.end());
  for (const std::uint64_t id : ids) {
    EXPECT_FALSE(tc.trace(id).empty());
  }
}

// --- Scheduler profiler ---

TEST(Profiler, BucketMappingCoversSubsystems) {
  using obs::ProfileBucket;
  EXPECT_EQ(obs::bucket_for("broker", "route"), ProfileBucket::kBrokerRoute);
  EXPECT_EQ(obs::bucket_for("broker", "match"), ProfileBucket::kBrokerMatch);
  EXPECT_EQ(obs::bucket_for("store", "put"), ProfileBucket::kStore);
  EXPECT_EQ(obs::bucket_for("overlay", "route"), ProfileBucket::kOverlay);
  EXPECT_EQ(obs::bucket_for("net", "wire"), ProfileBucket::kTransport);
  EXPECT_EQ(obs::bucket_for("pipeline", "put"), ProfileBucket::kPipeline);
  EXPECT_EQ(obs::bucket_for("client", "deliver"), ProfileBucket::kClient);
  EXPECT_EQ(obs::bucket_for("mystery", "zap"), ProfileBucket::kOther);
  // Every bucket has a distinct non-empty metrics name.
  std::set<std::string> names;
  for (std::size_t b = 0; b < obs::kProfileBucketCount; ++b) {
    const auto n = obs::bucket_name(static_cast<ProfileBucket>(b));
    EXPECT_FALSE(n.empty());
    names.insert(std::string(n));
  }
  EXPECT_EQ(names.size(), obs::kProfileBucketCount);
}

TEST(Profiler, TaskAndEpochAttributionIsExact) {
  // note_task takes explicit durations, so attribution is checkable
  // exactly; a sample freezes the counters at its virtual time.
  obs::Profiler p;
  p.note_task(100);
  p.note_task(20);
  p.note_task(30);
  EXPECT_EQ(p.totals().tasks, 3u);
  EXPECT_EQ(p.totals().busy_ns, 150u);
  p.sample(10);
  p.note_task(10);
  EXPECT_EQ(p.samples().back().counters.busy_ns, 150u);
  EXPECT_EQ(p.totals().busy_ns, 160u);

  p.reset();
  EXPECT_EQ(p.totals().tasks, 0u);
  EXPECT_EQ(p.totals().busy_ns, 0u);
  EXPECT_TRUE(p.samples().empty());

  // Attached to a scheduler, the profiler counts every task it runs and
  // samples at the end of each run.
  sim::Scheduler sched;
  sched.set_profiler(&p);
  for (int i = 0; i < 5; ++i) sched.after(i, [] {});
  sched.every(2, [] {});
  sched.run_until(10);
  EXPECT_EQ(p.totals().tasks, sched.executed_events());
  EXPECT_EQ(p.totals().tasks, 10u);  // 5 one-shots + ticks at 2, 4, 6, 8, 10
  ASSERT_EQ(p.samples().size(), 1u);
  EXPECT_EQ(p.samples().back().t, 10);
  sched.set_profiler(nullptr);
}

TEST(Profiler, ScopeNestingChargesSelfTime) {
  // An inner scope pauses its parent: after running transport work
  // inside a broker-route scope, both buckets carry time and no bucket
  // was double-charged (their sum can't exceed the total elapsed wall
  // time, which double-counting would make possible).
  obs::Profiler p;
  const auto spin = [] {
    const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(200);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  const auto wall0 = std::chrono::steady_clock::now();
  {
    obs::Profiler::Scope route(&p, obs::ProfileBucket::kBrokerRoute);
    spin();
    {
      obs::Profiler::Scope wire(&p, obs::ProfileBucket::kTransport);
      spin();
    }
    spin();
  }
  const auto elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall0)
          .count());

  const auto& c = p.totals();
  const std::uint64_t route_ns =
      c.bucket_ns[static_cast<std::size_t>(obs::ProfileBucket::kBrokerRoute)];
  const std::uint64_t wire_ns =
      c.bucket_ns[static_cast<std::size_t>(obs::ProfileBucket::kTransport)];
  EXPECT_GT(route_ns, 0u);
  EXPECT_GT(wire_ns, 0u);
  EXPECT_LE(route_ns + wire_ns, elapsed_ns);

  // A null profiler makes the scope an inert no-op.
  obs::Profiler::Scope null_scope(nullptr, obs::ProfileBucket::kStore);
}

TEST(Profiler, SampleRingHonorsRetention) {
  obs::Profiler p;
  p.set_sample_retention(3);
  for (int i = 1; i <= 7; ++i) {
    p.note_task(10);
    p.sample(i * 100);
  }
  ASSERT_EQ(p.samples().size(), 3u);
  EXPECT_EQ(p.samples().front().t, 500);
  EXPECT_EQ(p.samples().back().t, 700);
  // Samples are cumulative: the newest carries all 7 tasks.
  EXPECT_EQ(p.samples().back().counters.tasks, 7u);
}

TEST(Profiler, OverlayMaintenanceChargesOverlayBucketWithoutSpans) {
  // Leaf-set upkeep runs from the maintenance timer, outside any trace:
  // its scopes charge the overlay bucket and record no spans.
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(16, duration::millis(5));
  sim::Network net(sched, topo);
  net.enable_tracing();
  overlay::OverlayNetwork overlay(net);
  std::vector<sim::HostId> hosts;
  for (sim::HostId h = 0; h < 16; ++h) hosts.push_back(h);
  overlay.build_ring(hosts);
  net.enable_profiling();
  sched.run_for(duration::seconds(60));  // two maintenance periods
  EXPECT_GT(net.profiler()->totals().bucket_ns[static_cast<std::size_t>(
                obs::ProfileBucket::kOverlay)],
            0u);
  EXPECT_TRUE(net.tracer()->spans().empty());
}

TEST(Profiler, SubscribeChargesBrokerRouteNotMatch) {
  // Installing a subscription, covering checks included, is routing
  // work: on a one-broker bus it charges broker_route, and with no
  // publication in flight nothing reaches broker_match.
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(2, duration::millis(5));
  sim::Network net(sched, topo);
  pubsub::SienaNetwork ps(net, {0});
  ps.attach_client(1, 0);
  net.enable_profiling();
  ps.subscribe(1, Filter().where("type", Op::kEq, "temperature"), [](const Event&) {});
  sched.run();
  const auto& ns = net.profiler()->totals().bucket_ns;
  EXPECT_GT(ns[static_cast<std::size_t>(obs::ProfileBucket::kBrokerRoute)], 0u);
  EXPECT_EQ(ns[static_cast<std::size_t>(obs::ProfileBucket::kBrokerMatch)], 0u);
}

TEST(Metrics, ExportProfilerEmitsTotalsAndPerSlotKeys) {
  // One counter set, exported under "<ns>.total": tasks, busy time and
  // one key per subsystem bucket.
  obs::Profiler p;
  p.note_task(5000);
  sim::MetricsRegistry reg;
  obs::export_profiler(reg, "sched", p);
  EXPECT_EQ(reg.counter("sched.total.tasks"), 1u);
  EXPECT_EQ(reg.counter("sched.total.busy_us"), 5u);
  EXPECT_EQ(reg.counter("sched.total.broker_route_us"), 0u);
  EXPECT_EQ(reg.counters().size(), 2 + obs::kProfileBucketCount);
}

// --- MetricsHub timeline ---

TEST(Metrics, HubTimelineSamplesAtVirtualInterval) {
  sim::Scheduler sched;
  std::uint64_t ticks = 0;
  sched.every(duration::millis(1), [&ticks] { ++ticks; });

  obs::MetricsHub hub;
  hub.add_source([&ticks](sim::MetricsRegistry& reg) { reg.add("app.ticks", ticks); });
  hub.start_timeline(sched, duration::millis(10), /*retention=*/4);
  EXPECT_TRUE(hub.timeline_active());
  sched.run_for(duration::millis(100));

  // 10 samples fired; the ring kept the last 4, at 70/80/90/100 ms.
  ASSERT_EQ(hub.timeline().size(), 4u);
  EXPECT_EQ(hub.timeline().front().t, duration::millis(70));
  EXPECT_EQ(hub.timeline().back().t, duration::millis(100));
  // Each entry snapshots the sources at its virtual time.  At a shared
  // timestamp the sampler (older periodic task) runs before the tick
  // task, so the 70 ms entry still sees 69 completed ticks.
  EXPECT_EQ(hub.timeline().front().metrics.counter("app.ticks"), 69u);
  EXPECT_EQ(hub.timeline().back().metrics.counter("app.ticks"), 99u);

  std::ostringstream out;
  hub.write_timeline_jsonl(out);
  const std::string jsonl = out.str();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 4);
  EXPECT_NE(jsonl.find("{\"t_us\":70000,\"metrics\":"), std::string::npos);

  // Stopping cancels the periodic task: time advances, no new entries.
  hub.stop_timeline();
  EXPECT_FALSE(hub.timeline_active());
  sched.run_for(duration::millis(50));
  EXPECT_EQ(hub.timeline().size(), 4u);
  hub.clear_timeline();
  EXPECT_TRUE(hub.timeline().empty());
}

TEST(Metrics, FacadeTimelineKnobsRecordSnapshots) {
  gloss::ActiveArchitecture::Config cfg;
  cfg.hosts = 8;
  cfg.brokers = 2;
  cfg.regions = 2;
  cfg.settle_time = duration::seconds(5);
  cfg.profiling = true;
  gloss::ActiveArchitecture arch(cfg);
  // Started right after construction: the whole facade is sampled.
  arch.metrics_hub().start_timeline(arch.scheduler(), duration::seconds(1), 8);
  arch.run_for(duration::seconds(20));

  ASSERT_EQ(arch.metrics_hub().timeline().size(), 8u);
  const auto& last = arch.metrics_hub().timeline().back();
  // Profiling knob wired through: scheduler attribution rides along.
  EXPECT_GT(last.metrics.counter("sched.total.tasks"), 0u);
  // And the periodic advertiser kept the bus busy across the window.
  EXPECT_GT(last.metrics.counter("net.messages_sent"), 0u);
}

// --- Validator: counter tracks ---

TEST(TraceValidator, AcceptsCounterOnlyTrace) {
  // A profiling-only export (no tracing) has counter tracks but no
  // spans; that must validate.
  std::istringstream in(R"({"traceEvents":[
    {"name":"process_name","ph":"M","pid":1000000,"args":{"name":"scheduler"}},
    {"name":"thread_name","ph":"M","pid":1000000,"tid":0,"args":{"name":"shard 0"}},
    {"name":"sched","ph":"C","ts":0,"pid":1000000,"tid":0,"args":{"busy_us":1}},
    {"name":"sched","ph":"C","ts":5,"pid":1000000,"tid":0,"args":{"busy_us":2}}]})");
  const auto problems = obs::validate_chrome_trace(in);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(TraceValidator, RejectsBackwardsCounterTimestamps) {
  std::istringstream in(R"({"traceEvents":[
    {"name":"process_name","ph":"M","pid":1,"args":{"name":"p"}},
    {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"t"}},
    {"name":"sched","ph":"C","ts":10,"pid":1,"tid":0,"args":{"busy_us":1}},
    {"name":"sched","ph":"C","ts":4,"pid":1,"tid":0,"args":{"busy_us":2}}]})");
  EXPECT_FALSE(obs::validate_chrome_trace(in).empty());
}

TEST(TraceValidator, RejectsOrphanCounterTrack) {
  // Counter events whose (pid, tid) no thread_name metadata claims.
  std::istringstream in(R"({"traceEvents":[
    {"name":"sched","ph":"C","ts":0,"pid":1,"tid":9,"args":{"busy_us":1}}]})");
  const auto problems = obs::validate_chrome_trace(in);
  ASSERT_FALSE(problems.empty());
}

TEST(TraceValidator, RejectsNonNumericCounterValues) {
  std::istringstream in(R"({"traceEvents":[
    {"name":"process_name","ph":"M","pid":1,"args":{"name":"p"}},
    {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"t"}},
    {"name":"sched","ph":"C","ts":0,"pid":1,"tid":0,"args":{"busy_us":"lots"}}]})");
  EXPECT_FALSE(obs::validate_chrome_trace(in).empty());
}

}  // namespace
}  // namespace aa
