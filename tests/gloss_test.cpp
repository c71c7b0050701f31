// Integration tests through the ActiveArchitecture facade: the full
// stack — sensors/devices publishing onto the event bus, services
// deployed as matchlet bundles by the evolution engine, knowledge-base
// correlation, storage, and end-user delivery.
#include <gtest/gtest.h>

#include "event/filter_parser.hpp"
#include "gloss/active_architecture.hpp"
#include "sim/churn.hpp"

namespace aa::gloss {
namespace {

using event::Event;
using event::Filter;
using event::Op;

Filter f(const std::string& text) {
  auto r = event::parse_filter(text);
  EXPECT_TRUE(r.is_ok()) << text;
  return r.value_or(Filter());
}

ActiveArchitecture::Config small_config() {
  ActiveArchitecture::Config c;
  c.hosts = 16;
  c.regions = 4;
  c.brokers = 4;
  c.settle_time = duration::seconds(20);
  return c;
}

match::Rule hot_rule() {
  match::Rule rule;
  rule.name = "hot-alert";
  match::TriggerPattern t;
  t.alias = "temp";
  auto filt = event::parse_filter("type = temperature and celsius > 25");
  t.filter = filt.value();
  t.window = duration::minutes(5);
  rule.triggers.push_back(std::move(t));
  rule.emit.type = "heat-warning";
  rule.emit.sets.push_back(
      match::Assignment{"celsius", std::nullopt, "temp", "celsius"});
  return rule;
}

TEST(Gloss, ConstructsFullStack) {
  ActiveArchitecture arch(small_config());
  EXPECT_EQ(arch.overlay().node_hosts().size(), 16u);
  EXPECT_EQ(arch.bus().broker_hosts().size(), 4u);
  EXPECT_TRUE(arch.runtime().server_running(7));
  EXPECT_FALSE(arch.region_of(3).empty());
  // Every region is populated.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(arch.hosts_in_region("r" + std::to_string(r)).size(), 4u);
  }
}

TEST(Gloss, CodecAndBatchingKnobsReachTheBus) {
  // The facade knobs must actually change the wire path: binary +
  // batching yields fewer bytes and coalesced frames for the same
  // delivered events.
  auto run = [](const std::string& codec, std::int64_t batch_window_us) {
    auto cfg = small_config();
    cfg.codec = codec;
    cfg.batch_window_us = batch_window_us;
    ActiveArchitecture arch(cfg);
    int delivered = 0;
    arch.subscribe_user(10, f("type = tick"), [&](const Event&) { ++delivered; });
    arch.run_for(duration::seconds(5));
    arch.network().reset_stats();
    for (int i = 0; i < 20; ++i) {
      Event e("tick");
      e.set("n", i);
      arch.publish(12, e);
    }
    arch.run_for(duration::seconds(10));
    return std::make_pair(delivered, arch.metrics_snapshot());
  };

  const auto [xml_delivered, xml_metrics] = run("xml", -1);
  const auto [bin_delivered, bin_metrics] = run("binary", 0);
  EXPECT_EQ(xml_delivered, 20);
  EXPECT_EQ(bin_delivered, 20);
  EXPECT_LT(bin_metrics.counter("net.bytes_sent"), xml_metrics.counter("net.bytes_sent"));
  EXPECT_EQ(xml_metrics.counter("net.batch.frames"), 0u);
  EXPECT_GT(bin_metrics.counter("net.batch.frames"), 0u);
  EXPECT_LT(bin_metrics.counter("net.packets_sent"),
            bin_metrics.counter("net.messages_sent"));

  // XML frames carry the XML frame model: they save packets, not bytes.
  const auto [xml_batched_delivered, xml_batched_metrics] = run("xml", 0);
  EXPECT_EQ(xml_batched_delivered, 20);
  EXPECT_GT(xml_batched_metrics.counter("net.batch.frames"), 0u);
  EXPECT_LT(xml_batched_metrics.counter("net.packets_sent"),
            xml_batched_metrics.counter("net.messages_sent"));
  EXPECT_GE(xml_batched_metrics.counter("net.bytes_sent"),
            xml_metrics.counter("net.bytes_sent"));
}

TEST(Gloss, ServiceDeploysViaEvolutionAndMatches) {
  ActiveArchitecture arch(small_config());
  ServiceSpec spec;
  spec.name = "heat-watch";
  spec.input = f("type = temperature");
  spec.rules = {hot_rule()};
  spec.min_instances = 1;
  const std::string constraint_id = arch.deploy_service(spec);
  arch.run_for(duration::seconds(30));
  ASSERT_TRUE(arch.evolution().satisfied(constraint_id));

  // An end-user device subscribes to the service's output.
  std::vector<Event> warnings;
  arch.subscribe_user(10, f("type = heat-warning"),
                      [&](const Event& e) { warnings.push_back(e); });
  arch.run_for(duration::seconds(5));

  Event temp("temperature");
  temp.set("celsius", 31.0);
  arch.publish(12, temp);
  arch.run_for(duration::seconds(10));

  ASSERT_GE(warnings.size(), 1u);
  EXPECT_DOUBLE_EQ(warnings[0].get_real("celsius").value(), 31.0);

  Event mild("temperature");
  mild.set("celsius", 15.0);
  const auto before = warnings.size();
  arch.publish(12, mild);
  arch.run_for(duration::seconds(10));
  EXPECT_EQ(warnings.size(), before);  // below threshold: no warning
}

TEST(Gloss, ServiceUsesKnowledgeBase) {
  ActiveArchitecture arch(small_config());
  match::Fact pref;
  pref.set("kind", "preference").set("user", "bob").set("min_celsius", 18.0);
  arch.add_fact(pref);

  match::Rule rule;
  rule.name = "bob-likes-heat";
  match::TriggerPattern t;
  t.alias = "temp";
  t.filter = f("type = temperature");
  t.window = duration::minutes(5);
  rule.triggers.push_back(std::move(t));
  match::FactPattern fp;
  fp.alias = "pref";
  fp.filter = f("kind = preference and user = bob");
  rule.facts.push_back(std::move(fp));
  rule.joins.push_back(match::JoinCondition{match::Operand::ref("temp", "celsius"),
                                            Op::kGe,
                                            match::Operand::ref("pref", "min_celsius")});
  rule.emit.type = "bob-alert";
  rule.emit.sets.push_back(match::Assignment{"user", std::nullopt, "pref", "user"});

  ServiceSpec spec;
  spec.name = "bob-service";
  spec.input = f("type = temperature");
  spec.rules = {rule};
  arch.deploy_service(spec);
  arch.run_for(duration::seconds(30));

  std::vector<Event> alerts;
  arch.subscribe_user(9, f("type = bob-alert"), [&](const Event& e) { alerts.push_back(e); });
  arch.run_for(duration::seconds(5));

  Event warm("temperature");
  warm.set("celsius", 20.0);
  arch.publish(3, warm);
  arch.run_for(duration::seconds(10));
  ASSERT_GE(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].get_string("user").value(), "bob");
}

TEST(Gloss, RegionalServicePlacement) {
  ActiveArchitecture arch(small_config());
  ServiceSpec spec;
  spec.name = "regional";
  spec.input = f("type = temperature");
  spec.rules = {hot_rule()};
  spec.min_instances = 2;
  spec.region = "r1";
  const auto cid = arch.deploy_service(spec);
  arch.run_for(duration::seconds(30));
  ASSERT_TRUE(arch.evolution().satisfied(cid));
  // Instances only on r1 hosts.
  int in_r1 = 0, elsewhere = 0;
  for (sim::HostId h = 0; h < 16; ++h) {
    const auto names = arch.runtime().installed_names(h);
    if (names.empty()) continue;
    if (arch.region_of(h) == "r1") {
      in_r1 += static_cast<int>(names.size());
    } else {
      elsewhere += static_cast<int>(names.size());
    }
  }
  EXPECT_EQ(in_r1, 2);
  EXPECT_EQ(elsewhere, 0);
}

TEST(Gloss, ServiceSurvivesInstanceHostCrash) {
  ActiveArchitecture arch(small_config());
  ServiceSpec spec;
  spec.name = "resilient";
  spec.input = f("type = temperature");
  spec.rules = {hot_rule()};
  spec.min_instances = 1;
  const auto cid = arch.deploy_service(spec);
  arch.run_for(duration::seconds(30));
  ASSERT_TRUE(arch.evolution().satisfied(cid));

  // Find the instance host and crash it (not a broker and not the
  // evolution engine's host 0 so the control plane survives).
  sim::HostId victim = sim::kNoHost;
  for (sim::HostId h = 4; h < 16; ++h) {
    if (!arch.runtime().installed_names(h).empty()) {
      victim = h;
      break;
    }
  }
  if (victim == sim::kNoHost) GTEST_SKIP() << "instance landed on an infrastructure host";
  sim::ChurnInjector churn(arch.network(), {});
  churn.kill(victim, /*graceful=*/false);

  // The advert TTL ages the victim out of the resource view; the
  // control loop then redeploys elsewhere.  TTL is 5 virtual minutes.
  arch.run_for(duration::minutes(7));
  EXPECT_TRUE(arch.evolution().satisfied(cid));
}

TEST(Gloss, StorageIntegration) {
  ActiveArchitecture arch(small_config());
  Result<Bytes> got = Status(Code::kUnavailable, "pending");
  const ObjectId id = arch.store().put(2, to_bytes("profile of bob"));
  arch.run_for(duration::seconds(5));
  arch.store().get(11, id, [&](Result<Bytes> r) { got = std::move(r); });
  arch.run_for(duration::seconds(5));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(got.value()), "profile of bob");
}

TEST(Gloss, DiscoveryDeploysHandlerForNovelEventType) {
  ActiveArchitecture arch(small_config());
  arch.start_discovery(2);

  // A handler for "pollen" events is published into the code directory
  // — but no service handles pollen yet.
  match::Rule rule;
  rule.name = "pollen-alert";
  match::TriggerPattern t;
  t.alias = "p";
  t.filter = f("type = pollen and level > 5");
  t.window = duration::minutes(5);
  rule.triggers.push_back(std::move(t));
  rule.emit.type = "pollen-warning";
  rule.emit.sets.push_back(match::Assignment{"level", std::nullopt, "p", "level"});
  arch.publish_handler("pollen", {rule});
  arch.run_for(duration::seconds(10));

  std::vector<Event> warnings;
  arch.subscribe_user(11, f("type = pollen-warning"),
                      [&](const Event& e) { warnings.push_back(e); });
  arch.run_for(duration::seconds(5));

  // First pollen event: unknown type; triggers fetch + deploy.
  Event pollen("pollen");
  pollen.set("level", 9);
  arch.publish(7, pollen);
  arch.run_for(duration::seconds(30));
  ASSERT_NE(arch.discovery(), nullptr);
  EXPECT_EQ(arch.discovery()->stats().handlers_deployed, 1u);

  // Subsequent pollen events flow through the auto-deployed handler.
  arch.publish(7, pollen);
  arch.run_for(duration::seconds(30));
  ASSERT_GE(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].get_int("level").value(), 9);

  // Low levels filtered by the handler's rule.
  Event mild("pollen");
  mild.set("level", 2);
  const auto before = warnings.size();
  arch.publish(7, mild);
  arch.run_for(duration::seconds(20));
  EXPECT_EQ(warnings.size(), before);
}

TEST(Gloss, DiscoveryIgnoresInfrastructureTypes) {
  ActiveArchitecture arch(small_config());
  arch.start_discovery(2);
  arch.run_for(duration::minutes(2));  // adverts + fact updates flow
  // No lookups for infrastructure event classes.
  EXPECT_EQ(arch.discovery()->stats().lookups, 0u);
  match::Fact fact;
  fact.set("kind", "x");
  arch.add_fact(fact);
  arch.run_for(duration::seconds(10));
  EXPECT_EQ(arch.discovery()->stats().lookups, 0u);
}

TEST(Gloss, PublishStampsVirtualTime) {
  ActiveArchitecture arch(small_config());
  std::vector<Event> seen;
  arch.subscribe_user(5, f("type = ping"), [&](const Event& e) { seen.push_back(e); });
  arch.run_for(duration::seconds(2));
  const SimTime before = arch.scheduler().now();
  arch.publish(6, Event("ping"));
  arch.run_for(duration::seconds(5));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_GE(seen[0].time(), before);
}

}  // namespace
}  // namespace aa::gloss
