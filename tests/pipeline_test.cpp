// Tests for the XML pipeline fabric: component wiring, intra- vs
// inter-node event flow (Figure 2), the standard component library,
// sensor wrappers, and bundle-driven pipeline installation.
#include <gtest/gtest.h>

#include <memory>

#include "bundle/deployer.hpp"
#include "pipeline/components.hpp"
#include "pipeline/installers.hpp"
#include "pipeline/sensors.hpp"
#include "pubsub/siena_network.hpp"

namespace aa::pipeline {
namespace {

using event::Event;
using event::Filter;
using event::Op;

struct Fixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::Topology> topo;
  sim::Network net;
  PipelineNetwork pipes;

  explicit Fixture(std::size_t hosts = 8)
      : topo(std::make_shared<sim::UniformTopology>(hosts, duration::millis(5))),
        net(sched, topo),
        pipes(net) {}

  ComponentRef sink(sim::HostId host, const std::string& name, std::vector<Event>& out) {
    return pipes.add(host, std::make_unique<SinkComponent>(
                               name, [&out](const Event& e) { out.push_back(e); }));
  }
};

Event temp(double celsius) {
  Event e("temperature");
  e.set("celsius", celsius);
  return e;
}

TEST(Pipeline, IntraNodeChainDelivers) {
  Fixture f;
  std::vector<Event> got;
  auto filter = f.pipes.add(
      0, std::make_unique<FilterComponent>("f", Filter().where("celsius", Op::kGt, 10.0)));
  auto sink = f.sink(0, "s", got);
  ASSERT_TRUE(f.pipes.connect(filter, sink).is_ok());

  f.pipes.inject(filter, temp(20.0));
  f.pipes.inject(filter, temp(5.0));
  f.sched.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].get_real("celsius").value(), 20.0);
  EXPECT_EQ(f.pipes.stats().intra_node_hops, 1u);
  EXPECT_EQ(f.pipes.stats().inter_node_hops, 0u);
}

TEST(Pipeline, InterNodeHopCrossesWireAsXml) {
  Fixture f;
  std::vector<Event> got;
  auto a = f.pipes.add(0, std::make_unique<TransformComponent>("t", [](const Event& e) {
    return std::vector<Event>{e};
  }));
  auto b = f.sink(3, "s", got);
  ASSERT_TRUE(f.pipes.connect(a, b).is_ok());
  const std::uint64_t renders_before = Event::serializations();
  f.pipes.inject(a, temp(1.5));
  f.sched.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], temp(1.5));
  EXPECT_EQ(f.pipes.stats().inter_node_hops, 1u);
  // Priced as the XML rendering plus the component name ("s") and an
  // 8-byte header, but never rendered on the way.
  EXPECT_EQ(Event::serializations() - renders_before, 0u);
  EXPECT_EQ(f.net.stats().bytes_sent, temp(1.5).to_xml_string().size() + 1 + 8);
}

TEST(Pipeline, FanOutToMultipleDownstreams) {
  Fixture f;
  std::vector<Event> got1, got2;
  auto src = f.pipes.add(0, std::make_unique<TransformComponent>("t", [](const Event& e) {
    return std::vector<Event>{e};
  }));
  auto s1 = f.sink(0, "s1", got1);
  auto s2 = f.sink(1, "s2", got2);
  ASSERT_TRUE(f.pipes.connect(src, s1).is_ok());
  ASSERT_TRUE(f.pipes.connect(src, s2).is_ok());
  f.pipes.inject(src, temp(7.0));
  f.sched.run();
  EXPECT_EQ(got1.size(), 1u);
  EXPECT_EQ(got2.size(), 1u);
}

TEST(Pipeline, RemoveComponentCountsUndeliverable) {
  Fixture f;
  std::vector<Event> got;
  auto a = f.pipes.add(0, std::make_unique<TransformComponent>("t", [](const Event& e) {
    return std::vector<Event>{e};
  }));
  auto b = f.sink(0, "s", got);
  ASSERT_TRUE(f.pipes.connect(a, b).is_ok());
  f.pipes.remove(b);
  f.pipes.inject(a, temp(1.0));
  f.sched.run();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(f.pipes.stats().undeliverable, 1u);
}

TEST(Pipeline, ConnectRequiresExistingUpstream) {
  Fixture f;
  EXPECT_FALSE(f.pipes.connect(ComponentRef{0, "ghost"}, ComponentRef{0, "x"}).is_ok());
}

TEST(Pipeline, TransformCanSynthesise) {
  Fixture f;
  std::vector<Event> got;
  auto doubler = f.pipes.add(0, std::make_unique<TransformComponent>("d", [](const Event& e) {
    Event out("hot-alert");
    out.set("celsius", e.get_real("celsius").value_or(0) * 2);
    return std::vector<Event>{out, out};
  }));
  auto sink = f.sink(0, "s", got);
  ASSERT_TRUE(f.pipes.connect(doubler, sink).is_ok());
  f.pipes.inject(doubler, temp(10.0));
  f.sched.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type(), "hot-alert");
  EXPECT_DOUBLE_EQ(got[0].get_real("celsius").value(), 20.0);
}

TEST(Pipeline, MovementThresholdDropsSmallMoves) {
  Fixture f;
  std::vector<Event> got;
  auto thresh = f.pipes.add(0, std::make_unique<MovementThresholdFilter>("m", 200.0));
  auto sink = f.sink(0, "s", got);
  ASSERT_TRUE(f.pipes.connect(thresh, sink).is_ok());

  auto loc = [](double lat, double lon) {
    Event e("user-location");
    e.set("user", "bob").set("lat", lat).set("lon", lon);
    return e;
  };
  f.pipes.inject(thresh, loc(56.3400, -2.7950));  // first: always passes
  f.pipes.inject(thresh, loc(56.3401, -2.7950));  // ~11 m: dropped
  f.pipes.inject(thresh, loc(56.3430, -2.7950));  // ~330 m from first: passes
  f.sched.run();
  EXPECT_EQ(got.size(), 2u);
}

TEST(Pipeline, MovementThresholdTracksUsersIndependently) {
  Fixture f;
  std::vector<Event> got;
  auto thresh = f.pipes.add(0, std::make_unique<MovementThresholdFilter>("m", 200.0));
  auto sink = f.sink(0, "s", got);
  ASSERT_TRUE(f.pipes.connect(thresh, sink).is_ok());
  for (const char* user : {"bob", "anna"}) {
    Event e("user-location");
    e.set("user", user).set("lat", 56.34).set("lon", -2.79);
    f.pipes.inject(thresh, e);
  }
  f.sched.run();
  EXPECT_EQ(got.size(), 2u);  // first sighting of each user passes
}

TEST(Pipeline, BufferFlushesByCount) {
  Fixture f;
  std::vector<Event> got;
  auto buffer = f.pipes.add(0, std::make_unique<BufferComponent>("b", 3, duration::hours(1)));
  auto sink = f.sink(0, "s", got);
  ASSERT_TRUE(f.pipes.connect(buffer, sink).is_ok());
  for (int i = 0; i < 7; ++i) f.pipes.inject(buffer, temp(i));
  f.sched.run_for(duration::minutes(1));
  EXPECT_EQ(got.size(), 6u);  // two flushes of 3; 7th still buffered
}

TEST(Pipeline, BufferFlushesByTimer) {
  Fixture f;
  std::vector<Event> got;
  auto buffer = f.pipes.add(0, std::make_unique<BufferComponent>("b", 100, duration::seconds(2)));
  auto sink = f.sink(0, "s", got);
  ASSERT_TRUE(f.pipes.connect(buffer, sink).is_ok());
  f.pipes.inject(buffer, temp(1.0));
  f.sched.run_for(duration::seconds(5));
  EXPECT_EQ(got.size(), 1u);
}

// --- Sensors ---

TEST(Sensors, TemperatureFollowsDiurnalCurve) {
  Fixture f;
  std::vector<Event> got;
  TemperatureSensor::Params p;
  p.base_celsius = 10.0;
  p.amplitude = 10.0;
  p.noise_stddev = 0.1;
  auto sensor = std::make_unique<TemperatureSensor>("t", duration::minutes(30), p);
  auto* raw = sensor.get();
  auto ref = f.pipes.add(0, std::move(sensor));
  auto sink = f.sink(0, "s", got);
  ASSERT_TRUE(f.pipes.connect(ref, sink).is_ok());
  raw->start();
  f.sched.run_for(duration::hours(24));
  raw->stop();
  ASSERT_GE(got.size(), 40u);
  double min = 1e9, max = -1e9;
  for (const auto& e : got) {
    const double c = e.get_real("celsius").value();
    min = std::min(min, c);
    max = std::max(max, c);
  }
  EXPECT_LT(min, 3.0);   // night trough near 0
  EXPECT_GT(max, 17.0);  // afternoon peak near 20
}

TEST(Sensors, GpsStaysInAreaAndMoves) {
  Fixture f;
  std::vector<Event> got;
  GpsSensor::Params p;
  auto sensor = std::make_unique<GpsSensor>("g", duration::seconds(10), p);
  auto* raw = sensor.get();
  auto ref = f.pipes.add(0, std::move(sensor));
  auto sink = f.sink(0, "s", got);
  ASSERT_TRUE(f.pipes.connect(ref, sink).is_ok());
  raw->start();
  f.sched.run_for(duration::minutes(30));
  ASSERT_GE(got.size(), 100u);
  GeoPoint first{got.front().get_real("lat").value(), got.front().get_real("lon").value()};
  GeoPoint last{got.back().get_real("lat").value(), got.back().get_real("lon").value()};
  for (const auto& e : got) {
    EXPECT_TRUE(p.area.contains({e.get_real("lat").value(), e.get_real("lon").value()}));
  }
  EXPECT_GT(geo_distance_m(first, last), 10.0);  // actually walked
}

TEST(Sensors, PresenceEmitsKnownPlaces) {
  Fixture f;
  std::vector<Event> got;
  PresenceSensor::Params p;
  auto sensor = std::make_unique<PresenceSensor>("pr", duration::seconds(30), p);
  auto* raw = sensor.get();
  auto ref = f.pipes.add(0, std::move(sensor));
  auto sink = f.sink(0, "s", got);
  ASSERT_TRUE(f.pipes.connect(ref, sink).is_ok());
  raw->start();
  f.sched.run_for(duration::minutes(30));
  ASSERT_GT(got.size(), 10u);
  for (const auto& e : got) {
    const std::string place = e.get_string("place").value();
    EXPECT_TRUE(place == "library" || place == "lab" || place == "cafe") << place;
  }
}

// --- Bus bridges ---

TEST(BusBridges, PublisherAndSubscriberRoundTrip) {
  Fixture f(8);
  pubsub::SienaNetwork bus(f.net, {6, 7});
  ASSERT_TRUE(bus.connect(6, 7).is_ok());

  std::vector<Event> got;
  auto pub = f.pipes.add(0, std::make_unique<BusPublisher>("pub", bus));
  auto sub = f.pipes.add(
      1, std::make_unique<BusSubscriber>("sub", bus, 1,
                                         Filter().where("type", Op::kEq, "temperature")));
  auto sink = f.sink(1, "s", got);
  ASSERT_TRUE(f.pipes.connect(sub, sink).is_ok());
  f.sched.run();  // let the subscription install

  f.pipes.inject(pub, temp(22.0));
  f.sched.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].get_real("celsius").value(), 22.0);
}

// --- Bundle-driven installation ---

struct InstallFixture : Fixture {
  bundle::ThinServerRuntime runtime{net, "secret"};
  bundle::BundleDeployer deployer{net, runtime};

  InstallFixture() : Fixture(8) {
    register_pipeline_installers(runtime, pipes, nullptr);
    for (sim::HostId h = 0; h < 8; ++h) runtime.start_server(h, {"run.pipeline"});
  }

  bundle::DeployResult install(sim::HostId host, const bundle::CodeBundle& b) {
    return runtime.install_local(host, b, b.seal("secret"));
  }
};

TEST(PipelineInstallers, FilterFromBundleWithConnect) {
  InstallFixture f;
  std::vector<Event> got;
  f.sink(2, "downstream", got);

  xml::Element config("config");
  config.set_attribute("filter", "celsius > 15");
  xml::Element link("connect");
  link.set_attribute("host", "2");
  link.set_attribute("component", "downstream");
  config.add_child(std::move(link));
  bundle::CodeBundle b("hotfilter", "pipe.filter", config);
  ASSERT_EQ(f.install(1, b), bundle::DeployResult::kInstalled);

  f.pipes.inject(ComponentRef{1, "hotfilter"}, temp(20.0));
  f.pipes.inject(ComponentRef{1, "hotfilter"}, temp(10.0));
  f.sched.run();
  EXPECT_EQ(got.size(), 1u);
}

TEST(PipelineInstallers, BadFilterRejected) {
  InstallFixture f;
  xml::Element config("config");
  config.set_attribute("filter", "celsius >");
  bundle::CodeBundle b("bad", "pipe.filter", config);
  EXPECT_EQ(f.install(1, b), bundle::DeployResult::kInstallerFailed);
}

TEST(PipelineInstallers, SensorBundleAutostarts) {
  InstallFixture f;
  std::vector<Event> got;
  f.sink(0, "collect", got);
  xml::Element config("config");
  config.set_attribute("period_ms", "60000");
  config.set_attribute("sensor_id", "w1");
  xml::Element link("connect");
  link.set_attribute("host", "0");
  link.set_attribute("component", "collect");
  config.add_child(std::move(link));
  bundle::CodeBundle b("weather", "pipe.sensor.temperature", config);
  ASSERT_EQ(f.install(0, b), bundle::DeployResult::kInstalled);
  f.sched.run_for(duration::minutes(10));
  EXPECT_GE(got.size(), 9u);
  EXPECT_EQ(got[0].get_string("sensor").value(), "w1");
}

TEST(PipelineInstallers, UninstallTearsDownComponent) {
  InstallFixture f;
  xml::Element config("config");
  config.set_attribute("filter", "celsius > 0");
  bundle::CodeBundle b("temp", "pipe.filter", config);
  ASSERT_EQ(f.install(3, b), bundle::DeployResult::kInstalled);
  EXPECT_TRUE(f.pipes.exists(ComponentRef{3, "temp"}));
  EXPECT_TRUE(f.runtime.uninstall(3, "temp"));
  EXPECT_FALSE(f.pipes.exists(ComponentRef{3, "temp"}));
}

TEST(PipelineInstallers, DeployerPushesMultiHostChain) {
  // sensor@3 -> filter@3 -> buffer@5 -> external sink@6, each stage a
  // bundle pushed from host 0 that names its downstream in <connect>.
  InstallFixture f;
  std::vector<Event> got;
  f.sink(6, "collector", got);

  auto stage = [](const std::string& name, const std::string& type, xml::Element config,
                  sim::HostId to_host, const std::string& to_component) {
    xml::Element link("connect");
    link.set_attribute("host", std::to_string(to_host));
    link.set_attribute("component", to_component);
    config.add_child(std::move(link));
    bundle::CodeBundle b(name, type, std::move(config));
    b.require_capability("run.pipeline");
    return b;
  };
  xml::Element sensor("config");
  sensor.set_attribute("period_ms", "60000");
  sensor.set_attribute("sensor_id", "w1");
  sensor.set_attribute("base", "25");
  sensor.set_attribute("amplitude", "2");
  xml::Element filter("config");
  filter.set_attribute("filter", "celsius > 15");
  xml::Element buffer("config");
  buffer.set_attribute("count", "2");
  buffer.set_attribute("period_ms", "300000");
  const std::vector<std::pair<sim::HostId, bundle::CodeBundle>> pushes = {
      {3, stage("roof", "pipe.sensor.temperature", sensor, 3, "hot")},
      {3, stage("hot", "pipe.filter", filter, 5, "batch")},
      {5, stage("batch", "pipe.buffer", buffer, 6, "collector")},
  };
  std::vector<bundle::DeployResult> acks;
  for (const auto& [host, b] : pushes) {
    f.deployer.push(0, host, b, [&](Result<bundle::DeployResult> r) {
      ASSERT_TRUE(r.is_ok());
      acks.push_back(r.value());
    });
  }
  f.sched.run_for(duration::seconds(2));
  EXPECT_EQ(acks, std::vector<bundle::DeployResult>(3, bundle::DeployResult::kInstalled));
  ASSERT_TRUE(f.pipes.exists(ComponentRef{3, "roof"}));
  ASSERT_TRUE(f.pipes.exists(ComponentRef{3, "hot"}));
  ASSERT_TRUE(f.pipes.exists(ComponentRef{5, "batch"}));

  // The sensor autostarts; warm readings cross the whole chain, and the
  // buffer flushes them in pairs.
  f.sched.run_for(duration::minutes(10));
  EXPECT_GE(got.size(), 2u);
  for (const auto& e : got) EXPECT_GT(e.get_real("celsius").value_or(-100), 15.0);
  EXPECT_GE(f.pipes.stats().inter_node_hops, 2u);
}

TEST(PipelineInstallers, RejectsMalformedNumbers) {
  InstallFixture f;
  auto bundle_with = [](const std::string& type, const std::string& key,
                        const std::string& value) {
    xml::Element config("config");
    config.set_attribute(key, value);
    return bundle::CodeBundle("c", type, config);
  };
  // A sensor period must be a whole, positive number: 0, negatives and
  // garbage are refused rather than clamped to a 1 us timer.
  for (const char* period :
       {"0", "-5", "abc", "", "60000x", "99999999999999999999", "9223372036854776"}) {
    SCOPED_TRACE(period);
    for (const char* type : {"pipe.sensor.temperature", "pipe.sensor.gps",
                             "pipe.sensor.presence"}) {
      EXPECT_EQ(f.install(1, bundle_with(type, "period_ms", period)),
                bundle::DeployResult::kInstallerFailed)
          << type;
    }
  }
  for (const char* value : {"abc", "", "12x", "1e999", "nan"}) {
    SCOPED_TRACE(value);
    EXPECT_EQ(f.install(1, bundle_with("pipe.sensor.temperature", "base", value)),
              bundle::DeployResult::kInstallerFailed);
    EXPECT_EQ(f.install(1, bundle_with("pipe.threshold", "meters", value)),
              bundle::DeployResult::kInstallerFailed);
    EXPECT_EQ(f.install(1, bundle_with("pipe.buffer", "count", value)),
              bundle::DeployResult::kInstallerFailed);
    EXPECT_EQ(f.install(1, bundle_with("pipe.sensor.gps", "seed", value)),
              bundle::DeployResult::kInstallerFailed);
  }
  // A connect host must be numeric: "x" does not link to host 0.
  xml::Element config("config");
  config.set_attribute("filter", "celsius > 0");
  xml::Element link("connect");
  link.set_attribute("host", "x");
  link.set_attribute("component", "downstream");
  config.add_child(std::move(link));
  EXPECT_EQ(f.install(1, bundle::CodeBundle("c", "pipe.filter", config)),
            bundle::DeployResult::kInstallerFailed);

  // A pushed bundle reports the failure to the pusher.
  Result<bundle::DeployResult> pushed = Status(Code::kUnavailable, "pending");
  f.deployer.push(0, 1, bundle_with("pipe.sensor.temperature", "period_ms", "abc"),
                  [&](Result<bundle::DeployResult> r) { pushed = std::move(r); });
  f.sched.run_for(duration::millis(100));
  ASSERT_TRUE(pushed.is_ok()) << pushed.status().to_string();
  EXPECT_EQ(pushed.value(), bundle::DeployResult::kInstallerFailed);

  // Nothing stayed installed and nothing was scheduled.
  EXPECT_FALSE(f.pipes.exists(ComponentRef{1, "c"}));
  EXPECT_EQ(f.sched.pending(), 0u);

  // A buffer's count and period cannot be negative either...
  EXPECT_EQ(f.install(1, bundle_with("pipe.buffer", "count", "-1")),
            bundle::DeployResult::kInstallerFailed);
  EXPECT_EQ(f.install(1, bundle_with("pipe.buffer", "period_ms", "-5")),
            bundle::DeployResult::kInstallerFailed);
  // ...but its period_ms="0" still means "no flush timer".
  EXPECT_EQ(f.install(1, bundle_with("pipe.buffer", "period_ms", "0")),
            bundle::DeployResult::kInstalled);
}

TEST(PipelineInstallers, ConnectToUnknownTargetAllowed) {
  // Links may be wired before the downstream component is deployed
  // (deployment order independence); events are undeliverable until it
  // appears.
  InstallFixture f;
  xml::Element config("config");
  config.set_attribute("filter", "celsius > 0");
  xml::Element link("connect");
  link.set_attribute("host", "5");
  link.set_attribute("component", "future");
  config.add_child(std::move(link));
  bundle::CodeBundle b("early", "pipe.filter", config);
  ASSERT_EQ(f.install(1, b), bundle::DeployResult::kInstalled);

  f.pipes.inject(ComponentRef{1, "early"}, temp(5.0));
  f.sched.run();
  // Host 5 has no pipeline runtime yet, so the wire message is dropped
  // at the network layer.
  EXPECT_GE(f.net.stats().messages_dropped, 1u);

  std::vector<Event> got;
  f.sink(5, "future", got);
  f.pipes.inject(ComponentRef{1, "early"}, temp(6.0));
  f.sched.run();
  EXPECT_EQ(got.size(), 1u);
}

}  // namespace
}  // namespace aa::pipeline
