// Tests for resource advertisement/monitoring, placement constraints,
// the evolution engine's repair loop, and the data placement policies.
#include <gtest/gtest.h>

#include <memory>

#include "deploy/evolution.hpp"
#include "deploy/policies.hpp"
#include "pubsub/siena_network.hpp"
#include "sim/churn.hpp"

namespace aa::deploy {
namespace {

using event::Event;
using event::Filter;
using event::Op;

struct Fixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::Topology> topo;
  sim::Network net;
  pubsub::SienaNetwork bus;
  bundle::ThinServerRuntime runtime{net, "secret"};
  bundle::BundleDeployer deployer{net, runtime};
  int installs = 0;

  explicit Fixture(std::size_t hosts = 16)
      : topo(std::make_shared<sim::UniformTopology>(hosts, duration::millis(5))),
        net(sched, topo),
        bus(net, {0, 1}) {
    (void)bus.connect(0, 1);
    runtime.register_installer("svc", [this](const bundle::CodeBundle&, sim::HostId) {
      ++installs;
      return Result<std::function<void()>>(std::function<void()>([]() {}));
    });
    for (sim::HostId h = 0; h < hosts; ++h) {
      runtime.start_server(h, {"run.svc"});
    }
  }

  bundle::CodeBundle prototype() {
    bundle::CodeBundle b("svc-proto", "svc", xml::Element("config"));
    b.require_capability("run.svc");
    return b;
  }
};

// --- ResourceAdvertiser / ResourceView ---

TEST(Resource, AdvertsPopulateView) {
  Fixture f;
  ResourceAdvertiser adv(f.net, f.bus, duration::seconds(10));
  ResourceView view(f.bus, 0);
  adv.advertise(3, "r1", {"run.svc"}, 2048);
  adv.advertise(4, "r2", {"run.svc", "gpu"});
  f.sched.run_for(duration::seconds(1));

  const auto live = view.live(f.sched.now());
  ASSERT_EQ(live.size(), 2u);
  const auto r1 = view.live_in_region(f.sched.now(), "r1");
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0]->host, 3u);
  EXPECT_DOUBLE_EQ(r1[0]->storage_mb, 2048);
  EXPECT_TRUE(view.hosts().at(4).capabilities.contains("gpu"));
}

TEST(Resource, GracefulWithdrawRemovesFromView) {
  Fixture f;
  ResourceAdvertiser adv(f.net, f.bus, duration::seconds(10));
  ResourceView view(f.bus, 0);
  sim::HostId withdrawn = sim::kNoHost;
  view.on_withdraw = [&](sim::HostId h) { withdrawn = h; };
  adv.advertise(3, "r1", {});
  f.sched.run_for(duration::seconds(1));
  adv.withdraw(3);
  f.sched.run_for(duration::seconds(1));
  EXPECT_EQ(withdrawn, 3u);
  EXPECT_TRUE(view.live(f.sched.now()).empty());
}

TEST(Resource, AdvertTtlExpiresSilentHosts) {
  Fixture f;
  ResourceAdvertiser adv(f.net, f.bus, duration::seconds(10));
  ResourceView view(f.bus, 0, /*ttl=*/duration::seconds(30));
  adv.advertise(3, "r1", {});
  f.sched.run_for(duration::seconds(1));
  EXPECT_EQ(view.live(f.sched.now()).size(), 1u);
  // Host dies silently: adverts stop; TTL ages it out of the view.
  f.net.set_host_up(3, false);
  f.sched.run_for(duration::minutes(2));
  EXPECT_TRUE(view.live(f.sched.now()).empty());
}

TEST(Resource, FailureMonitorDetectsSilentCrash) {
  Fixture f;
  ResourceAdvertiser adv(f.net, f.bus, duration::seconds(5));
  ResourceView view(f.bus, 0);
  FailureMonitor monitor(f.net, f.bus, /*monitor_host=*/5, duration::seconds(5),
                         duration::seconds(2));
  adv.advertise(3, "r1", {});
  adv.advertise(4, "r1", {});
  f.sched.run_for(duration::seconds(8));  // monitor learns both hosts

  f.net.set_host_up(3, false);  // crash, no warning
  f.sched.run_for(duration::seconds(20));
  EXPECT_EQ(monitor.failures_detected(), 1);
  EXPECT_TRUE(view.hosts().at(3).withdrawn);
  EXPECT_FALSE(view.hosts().at(4).withdrawn);
}

// --- Constraints ---

TEST(Constraints, HostQualification) {
  PlacementConstraint c;
  c.region = "r1";
  c.required_capabilities = {"run.svc"};
  HostResources good{3, "r1", {"run.svc", "extra"}, 100, 0, false};
  HostResources wrong_region{4, "r2", {"run.svc"}, 100, 0, false};
  HostResources no_cap{5, "r1", {}, 100, 0, false};
  EXPECT_TRUE(host_qualifies(c, good));
  EXPECT_FALSE(host_qualifies(c, wrong_region));
  EXPECT_FALSE(host_qualifies(c, no_cap));
  c.region.clear();
  EXPECT_TRUE(host_qualifies(c, wrong_region));
}

// --- EvolutionEngine ---

struct EvolutionFixture : Fixture {
  ResourceAdvertiser adv{net, bus, duration::seconds(10)};
  EvolutionEngine engine;

  EvolutionFixture() : Fixture(16), engine(net, bus, runtime, deployer, params()) {
    for (sim::HostId h = 2; h < 16; ++h) {
      adv.advertise(h, h % 2 == 0 ? "r0" : "r1", {"run.svc"});
    }
    sched.run_for(duration::seconds(1));
  }
  static EvolutionEngine::Params params() {
    EvolutionEngine::Params p;
    p.engine_host = 0;
    p.control_period = duration::seconds(5);
    return p;
  }
};

TEST(Evolution, DeploysToSatisfyConstraint) {
  EvolutionFixture f;
  PlacementConstraint c;
  c.id = "five-in-r0";
  c.kind = "replication";
  c.min_instances = 5;  // the paper's example: "at least 5 pipeline
                        // components ... within a given geographical region"
  c.region = "r0";
  c.required_capabilities = {"run.svc"};
  c.prototype = f.prototype();
  f.engine.add_constraint(c);
  f.sched.run_for(duration::seconds(10));

  EXPECT_TRUE(f.engine.satisfied("five-in-r0"));
  EXPECT_EQ(f.engine.live_instances("five-in-r0"), 5);
  EXPECT_EQ(f.installs, 5);
  EXPECT_DOUBLE_EQ(f.engine.satisfaction_fraction(), 1.0);
}

TEST(Evolution, RepairsAfterGracefulDeparture) {
  EvolutionFixture f;
  PlacementConstraint c;
  c.id = "k3";
  c.kind = "svc";
  c.min_instances = 3;
  c.required_capabilities = {"run.svc"};
  c.prototype = f.prototype();
  f.engine.add_constraint(c);
  f.sched.run_for(duration::seconds(10));
  ASSERT_TRUE(f.engine.satisfied("k3"));

  // Gracefully retire a host that received an instance.
  sim::HostId victim = sim::kNoHost;
  for (sim::HostId h = 2; h < 16; ++h) {
    if (!f.runtime.installed_names(h).empty()) {
      victim = h;
      break;
    }
  }
  ASSERT_NE(victim, sim::kNoHost);
  f.adv.withdraw(victim);
  f.net.set_host_up(victim, false);
  f.sched.run_for(duration::seconds(30));

  EXPECT_TRUE(f.engine.satisfied("k3"));
  EXPECT_GE(f.engine.stats().violations_observed, 1u);
  EXPECT_GE(f.installs, 4);  // original 3 + at least 1 repair
}

TEST(Evolution, UnsatisfiableWithoutQualifyingHosts) {
  EvolutionFixture f;
  PlacementConstraint c;
  c.id = "impossible";
  c.kind = "svc";
  c.min_instances = 1;
  c.required_capabilities = {"quantum-coprocessor"};
  c.prototype = f.prototype();
  f.engine.add_constraint(c);
  f.sched.run_for(duration::seconds(20));
  EXPECT_FALSE(f.engine.satisfied("impossible"));
  EXPECT_DOUBLE_EQ(f.engine.satisfaction_fraction(), 0.0);
}

TEST(Evolution, RemoveConstraintRetiresInstances) {
  EvolutionFixture f;
  PlacementConstraint c;
  c.id = "tmp";
  c.kind = "svc";
  c.min_instances = 2;
  c.required_capabilities = {"run.svc"};
  c.prototype = f.prototype();
  f.engine.add_constraint(c);
  f.sched.run_for(duration::seconds(10));
  ASSERT_EQ(f.engine.live_instances("tmp"), 2);

  EXPECT_TRUE(f.engine.remove_constraint("tmp"));
  EXPECT_EQ(f.engine.stats().retirements, 2u);
  int remaining = 0;
  for (sim::HostId h = 0; h < 16; ++h) remaining += static_cast<int>(f.runtime.installed_names(h).size());
  EXPECT_EQ(remaining, 0);
}

TEST(Evolution, SpreadsLoadAcrossHosts) {
  EvolutionFixture f;
  for (int i = 0; i < 4; ++i) {
    PlacementConstraint c;
    c.id = "c" + std::to_string(i);
    c.kind = "svc";
    c.min_instances = 3;
    c.required_capabilities = {"run.svc"};
    c.prototype = f.prototype();
    c.prototype.set_name("proto-" + std::to_string(i));
    f.engine.add_constraint(c);
  }
  f.sched.run_for(duration::seconds(20));
  // 12 instances over 14 candidate hosts: no host should have 3+.
  for (sim::HostId h = 2; h < 16; ++h) {
    EXPECT_LE(f.runtime.installed_names(h).size(), 2u) << "host " << h;
  }
}

// --- Placement policies ---

struct PolicyFixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::TransitStubTopology> topo;
  sim::Network net;
  pubsub::SienaNetwork bus;
  overlay::OverlayNetwork overlay;
  storage::ObjectStore store;
  std::map<sim::HostId, std::string> regions;

  PolicyFixture()
      : topo(std::make_shared<sim::TransitStubTopology>(16, ts_params())),
        net(sched, topo),
        bus(net, {0, 1}),
        overlay(net, ov_params()),
        store(net, overlay, st_params()) {
    (void)bus.connect(0, 1);
    std::vector<sim::HostId> hosts;
    for (sim::HostId h = 0; h < 16; ++h) {
      hosts.push_back(h);
      regions[h] = "r" + std::to_string(topo->region_of(h));
    }
    overlay.build_ring(hosts);
    store.sync_hosts();  // overlay members joined after store creation
  }
  static sim::TransitStubTopology::Params ts_params() {
    sim::TransitStubTopology::Params p;
    p.regions = 4;
    return p;
  }
  static overlay::OverlayNetwork::Params ov_params() {
    overlay::OverlayNetwork::Params p;
    p.maintenance_period = 0;
    return p;
  }
  static storage::ObjectStore::Params st_params() {
    storage::ObjectStore::Params p;
    p.replicas = 2;
    return p;
  }
};

TEST(Policies, BackupLandsInDifferentRegion) {
  PolicyFixture f;
  BackupPolicy backup(f.net, f.overlay, f.store, f.regions);
  const ObjectId id = f.store.put(0, to_bytes("precious data"));
  f.sched.run();
  f.sched.run();
  backup.object_created(0, id);
  f.sched.run();
  EXPECT_EQ(backup.backups(), 1u);
  // Some replica now lives outside host 0's region.
  bool remote_copy = false;
  for (sim::HostId h = 0; h < 16; ++h) {
    if (f.regions[h] != f.regions[0] && f.store.node(h)->replica(id) != nullptr) {
      remote_copy = true;
    }
  }
  EXPECT_TRUE(remote_copy);
}

TEST(Policies, LatencyPolicyMigratesDataTowardUser) {
  PolicyFixture f;
  PersonalDataDirectory directory;
  // Bob's personal data: 3 objects.
  std::vector<ObjectId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(f.store.put(0, to_bytes("bob-data-" + std::to_string(i))));
  }
  f.sched.run();
  for (const auto& id : ids) directory.add("bob", id);

  RegionMap geo;  // map lat bands to region labels r0..r3
  for (int r = 0; r < 4; ++r) {
    geo.add(GeoRegion{"r" + std::to_string(r), r * 10.0, r * 10.0 + 10.0, -10.0, 10.0});
  }
  LatencyReductionPolicy::Params params;
  params.policy_host = 0;
  params.sweep_period = duration::seconds(10);
  params.objects_per_sweep = 1;
  LatencyReductionPolicy policy(f.net, f.bus, f.store, directory, f.regions, geo, params);
  f.sched.run_for(duration::seconds(1));  // let the subscription propagate

  // Bob shows up in region r2 and stays.
  Event loc("user-location");
  loc.set("user", "bob").set("lat", 25.0).set("lon", 0.0);
  f.bus.publish(5, loc);
  f.sched.run_for(duration::seconds(45));  // several sweeps

  EXPECT_EQ(policy.user_region("bob"), "r2");
  EXPECT_GE(policy.migrations(), 3u);
  // All three objects now have replicas on hosts in r2.
  int local = 0;
  for (const auto& id : ids) {
    for (sim::HostId h = 0; h < 16; ++h) {
      if (f.regions[h] == "r2" && f.store.node(h)->replica(id) != nullptr) {
        ++local;
        break;
      }
    }
  }
  EXPECT_EQ(local, 3);
}

TEST(Policies, MovingResetsProgression) {
  PolicyFixture f;
  PersonalDataDirectory directory;
  directory.add("bob", f.store.put(0, to_bytes("d")));
  f.sched.run();

  RegionMap geo;
  geo.add(GeoRegion{"r0", 0, 10, -10, 10});
  geo.add(GeoRegion{"r1", 10, 20, -10, 10});
  LatencyReductionPolicy::Params params;
  params.sweep_period = duration::seconds(10);
  LatencyReductionPolicy policy(f.net, f.bus, f.store, directory, f.regions, geo, params);
  f.sched.run_for(duration::seconds(1));

  Event loc("user-location");
  loc.set("user", "bob").set("lat", 5.0).set("lon", 0.0);
  f.bus.publish(5, loc);
  f.sched.run_for(duration::seconds(25));
  const auto first = policy.migrations();
  EXPECT_GE(first, 1u);

  Event loc2("user-location");
  loc2.set("user", "bob").set("lat", 15.0).set("lon", 0.0);  // moved to r1
  f.bus.publish(5, loc2);
  f.sched.run_for(duration::seconds(25));
  EXPECT_GT(policy.migrations(), first);  // re-replicated at the new region
}

}  // namespace
}  // namespace aa::deploy
