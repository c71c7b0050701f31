// C6 — §4.6: "A latency-reduction policy might ... replicate
// progressively more of a user's personal data at storage units
// geographically close to the user's current location, the longer that
// the user remained at that location.  A backup policy might seek to
// replicate data on a geographically remote storage unit as soon as
// possible after it was created."
//
// A mobile user dwells in one region, then moves; personal-data read
// latency is sampled over time with the latency-reduction policy on and
// off.  The backup policy is measured by killing the origin region and
// checking data survival.
#include <memory>

#include "bench_util.hpp"
#include "sim/metrics.hpp"
#include "deploy/policies.hpp"
#include "pubsub/siena_network.hpp"
#include "sim/churn.hpp"

using namespace aa;

namespace {

struct Fixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::TransitStubTopology> topo;
  sim::Network net;
  pubsub::SienaNetwork bus;
  overlay::OverlayNetwork overlay;
  storage::ObjectStore store;
  std::map<sim::HostId, std::string> regions;
  RegionMap geo;

  explicit Fixture(int replicas = 2)
      : topo(std::make_shared<sim::TransitStubTopology>(32, ts())),
        net(sched, topo),
        bus(net, {0, 1, 2, 3}),
        overlay(net, ov()),
        store(net, overlay, st(replicas)) {
    bench::must(bus.connect_tree());
    std::vector<sim::HostId> hosts;
    for (sim::HostId h = 0; h < 32; ++h) {
      hosts.push_back(h);
      regions[h] = "r" + std::to_string(topo->region_of(h));
    }
    overlay.build_ring(hosts);
    store.sync_hosts();
    for (int r = 0; r < 4; ++r) {
      geo.add(GeoRegion{"r" + std::to_string(r), r * 10.0, r * 10.0 + 10.0, -5.0, 5.0});
    }
  }
  static sim::TransitStubTopology::Params ts() {
    sim::TransitStubTopology::Params p;
    p.regions = 4;
    return p;
  }
  static overlay::OverlayNetwork::Params ov() {
    overlay::OverlayNetwork::Params p;
    p.maintenance_period = duration::seconds(10);
    return p;
  }
  static storage::ObjectStore::Params st(int replicas) {
    storage::ObjectStore::Params p;
    p.replicas = replicas;
    p.promiscuous_cache = false;  // isolate the policy's effect
    return p;
  }

  /// Mean latency for the user's device (a host in `region`) to read
  /// all personal objects, sequentially.
  double read_latency_ms(const std::string& region, const std::vector<ObjectId>& ids) {
    sim::HostId device = sim::kNoHost;
    for (const auto& [h, r] : regions) {
      if (r == region) {
        device = h;
        break;
      }
    }
    sim::Histogram lat;
    for (const ObjectId& id : ids) {
      const SimTime start = sched.now();
      store.get(device, id, [&](Result<Bytes> r) {
        if (r.is_ok()) lat.record(to_millis(sched.now() - start));
      });
      sched.run_for(duration::seconds(2));
    }
    return lat.mean();
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::headline("C6 (§4.6)", "data placement policies: latency reduction + remote backup");
  bench::Snapshot snap("c6", argc, argv);

  std::printf("\n(a) Latency-reduction policy: personal-data read latency while the\n"
              "    user dwells in region r2 (policy sweeps every 30 s, 1 object/sweep):\n");
  bench::Table table({"dwell min", "policy off ms", "policy on ms", "migrations"});

  for (int dwell_minutes : {1, 3, 6}) {
    double off_ms = 0, on_ms = 0;
    std::uint64_t migrations = 0;
    for (bool enabled : {false, true}) {
      Fixture f;
      deploy::PersonalDataDirectory directory;
      std::vector<ObjectId> ids;
      Rng rng(41);
      for (int i = 0; i < 6; ++i) {
        // Personal data created "at home" in r0.
        Bytes data(1024);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
        ids.push_back(f.store.put(0, std::move(data)));
      }
      f.sched.run_for(duration::seconds(5));
      for (const auto& id : ids) directory.add("bob", id);

      std::unique_ptr<deploy::LatencyReductionPolicy> policy;
      if (enabled) {
        deploy::LatencyReductionPolicy::Params lp;
        lp.policy_host = 1;
        lp.sweep_period = duration::seconds(30);
        lp.objects_per_sweep = 1;
        policy = std::make_unique<deploy::LatencyReductionPolicy>(
            f.net, f.bus, f.store, directory, f.regions, f.geo, lp);
        f.sched.run_for(duration::seconds(2));
      }

      // Bob arrives in r2 and keeps reporting his location.
      for (int m = 0; m < dwell_minutes * 2; ++m) {
        event::Event loc("user-location");
        loc.set("user", "bob").set("lat", 25.0).set("lon", 0.0);
        f.bus.publish(6, loc);
        f.sched.run_for(duration::seconds(30));
      }

      const double ms = f.read_latency_ms("r2", ids);
      if (enabled) {
        on_ms = ms;
        migrations = policy->migrations();
      } else {
        off_ms = ms;
      }
    }
    table.row({bench::fmt("%d", dwell_minutes), bench::fmt("%.1f", off_ms),
               bench::fmt("%.1f", on_ms), bench::fmt("%llu", (unsigned long long)migrations)});
    snap.add_scaled(bench::fmt("latency.dwell%dm.off_ms", dwell_minutes), off_ms);
    snap.add_scaled(bench::fmt("latency.dwell%dm.on_ms", dwell_minutes), on_ms);
    snap.add(bench::fmt("latency.dwell%dm.migrations", dwell_minutes), migrations);
  }

  std::printf("\n(b) Backup policy: origin region r0 fails entirely; is the data still\n"
              "    readable from elsewhere?\n");
  bench::Table backup_table({"backup", "survived", "of"});
  for (bool enabled : {false, true}) {
    // Single-copy storage: without the backup policy the only replica
    // of an r0-rooted object lives in r0.
    Fixture f(/*replicas=*/1);
    deploy::BackupPolicy backup(f.net, f.overlay, f.store, f.regions);
    std::vector<ObjectId> ids;
    const auto r0_hosts = [&] {
      std::vector<sim::HostId> v;
      for (const auto& [h, r] : f.regions) {
        if (r == "r0") v.push_back(h);
      }
      return v;
    }();
    // Worst case for geographic diversity: objects rooted in r0, so the
    // single DHT copy lives in r0.  Select ids by the oracle.
    Rng rng(43);
    int created = 0;
    while (created < 5) {
      const ObjectId id = rng.uid();
      if (f.regions[f.overlay.true_root(id).host] != "r0") continue;
      f.store.put_named(r0_hosts[0], id, to_bytes("r0-data-" + std::to_string(created)));
      f.sched.run_for(duration::seconds(2));
      ids.push_back(id);
      if (enabled) backup.object_created(r0_hosts[0], id);
      f.sched.run_for(duration::seconds(2));
      ++created;
    }

    // r0 burns down: every host in the region dies (including whatever
    // DHT roots lived there); reads must be served by replicas that
    // ended up elsewhere.
    sim::ChurnInjector churn(f.net, {});
    for (sim::HostId h : r0_hosts) churn.kill(h, false);
    f.sched.run_for(duration::seconds(60));  // let the overlay repair routes

    int survived = 0;
    for (const ObjectId& id : ids) {
      sim::HostId reader = 1;  // r1 host
      bool ok = false;
      f.store.get(reader, id, [&](Result<Bytes> r) { ok = r.is_ok(); });
      f.sched.run_for(duration::seconds(15));
      if (ok) ++survived;
    }
    backup_table.row({enabled ? "on" : "off", bench::fmt("%d", survived),
                      bench::fmt("%zu", ids.size())});
    const std::string key = enabled ? "backup.on" : "backup.off";
    snap.add(key + ".survived", static_cast<std::uint64_t>(survived));
    snap.add(key + ".objects", ids.size());
  }

  std::printf("\nShape check: the longer the user dwells, the more of their data\n"
              "is region-local and the lower the read latency (policy on), while\n"
              "policy-off latency stays at the wide-area cost; with the backup\n"
              "policy, data survives the loss of its entire origin region.\n");
  return snap.write() ? 0 : 1;
}
