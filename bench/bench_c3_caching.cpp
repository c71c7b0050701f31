// C3 — §4.5/§3: "The more sophisticated P2P systems support promiscuous
// caching where data is free to be cached anywhere at any time ...
// crucial to the performance of the system if the fetching of remote
// data at every access is to be avoided", and the replication spectrum
// "from simple block copying to erasure-codes".
//
// Zipf-skewed reads over a wide-area object store; compare promiscuous
// caching on/off, replica-count sweep, and whole-object replication vs
// erasure coding at equal redundancy.
#include <memory>

#include "bench_util.hpp"
#include "sim/metrics.hpp"
#include "overlay/overlay_network.hpp"
#include "storage/object_store.hpp"

using namespace aa;

namespace {

struct RunResult {
  double mean_ms = 0, p95_ms = 0;
  double local_fraction = 0;
  std::uint64_t bytes = 0;
};

struct Setup {
  bool cache = true;
  int replicas = 3;
  bool erasure = false;
  int ec_data = 4, ec_parity = 2;
};

RunResult run(const Setup& setup, int objects, int reads) {
  sim::Scheduler sched;
  sim::TransitStubTopology::Params tp;
  tp.regions = 8;
  auto topo = std::make_shared<sim::TransitStubTopology>(64, tp);
  sim::Network net(sched, topo);
  overlay::OverlayNetwork::Params op;
  op.maintenance_period = 0;
  overlay::OverlayNetwork overlay(net, op);
  std::vector<sim::HostId> hosts;
  for (sim::HostId h = 0; h < 64; ++h) hosts.push_back(h);
  overlay.build_ring(hosts);

  storage::ObjectStore::Params sp;
  sp.promiscuous_cache = setup.cache;
  sp.cache_capacity = 64 * 1024;
  sp.replicas = setup.replicas;
  sp.erasure = setup.erasure;
  sp.ec_data = setup.ec_data;
  sp.ec_parity = setup.ec_parity;
  storage::ObjectStore store(net, overlay, sp);

  Rng rng(17);
  std::vector<ObjectId> ids;
  for (int i = 0; i < objects; ++i) {
    Bytes data(512 + rng.below(512));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    ids.push_back(store.put(static_cast<sim::HostId>(rng.below(64)), std::move(data)));
  }
  sched.run();
  net.reset_stats();

  sim::Histogram latency;
  ZipfSampler zipf(ids.size(), 0.9);
  int completed = 0;
  for (int i = 0; i < reads; ++i) {
    const auto reader = static_cast<sim::HostId>(rng.below(64));
    const ObjectId& id = ids[zipf.sample(rng)];
    const SimTime start = sched.now();
    store.get(reader, id, [&](Result<Bytes> r) {
      if (r.is_ok()) {
        latency.record(to_millis(sched.now() - start));
        ++completed;
      }
    });
    sched.run();  // sequential reads for exact latency attribution
  }

  RunResult r;
  r.mean_ms = latency.mean();
  r.p95_ms = latency.percentile(95);
  const auto& stats = store.stats();
  r.local_fraction = static_cast<double>(stats.local_hits) /
                     static_cast<double>(stats.gets > 0 ? stats.gets : 1);
  r.bytes = net.stats().bytes_sent;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::headline("C3 (§4.5)", "promiscuous caching + replication vs fetching remote data "
                               "at every access");
  bench::Snapshot snap("c3", argc, argv);

  const int objects = 150, reads = 600;
  std::printf("\n(a) Promiscuous caching ablation (3 replicas, Zipf(0.9) reads):\n");
  bench::Table cache_table({"caching", "mean ms", "p95 ms", "local hits", "bytes"});
  for (bool cache : {false, true}) {
    Setup s;
    s.cache = cache;
    const auto r = run(s, objects, reads);
    cache_table.row({cache ? "promiscuous" : "off", bench::fmt("%.1f", r.mean_ms),
                     bench::fmt("%.1f", r.p95_ms), bench::fmt("%.0f%%", r.local_fraction * 100),
                     bench::fmt("%llu", (unsigned long long)r.bytes)});
    const std::string key = cache ? "cache.promiscuous" : "cache.off";
    snap.add_scaled(key + ".mean_ms", r.mean_ms);
    snap.add_scaled(key + ".p95_ms", r.p95_ms);
    snap.add_scaled(key + ".local_fraction", r.local_fraction);
    snap.add(key + ".bytes", r.bytes);
  }

  std::printf("\n(b) Replica-count sweep (caching off, isolating placement):\n");
  bench::Table rep_table({"replicas", "mean ms", "p95 ms"});
  for (int k : {1, 3, 5}) {
    Setup s;
    s.cache = false;
    s.replicas = k;
    const auto r = run(s, objects, reads);
    rep_table.row({bench::fmt("%d", k), bench::fmt("%.1f", r.mean_ms),
                   bench::fmt("%.1f", r.p95_ms)});
    snap.add_scaled(bench::fmt("replicas%d.mean_ms", k), r.mean_ms);
    snap.add_scaled(bench::fmt("replicas%d.p95_ms", k), r.p95_ms);
  }

  std::printf("\n(c) Redundancy scheme at ~1.5x overhead: 3 whole copies vs 4+2 erasure:\n");
  bench::Table ec_table({"scheme", "mean ms", "p95 ms", "bytes"});
  {
    Setup whole;
    whole.cache = false;
    whole.replicas = 3;
    const auto r1 = run(whole, objects, reads);
    ec_table.row({"3x replicas", bench::fmt("%.1f", r1.mean_ms), bench::fmt("%.1f", r1.p95_ms),
                  bench::fmt("%llu", (unsigned long long)r1.bytes)});
    Setup ec;
    ec.cache = false;
    ec.erasure = true;
    const auto r2 = run(ec, objects, reads);
    ec_table.row({"4+2 erasure", bench::fmt("%.1f", r2.mean_ms), bench::fmt("%.1f", r2.p95_ms),
                  bench::fmt("%llu", (unsigned long long)r2.bytes)});
    snap.add_scaled("redundancy.whole.mean_ms", r1.mean_ms);
    snap.add("redundancy.whole.bytes", r1.bytes);
    snap.add_scaled("redundancy.erasure.mean_ms", r2.mean_ms);
    snap.add("redundancy.erasure.bytes", r2.bytes);
  }

  std::printf("\nShape check: promiscuous caching collapses hot-object latency\n"
              "(reads served locally or intercepted mid-route); more replicas\n"
              "shorten the route to the nearest copy; erasure coding trades\n"
              "storage overhead for a fragment-gather on every cold read —\n"
              "cheap to store, slower to fetch, as the paper's spectrum implies.\n");
  return snap.write() ? 0 : 1;
}
