// Deterministic chaos suite for the link fault model + reliable
// transport (sim/network.hpp, sim/reliable.hpp).
//
// Method: run the same pub/sub workload twice — once on a clean network
// over the raw datagram path (the oracle), once with link faults,
// mid-run partitions and the ack/retry broker transport — and require
// the per-client delivery digests to be identical.  Clients are
// co-located with their access brokers, so every client<->broker hop is
// loopback (exempt from faults by design) and the end-to-end guarantee
// reduces to the inter-broker reliable path.  Everything is driven by
// the discrete-event scheduler from seeded Rngs: a failing (seed,
// scenario) pair replays bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "pubsub/siena_network.hpp"
#include "sim/churn.hpp"
#include "sim/durable_disk.hpp"
#include "storage/durability.hpp"
#include "storage/object_store.hpp"
#include "wire/codec.hpp"

#include <span>

namespace aa {
namespace {

using event::Event;
using event::Filter;
using event::Op;
using pubsub::SienaNetwork;

// Per-client sorted delivery digest; duplicate deliveries show up as
// repeated keys, so the comparison is sensitive to both loss and
// duplication.
using Digest = std::map<sim::HostId, std::vector<std::string>>;

constexpr std::size_t kHosts = 8;
constexpr int kRounds = 25;

sim::ReliableParams chaos_reliable_params() {
  // Retries must span a 300 ms partition window comfortably: with these
  // settings the 30-retry budget covers tens of seconds.
  sim::ReliableParams rp;
  rp.initial_rto = duration::millis(40);
  rp.max_rto = duration::seconds(1);
  rp.max_retries = 30;
  return rp;
}

// Wire-path variation for the codec/batching equivalence matrix: which
// codec the whole bus negotiates, whether per-link batching coalesces
// sends, and whether the digest records full rendered payloads (the
// byte-identity check) instead of just keys.  Defaults reproduce the
// pre-codec scenario exactly — the traffic golden depends on that.
struct WireOptions {
  wire::WireCodec codec = wire::WireCodec::kXml;
  bool batching = false;
  bool payload_digest = false;
};

struct ScenarioResult {
  Digest digest;
  std::uint64_t deliveries = 0;
  std::uint64_t codec_roundtrip_failures = 0;
  std::uint64_t give_ups = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dropped_by_fault = 0;
  std::uint64_t deliver_spans = 0;  // only populated when tracing is on
  std::uint64_t bytes_sent = 0;     // post-quiesce traffic (publish phase)
  std::uint64_t messages_sent = 0;
  sim::NetworkStats net_stats;      // full counters (publish phase)
  pubsub::BrokerStats broker;       // summed over all brokers
  // Structural span content (tracing on): every span rendered to a
  // key — trace id, host, component, action, virtual times, detail, and
  // the *content* of its parent rather than the raw span id.
  std::multiset<std::string> span_multiset;
  std::string chrome_export;  // Network::export_chrome_trace (tracing on)
};

// Field-wise comparable projections; keep in sync with the structs.
auto net_stats_key(const sim::NetworkStats& s) {
  return std::tuple(s.messages_sent, s.messages_delivered, s.messages_dropped,
                    s.bytes_sent, s.duplicated, s.retransmits, s.dropped_by_fault);
}
auto broker_stats_key(const pubsub::BrokerStats& s) {
  return std::tuple(s.publications_routed, s.deliveries, s.subscriptions_forwarded,
                    s.subscriptions_suppressed, s.index_probes,
                    s.checkpoints, s.checkpoint_bytes, s.recoveries,
                    s.recovered_entries, s.sync_requests, s.sync_replies,
                    s.sync_retries, s.sync_give_ups);
}

// One full pub/sub run.  `mutate` (optional) is invoked right after the
// subscription tables quiesce, with the network and scheduler — chaos
// scenarios install faults and schedule partition cuts/heals there.
ScenarioResult run_scenario(bool reliable,
                            std::function<void(sim::Network&, sim::Scheduler&)> mutate,
                            bool tracing = false, bool profiling = false,
                            WireOptions wire = {}) {
  ScenarioResult result;
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(kHosts, duration::millis(5));
  sim::Network net(sched, topo);
  if (tracing) net.enable_tracing();
  if (profiling) net.enable_profiling();
  SienaNetwork ps(net, {0, 1, 2, 3, 4, 5, 6, 7}, wire.codec);
  EXPECT_TRUE(ps.connect_tree().is_ok());  // edges: 0-1, 0-2, 1-3, 1-4, 2-5, 2-6, 3-7
  if (reliable) ps.enable_reliable_transport(chaos_reliable_params());
  if (wire.batching) {
    const wire::Codec& frame_codec = wire::codec(wire.codec);
    net.enable_batching(0, [&frame_codec](std::span<const std::size_t> sizes) {
      return frame_codec.frame_size(sizes);
    });
  }
  // Per-delivery transparency check (payload mode): every delivered
  // event must survive a binary encode->decode round trip with its
  // canonical rendering intact.
  std::uint64_t& roundtrip_failures = result.codec_roundtrip_failures;

  Digest& digest = result.digest;
  for (sim::HostId h = 0; h < kHosts; ++h) {
    digest[h];  // every client appears, even one that receives nothing
    ps.attach_client(h, h);  // co-located: client hops are loopback
    ps.subscribe(h, Filter().where("type", Op::kEq, "t" + std::to_string(h % 4)),
                 [&digest, h, payload = wire.payload_digest,
                  &roundtrip_failures](const Event& e) {
                   if (!payload) {
                     digest[h].push_back(e.get_string("key").value_or("?"));
                     return;
                   }
                   const std::string rendered = e.to_xml_string();
                   BufWriter w;
                   e.to_binary(w);  // the binary deliver body
                   BufReader r(w.data());
                   auto back = Event::from_binary(r);
                   if (!back.is_ok() || back.value().to_xml_string() != rendered) {
                     ++roundtrip_failures;
                   }
                   digest[h].push_back(rendered);
                 });
  }
  sched.run();  // quiesce subscription propagation on a clean network
  net.reset_stats();

  if (mutate) mutate(net, sched);

  // 8 publishers x 25 rounds, one publish every 5 ms; each event's type
  // matches exactly two subscribers (hosts k and k+4).
  for (int r = 0; r < kRounds; ++r) {
    for (sim::HostId p = 0; p < kHosts; ++p) {
      const SimDuration when =
          duration::millis(5) * static_cast<SimDuration>(r * 8 + static_cast<int>(p) + 1);
      sched.after(when, [&ps, p, r] {
        Event e("t" + std::to_string((static_cast<int>(p) + r) % 4));
        e.set("key", "p" + std::to_string(p) + "r" + std::to_string(r));
        ps.publish(p, e);
      });
    }
  }
  sched.run();  // drain: retransmissions terminate once everything acks

  for (const auto& [h, keys] : digest) result.deliveries += keys.size();
  for (auto& [h, keys] : digest) std::sort(keys.begin(), keys.end());
  if (ps.reliable_transport() != nullptr) {
    result.give_ups = ps.reliable_transport()->stats().give_ups;
  }
  result.net_stats = net.stats();
  result.broker = ps.total_broker_stats();
  result.retransmits = result.net_stats.retransmits;
  result.dropped_by_fault = result.net_stats.dropped_by_fault;
  result.bytes_sent = result.net_stats.bytes_sent;
  result.messages_sent = result.net_stats.messages_sent;
  if (const obs::TraceCollector* tc = net.tracer()) {
    std::map<std::uint64_t, const obs::Span*> by_id;
    for (const obs::Span& s : tc->spans()) by_id[s.id] = &s;
    const auto content = [](const obs::Span& s) {
      return std::to_string(s.trace_id) + "|" + std::to_string(s.host) + "|" +
             s.component + "|" + s.action + "|" + std::to_string(s.start) + "|" +
             std::to_string(s.end) + "|" + s.detail;
    };
    for (const obs::Span& s : tc->spans()) {
      if (s.action == "deliver") ++result.deliver_spans;
      std::string key = content(s);
      const auto pit = by_id.find(s.parent);
      key += "|parent:" + (pit == by_id.end() ? std::string("-") : content(*pit->second));
      result.span_multiset.insert(std::move(key));
    }
    std::ostringstream out;
    net.export_chrome_trace(out);
    result.chrome_export = out.str();
  }
  return result;
}

ScenarioResult fault_free_oracle() {
  return run_scenario(/*reliable=*/false, nullptr);
}

// Schedules the chaos timeline for one seed: 10% drop (plus duplication
// and reordering) on every inter-broker link, and two partition windows
// that each sever one tree edge while publishing is in full swing.
void install_chaos(std::uint64_t seed, sim::Network& net, sim::Scheduler& sched) {
  sim::LinkFaults faults;
  faults.drop = 0.10;
  faults.duplicate = 0.05;
  faults.reorder = 0.10;
  faults.jitter = duration::millis(2);
  faults.seed = seed;
  net.set_link_faults(faults);
  // Cuts tree edge 0-2: subtree {2,5,6} is unreachable until heal.
  sched.after(duration::millis(200),
              [&net] { net.partition("cut-a", {0, 1, 3, 4, 7}, {2, 5, 6}); });
  sched.after(duration::millis(500), [&net] { net.heal("cut-a"); });
  // Cuts tree edge 0-1: subtree {1,3,4,7} is unreachable until heal.
  sched.after(duration::millis(600),
              [&net] { net.partition("cut-b", {0, 2, 5, 6}, {1, 3, 4, 7}); });
  sched.after(duration::millis(900), [&net] { net.heal("cut-b"); });
}

TEST(Chaos, SeedSweepDigestsMatchFaultFreeOracle) {
  const ScenarioResult oracle = fault_free_oracle();
  // 200 events, each matching exactly 2 subscriptions.
  ASSERT_EQ(oracle.deliveries, static_cast<std::uint64_t>(kRounds) * kHosts * 2);

  for (std::uint64_t seed = 1; seed <= 21; ++seed) {
    const ScenarioResult chaos =
        run_scenario(/*reliable=*/true, [seed](sim::Network& net, sim::Scheduler& sched) {
          install_chaos(seed, net, sched);
        });
    EXPECT_EQ(chaos.digest, oracle.digest) << "seed " << seed;
    EXPECT_EQ(chaos.give_ups, 0u) << "seed " << seed;
    // The faults were real: losses happened and retries papered over
    // them (guards against the sweep silently testing a clean network).
    EXPECT_GT(chaos.dropped_by_fault, 0u) << "seed " << seed;
    EXPECT_GT(chaos.retransmits, 0u) << "seed " << seed;
  }
}

// --- Codec / batching equivalence matrix --------------------------------
//
// The wire codec and per-link batching are transport details: for every
// {codec} x {batching} configuration, 21 chaos seeds must deliver the
// byte-identical payload set the fault-free oracle does, and every
// delivered event must survive a binary encode->decode round trip.
void sweep_codec_config(wire::WireCodec codec, bool batching) {
  WireOptions oracle_opts;
  oracle_opts.payload_digest = true;
  const ScenarioResult oracle =
      run_scenario(/*reliable=*/false, nullptr, false, false, oracle_opts);
  ASSERT_EQ(oracle.deliveries, static_cast<std::uint64_t>(kRounds) * kHosts * 2);
  ASSERT_EQ(oracle.codec_roundtrip_failures, 0u);

  WireOptions opts;
  opts.codec = codec;
  opts.batching = batching;
  opts.payload_digest = true;
  for (std::uint64_t seed = 1; seed <= 21; ++seed) {
    const ScenarioResult r = run_scenario(
        /*reliable=*/true,
        [seed](sim::Network& net, sim::Scheduler& sched) { install_chaos(seed, net, sched); },
        false, false, opts);
    EXPECT_EQ(r.digest, oracle.digest) << "seed " << seed;
    EXPECT_EQ(r.codec_roundtrip_failures, 0u) << "seed " << seed;
    EXPECT_EQ(r.give_ups, 0u) << "seed " << seed;
    EXPECT_GT(r.dropped_by_fault, 0u) << "seed " << seed;
    if (batching) {
      EXPECT_GT(r.net_stats.frames_sent, 0u) << "seed " << seed;
    }
  }
}

TEST(ChaosCodec, XmlUnbatchedMatrixMatchesOracle) {
  sweep_codec_config(wire::WireCodec::kXml, /*batching=*/false);
}
TEST(ChaosCodec, XmlBatchedMatrixMatchesOracle) {
  sweep_codec_config(wire::WireCodec::kXml, /*batching=*/true);
}
TEST(ChaosCodec, BinaryUnbatchedMatrixMatchesOracle) {
  sweep_codec_config(wire::WireCodec::kBinary, /*batching=*/false);
}
TEST(ChaosCodec, BinaryBatchedMatrixMatchesOracle) {
  sweep_codec_config(wire::WireCodec::kBinary, /*batching=*/true);
}

TEST(ChaosCodec, BinaryShrinksTrafficAndBatchingCutsPackets) {
  // Clean-network cross-checks on the same workload the golden pins:
  // the binary codec must at least halve bytes on the wire, and
  // batching must move multiple messages per physical packet, all
  // without touching the delivered payload set.
  WireOptions xml_opts;
  xml_opts.payload_digest = true;
  const ScenarioResult xml =
      run_scenario(/*reliable=*/false, nullptr, false, false, xml_opts);

  WireOptions bin_opts = xml_opts;
  bin_opts.codec = wire::WireCodec::kBinary;
  const ScenarioResult bin =
      run_scenario(/*reliable=*/false, nullptr, false, false, bin_opts);
  EXPECT_EQ(bin.digest, xml.digest);
  EXPECT_EQ(bin.messages_sent, xml.messages_sent);
  EXPECT_LE(bin.bytes_sent * 2, xml.bytes_sent)
      << "binary must be at least a 2x bytes-on-wire reduction";

  WireOptions batched = bin_opts;
  batched.batching = true;
  const ScenarioResult coalesced =
      run_scenario(/*reliable=*/false, nullptr, false, false, batched);
  EXPECT_EQ(coalesced.digest, xml.digest);
  EXPECT_GT(coalesced.net_stats.frames_sent, 0u);
  EXPECT_LT(coalesced.net_stats.packets_sent(), coalesced.net_stats.messages_sent);
  // Binary frames share one envelope across members: coalescing must
  // not cost bytes relative to standalone binary datagrams.
  EXPECT_LE(coalesced.bytes_sent, bin.bytes_sent);
}

TEST(Chaos, CleanNetworkTrafficBitIdenticalGolden) {
  // Golden pin for the event-representation refactor: the fault-free
  // scenario's traffic counters depend on every event's exact XML byte
  // length, so these constants (captured from the pre-COW std::map
  // representation) prove the wire form is bit-identical end to end.
  // Also the fan-out sizing guarantee: 200 published events cross 1208
  // packets, and none is rendered to XML — sizes are summed from the
  // attributes, once per payload the packet bodies share.
  const std::uint64_t renders_before = Event::serializations();
  const ScenarioResult oracle = fault_free_oracle();
  EXPECT_EQ(oracle.deliveries, 400u);
  EXPECT_EQ(oracle.bytes_sent, 126360u);
  EXPECT_EQ(oracle.messages_sent, 1208u);
  EXPECT_EQ(Event::serializations() - renders_before, 0u);

  // The same pin must hold with tracing enabled: trace stamps ride the
  // Event handle, never the shared payload or the wire form.
  const ScenarioResult traced = run_scenario(/*reliable=*/false, nullptr, /*tracing=*/true);
  EXPECT_EQ(traced.digest, oracle.digest);
  EXPECT_EQ(traced.bytes_sent, oracle.bytes_sent);
  EXPECT_EQ(traced.messages_sent, oracle.messages_sent);
}

TEST(Chaos, KilledLinkConvergesAfterRestore) {
  // Kill one tree edge outright mid-run (every packet dropped), restore
  // it later: the reliable path must deliver the full oracle digest.
  const ScenarioResult oracle = fault_free_oracle();
  const ScenarioResult chaos =
      run_scenario(/*reliable=*/true, [](sim::Network& net, sim::Scheduler& sched) {
        sched.after(duration::millis(150), [&net] {
          net.set_link_faults(0, 2, sim::LinkFaults{.drop = 1.0});
        });
        sched.after(duration::millis(450), [&net] { net.clear_link_faults(); });
      });
  EXPECT_EQ(chaos.digest, oracle.digest);
  EXPECT_EQ(chaos.give_ups, 0u);
  EXPECT_GT(chaos.retransmits, 0u);
}

TEST(Chaos, TracingIsPureObservation) {
  // Tracing must not perturb the simulation: the same chaos scenario
  // run with tracing on yields a bit-identical delivery digest and the
  // identical fault/retry counters — while actually recording spans
  // (one deliver span per delivery, duplicates deduped before spans).
  const auto scenario = [](sim::Network& net, sim::Scheduler& sched) {
    install_chaos(5, net, sched);
  };
  const ScenarioResult off = run_scenario(/*reliable=*/true, scenario, /*tracing=*/false);
  const ScenarioResult on = run_scenario(/*reliable=*/true, scenario, /*tracing=*/true);
  EXPECT_EQ(on.digest, off.digest);
  EXPECT_EQ(on.deliveries, off.deliveries);
  EXPECT_EQ(on.give_ups, off.give_ups);
  EXPECT_EQ(on.retransmits, off.retransmits);
  EXPECT_EQ(on.dropped_by_fault, off.dropped_by_fault);
  EXPECT_EQ(off.deliver_spans, 0u);
  EXPECT_EQ(on.deliver_spans, on.deliveries);
}

TEST(Chaos, RawPathDivergesUnderFaults) {
  // Control experiment: the same faults without the reliable transport
  // must lose deliveries — otherwise the sweep above proves nothing.
  const ScenarioResult oracle = fault_free_oracle();
  const ScenarioResult lossy =
      run_scenario(/*reliable=*/false, [](sim::Network& net, sim::Scheduler& sched) {
        install_chaos(5, net, sched);
      });
  EXPECT_NE(lossy.digest, oracle.digest);
  EXPECT_LT(lossy.deliveries, oracle.deliveries);
}

TEST(Chaos, OverlayGossipRetransmitsOnLossyLinks) {
  // Leaf-set gossip rides the "ov.r" reliable transport: under 20% link
  // loss the gossip keeps flowing (via retries) and the overlay still
  // routes correctly once the faults lift.
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(12, duration::millis(10));
  sim::Network net(sched, topo);
  overlay::OverlayNetwork::Params op;
  op.maintenance_period = duration::seconds(2);
  op.reliable_maintenance = true;
  op.reliable = chaos_reliable_params();
  overlay::OverlayNetwork overlay(net, op);
  std::vector<sim::HostId> hosts;
  for (sim::HostId h = 0; h < 12; ++h) hosts.push_back(h);
  overlay.build_ring(hosts);
  net.reset_stats();

  net.set_link_faults({.drop = 0.20, .seed = 77});
  sched.run_for(duration::seconds(20));
  EXPECT_GT(net.stats().dropped_by_fault, 0u);
  EXPECT_GT(net.stats().retransmits, 0u);
  net.clear_link_faults();

  int delivered = 0;
  for (sim::HostId h = 0; h < 12; ++h) {
    overlay.register_app("t", h,
                         [&delivered](const ObjectId&, const Bytes&,
                                      const overlay::RouteInfo&) { ++delivered; });
  }
  Rng rng(9);
  overlay.route(3, rng.uid(), "t", Bytes{});
  sched.run_for(duration::seconds(5));  // run(): maintenance never drains
  EXPECT_EQ(delivered, 1);
}

TEST(Chaos, StorageHealingRepairsThroughLossyLinks) {
  // Replica repair rides the "store.r" reliable transport: healing
  // pushes recreate lost copies even when every link drops 20% of
  // packets, and the repaired replica count converges to the target.
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(16, duration::millis(10));
  sim::Network net(sched, topo);
  overlay::OverlayNetwork::Params op;
  op.maintenance_period = 0;
  overlay::OverlayNetwork overlay(net, op);
  std::vector<sim::HostId> hosts;
  for (sim::HostId h = 0; h < 16; ++h) hosts.push_back(h);
  overlay.build_ring(hosts);

  storage::ObjectStore::Params p;
  p.replicas = 5;
  p.healing_period = duration::seconds(5);
  p.reliable_repair = true;
  p.reliable = chaos_reliable_params();
  storage::ObjectStore store(net, overlay, p);

  const ObjectId id = store.put(0, Bytes{'p', 'r', 'e', 'c', 'i', 'o', 'u', 's'});
  sched.run_for(duration::seconds(2));
  ASSERT_EQ(store.live_replicas(id), 5);

  net.set_link_faults({.drop = 0.20, .duplicate = 0.05, .seed = 0xC4A05});

  const auto root = overlay.true_root(id);
  sim::ChurnInjector churn(net, {});
  int killed = 0;
  for (sim::HostId h = 0; h < 16 && killed < 2; ++h) {
    if (h != root.host && store.node(h)->replica(id) != nullptr && net.host_up(h)) {
      churn.kill(h, false);
      ++killed;
    }
  }
  ASSERT_EQ(killed, 2);
  EXPECT_EQ(store.live_replicas(id), 3);

  sched.run_for(duration::seconds(30));  // several healing sweeps
  EXPECT_GE(store.live_replicas(id), 5);
  EXPECT_GT(store.stats().heal_pushes, 0u);
  EXPECT_GT(net.stats().retransmits, 0u);
}

// --- Crash-durable recovery: store node ---

// One store crash round: 10 content-addressed puts, a directed crash of
// a replica-holding host while journal flushes and repair pushes are
// still in flight, a rejoin with supervised recovery, then healing
// sweeps.  The fault-free oracle digest is the put payloads themselves
// (content addressing makes any corruption or loss visible at get()).
void store_crash_recover_round(storage::StoreTier tier, std::uint64_t seed) {
  SCOPED_TRACE("tier=" + std::string(storage::tier_name(tier)) +
               " seed=" + std::to_string(seed));
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(16, duration::millis(10));
  sim::Network net(sched, topo);
  overlay::OverlayNetwork::Params op;
  op.maintenance_period = 0;
  overlay::OverlayNetwork overlay(net, op);
  std::vector<sim::HostId> hosts;
  for (sim::HostId h = 0; h < 16; ++h) hosts.push_back(h);
  overlay.build_ring(hosts);

  sim::DiskParams dp;
  dp.fsync_latency = duration::millis(20);  // slow enough to crash mid-flush
  dp.seed = seed * 1001 + 7;
  sim::DurableDisk disk(net, dp);

  storage::ObjectStore::Params p;
  p.replicas = 3;
  p.healing_period = duration::seconds(5);
  p.reliable_repair = true;
  p.reliable = chaos_reliable_params();
  p.tier = tier;
  p.checkpoint_every = 4;
  p.disk = &disk;
  storage::ObjectStore store(net, overlay, p);
  sim::ChurnInjector churn(net, {});
  store.attach_churn(churn);

  std::map<ObjectId, Bytes> oracle;
  std::vector<ObjectId> ids;
  for (int i = 0; i < 10; ++i) {
    Bytes data(100 + 13 * static_cast<std::size_t>(i));
    for (std::size_t b = 0; b < data.size(); ++b) {
      data[b] = static_cast<std::uint8_t>(seed * 17 + static_cast<std::uint64_t>(i) + b);
    }
    const ObjectId id = Uid160(Sha1::hash(data));
    oracle[id] = data;
    ids.push_back(id);
    const sim::HostId from = static_cast<sim::HostId>(i);
    sched.after(duration::millis(5) * (i + 1), [&store, from, data] {
      store.put(from, data);
    });
  }

  // Mid-run crash: pick (at crash time) a live host that holds a
  // replica of the first object but roots none of the oracle objects,
  // so root-driven healing can refill it after rejoin in every tier.
  sim::HostId victim = sim::kNoHost;
  sched.after(duration::millis(120), [&] {
    const auto root = overlay.true_root(ids[0]);
    for (sim::HostId h : hosts) {
      if (h == root.host || !net.host_up(h)) continue;
      if (store.node(h)->replica(ids[0]) == nullptr) continue;
      bool roots_any = false;
      for (const ObjectId& id : ids) {
        overlay::OverlayNode* n = overlay.node_at(h);
        if (n == nullptr || !n->next_hop(id).has_value()) {
          roots_any = true;
          break;
        }
      }
      if (roots_any) continue;
      victim = h;
      break;
    }
    ASSERT_NE(victim, sim::kNoHost) << "no replica holder free of root duty";
    churn.kill(victim, /*graceful=*/false);
    sched.after(duration::millis(400), [&churn, &victim] { churn.revive(victim); });
    // Right after the rejoin (recovery hook has run, first healing
    // sweep has not): persistent tiers restored replicas from disk,
    // the volatile tier came back empty.
    sched.after(duration::millis(401), [&store, &victim, tier] {
      const std::size_t restored = store.node(victim)->replica_ids().size();
      if (tier == storage::StoreTier::kVolatile) {
        EXPECT_EQ(restored, 0u);
      } else {
        EXPECT_GT(restored, 0u);
      }
    });
  });

  sched.run_for(duration::seconds(30));  // several healing sweeps

  // Digest convergence: every object retrievable with oracle bytes.
  std::size_t correct = 0;
  for (const auto& [id, data] : oracle) {
    const Bytes& expected = data;
    store.get(1, id, [&correct, &expected](Result<Bytes> r) {
      if (r.is_ok() && r.value() == expected) ++correct;
    });
  }
  sched.run_for(duration::seconds(15));
  EXPECT_EQ(correct, oracle.size());
  EXPECT_GE(store.live_replicas(ids[0]), p.replicas);

  const storage::DurabilityStats dur = store.durability_stats();
  if (tier == storage::StoreTier::kVolatile) {
    EXPECT_EQ(dur.recoveries, 0u);  // no journals exist at all
  } else {
    EXPECT_GE(dur.recoveries, 1u);
    EXPECT_GT(dur.write_amplification(), 0.0);
  }
  if (tier == storage::StoreTier::kLogged) {
    EXPECT_GT(dur.wal_appends, 0u);
  }
  if (tier == storage::StoreTier::kPersistent) {
    EXPECT_GT(dur.checkpoints, 0u);
  }
}

TEST(Chaos, StoreNodeCrashRecoverConvergesInAllTiers) {
  for (std::uint64_t seed = 1; seed <= 7; ++seed) {
    store_crash_recover_round(storage::StoreTier::kVolatile, seed);
    store_crash_recover_round(storage::StoreTier::kPersistent, seed);
    store_crash_recover_round(storage::StoreTier::kLogged, seed);
  }
}

// --- Crash-durable recovery: broker ---

struct BrokerCrashResult {
  Digest digest;
  std::uint64_t deliveries = 0;
  pubsub::BrokerStats broker;
  std::uint64_t give_ups = 0;
  std::uint64_t incarnation_give_ups = 0;
  std::uint64_t dropped_by_fault = 0;
  std::size_t stalled_left = 0;
};

// Brokers 0-1-2 in a chain; clients 3..5 hang off broker 0 and 6..8 off
// broker 2, so every cross-group delivery crosses broker 1 — the crash
// victim.  `crash_at` == 0 runs the fault-free oracle.
BrokerCrashResult run_broker_crash_scenario(SimDuration crash_at, SimDuration revive_at,
                                            std::uint64_t seed,
                                            bool checkpoints_before_transport = false) {
  BrokerCrashResult result;
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(9, duration::millis(5));
  sim::Network net(sched, topo);
  SienaNetwork ps(net, {0, 1, 2});
  (void)ps.connect(0, 1);
  (void)ps.connect(1, 2);
  sim::DiskParams dp;
  dp.fsync_latency = duration::millis(5);  // checkpoints can crash mid-flush
  dp.seed = seed * 7 + 3;
  sim::DurableDisk disk(net, dp);
  // Both enable orders must behave identically (give-up parking hooks
  // in regardless of which feature comes up first).
  if (checkpoints_before_transport) {
    ps.enable_broker_checkpoints(disk);
    ps.enable_reliable_transport(chaos_reliable_params());
  } else {
    ps.enable_reliable_transport(chaos_reliable_params());
    ps.enable_broker_checkpoints(disk);
  }
  sim::ChurnInjector churn(net, {});
  ps.attach_churn(churn);

  Digest& digest = result.digest;
  for (sim::HostId h = 3; h <= 8; ++h) {
    digest[h];  // every client appears, even one that receives nothing
    ps.attach_client(h, h <= 5 ? 0 : 2);
    sched.after(duration::millis(3) * (h - 2), [&ps, &digest, h] {
      ps.subscribe(h, Filter().where("type", Op::kEq, "t" + std::to_string(h % 3)),
                   [&digest, h](const Event& e) {
                     digest[h].push_back(e.get_string("key").value_or("?"));
                   });
    });
  }
  if (crash_at > 0) {
    sched.after(crash_at, [&churn] { churn.kill(1, /*graceful=*/false); });
    sched.after(revive_at, [&churn] { churn.revive(1); });
  }
  // 6 publishers x 20 rounds from 800 ms on; each event's type matches
  // exactly two subscribers (one in each group).
  for (int r = 0; r < 20; ++r) {
    for (sim::HostId pub = 3; pub <= 8; ++pub) {
      const SimDuration when =
          duration::millis(800) +
          duration::millis(5) * static_cast<SimDuration>(r * 6 + static_cast<int>(pub) - 3);
      sched.after(when, [&ps, pub, r] {
        Event e("t" + std::to_string((static_cast<int>(pub) + r) % 3));
        e.set("key", "p" + std::to_string(pub) + "r" + std::to_string(r));
        ps.publish(pub, e);
      });
    }
  }
  sched.run();

  for (const auto& [h, keys] : digest) result.deliveries += keys.size();
  for (auto& [h, keys] : digest) std::sort(keys.begin(), keys.end());
  result.broker = ps.total_broker_stats();
  result.give_ups = ps.reliable_transport()->stats().give_ups;
  result.incarnation_give_ups = ps.reliable_transport()->stats().incarnation_give_ups;
  result.dropped_by_fault = net.stats().dropped_by_fault;
  result.stalled_left = ps.stalled_packets();
  return result;
}

TEST(Chaos, BrokerCrashMidPublishConvergesToOracleDigest) {
  const BrokerCrashResult oracle = run_broker_crash_scenario(0, 0, 1);
  // 120 events, each matching exactly 2 subscriptions.
  ASSERT_EQ(oracle.deliveries, 240u);
  ASSERT_EQ(oracle.broker.recoveries, 0u);

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    // Crash lands mid-flight of a publish wave crossing broker 1.
    const BrokerCrashResult crash = run_broker_crash_scenario(
        duration::millis(1002) + duration::micros(337), duration::millis(1352), seed);
    EXPECT_EQ(crash.digest, oracle.digest) << "seed " << seed;
    EXPECT_GE(crash.broker.recoveries, 1u);
    EXPECT_GE(crash.broker.sync_requests, 2u);  // one per neighbour
    EXPECT_GE(crash.broker.sync_replies, 1u);
    // In-flight publications at the crash were given up on promptly,
    // parked, and flushed into the recovered broker.
    EXPECT_GT(crash.incarnation_give_ups, 0u) << "seed " << seed;
    EXPECT_EQ(crash.stalled_left, 0u);
  }
}

TEST(Chaos, BrokerCheckpointsEnabledBeforeTransportStillParkGiveUps) {
  // enable_broker_checkpoints before enable_reliable_transport: the
  // transport's give-up hook must still be installed, or traffic to the
  // crashed broker is dropped instead of parked and re-flushed.
  const BrokerCrashResult oracle = run_broker_crash_scenario(0, 0, 1);
  const BrokerCrashResult crash = run_broker_crash_scenario(
      duration::millis(1002) + duration::micros(337), duration::millis(1352), 1,
      /*checkpoints_before_transport=*/true);
  EXPECT_EQ(crash.digest, oracle.digest);
  EXPECT_GT(crash.incarnation_give_ups, 0u);
  EXPECT_EQ(crash.stalled_left, 0u);
}

TEST(Chaos, BrokerRecoverySyncTearsDownStaleDownstreamRoutes) {
  // Client 3 (broker 0) subscribes; the route reaches broker 2.  While
  // broker 1 is down, the client unsubscribes — the teardown dies at
  // the dead broker.  Recovery sync with broker 0 reveals the entry is
  // stale; broker 1 must then propagate the unsubscribe downstream, or
  // broker 2 forwards matching publishes at a dangling route forever.
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(9, duration::millis(5));
  sim::Network net(sched, topo);
  SienaNetwork ps(net, {0, 1, 2});
  (void)ps.connect(0, 1);
  (void)ps.connect(1, 2);
  sim::DurableDisk disk(net);
  ps.enable_broker_checkpoints(disk);
  sim::ChurnInjector churn(net, {});
  ps.attach_churn(churn);
  ps.attach_client(3, 0);
  ps.attach_client(6, 2);

  int delivered = 0;
  const std::uint64_t sub = ps.subscribe(
      3, Filter().where("type", Op::kEq, "t"), [&](const Event&) { ++delivered; });
  sched.run();
  ps.publish(6, Event("t"));  // positive control: the route works
  sched.run();
  ASSERT_EQ(delivered, 1);

  churn.kill(1, /*graceful=*/false);
  sched.run();
  ps.unsubscribe(3, sub);  // teardown toward dead broker 1 is lost
  sched.run();
  churn.revive(1);  // recovery + peer sync with brokers 0 and 2
  sched.run();

  const std::uint64_t routed_before = ps.broker(1)->stats().publications_routed;
  ps.publish(6, Event("t"));
  sched.run();
  EXPECT_EQ(delivered, 1);  // the unsubscribe holds either way...
  // ...but broker 2 must have dropped the stale route, so nothing is
  // forwarded into broker 1 at all.
  EXPECT_EQ(ps.broker(1)->stats().publications_routed, routed_before);
}

TEST(Chaos, TruncatedCheckpointKeepsItsPrefixAndCountsPartialRestore) {
  // A checkpoint that validates (magic, sequence, checksum) but whose
  // body stops inside its second table entry: recovery keeps the entry
  // read before the break, counts the restore as partial, annotates the
  // recover span, and still reconciles with both peers.
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(9, duration::millis(5));
  sim::Network net(sched, topo);
  net.enable_tracing();
  SienaNetwork ps(net, {0, 1, 2});
  ASSERT_TRUE(ps.connect(0, 1).is_ok());
  ASSERT_TRUE(ps.connect(1, 2).is_ok());
  sim::DurableDisk disk(net);
  ps.enable_broker_checkpoints(disk);
  sim::ChurnInjector churn(net, {});
  ps.attach_churn(churn);
  ps.attach_client(3, 0);
  ps.attach_client(6, 2);
  int delivered = 0;
  ps.subscribe(3, Filter().where("type", Op::kEq, "t"), [&](const Event&) { ++delivered; });
  sched.run();
  const pubsub::Broker& b1 = *ps.broker(1);

  // A clean crash and recovery reads the whole body.
  churn.kill(1, /*graceful=*/false);
  sched.run();
  churn.revive(1);
  sched.run();
  ASSERT_EQ(b1.stats().recoveries, 1u);
  EXPECT_EQ(b1.stats().partial_restores, 0u);

  BufWriter w;
  w.u32(2);  // two table entries, in serialize_routing_state's layout...
  w.u64(9001);
  w.u8(0);   // learned from a broker...
  w.u32(0);  // ...broker 0
  event::write_filter(w, Filter().where("type", Op::kEq, "stale"));
  w.u64(9002);  // ...but the second one breaks off after its id
  sim::checkpoint_write(disk, 1, "broker.ckpt", 1'000'000, std::move(w).take());
  sched.run();  // durable

  const pubsub::BrokerStats before = b1.stats();
  churn.kill(1, /*graceful=*/false);
  sched.run();
  churn.revive(1);  // recovery runs synchronously inside the rejoin
  EXPECT_EQ(b1.stats().partial_restores, 1u);
  EXPECT_EQ(b1.table_size(), 1u);  // the entry before the break
  EXPECT_EQ(b1.stats().recovered_entries - before.recovered_entries, 1u);
  EXPECT_EQ(b1.stats().sync_requests - before.sync_requests, 2u);
  sched.run();
  EXPECT_EQ(b1.stats().sync_replies - before.sync_replies, 2u);

  std::vector<std::string> recover_details;
  for (const obs::Span& s : net.tracer()->spans()) {
    if (s.component == "broker" && s.action == "recover") recover_details.push_back(s.detail);
  }
  ASSERT_EQ(recover_details.size(), 2u);
  EXPECT_EQ(recover_details[0].rfind("ckpt=ok;", 0), 0u) << recover_details[0];
  EXPECT_EQ(recover_details[1].rfind("ckpt=partial;", 0), 0u) << recover_details[1];

  // The peer sync restored the live route through broker 1.
  ps.publish(6, Event("t"));
  sched.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Chaos, BrokerCrashDuringSubscriptionPropagationConverges) {
  // The nastier window: broker 1 dies while subscriptions are still
  // propagating and its own routing-state checkpoints are mid-flush.
  // Recovery must combine whatever checkpoint half survived with the
  // peer sync protocol and the flushed stalled traffic, and still end
  // up with routing state that delivers the exact oracle digest.
  const BrokerCrashResult oracle = run_broker_crash_scenario(0, 0, 1);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const BrokerCrashResult crash = run_broker_crash_scenario(
        duration::millis(21) + duration::micros(113), duration::millis(400), seed);
    EXPECT_EQ(crash.digest, oracle.digest) << "seed " << seed;
    EXPECT_GE(crash.broker.recoveries, 1u);
    EXPECT_GE(crash.broker.checkpoints, 1u);
    EXPECT_EQ(crash.stalled_left, 0u);
  }
}

// The chaos tree of run_scenario with all three faults at once: link
// faults and two partition windows (install_chaos), and interior broker
// 1 crashing mid-publish and recovering from its checkpoint.  Broker 1
// has no client, so its crash cannot eat deliveries of its own host.
// `chaos` == false runs the fault-free oracle over the raw path.
BrokerCrashResult run_crash_under_faults_scenario(bool chaos, std::uint64_t seed) {
  BrokerCrashResult result;
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(kHosts, duration::millis(5));
  sim::Network net(sched, topo);
  SienaNetwork ps(net, {0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_TRUE(ps.connect_tree().is_ok());  // edges: 0-1, 0-2, 1-3, 1-4, 2-5, 2-6, 3-7
  if (chaos) ps.enable_reliable_transport(chaos_reliable_params());
  sim::DiskParams dp;
  dp.fsync_latency = duration::millis(5);
  dp.seed = seed * 7 + 3;
  sim::DurableDisk disk(net, dp);
  sim::ChurnInjector churn(net, {});
  if (chaos) {
    ps.enable_broker_checkpoints(disk);
    ps.attach_churn(churn);
  }

  const std::vector<sim::HostId> client_hosts{0, 2, 3, 4, 5, 6, 7};
  Digest& digest = result.digest;
  for (sim::HostId h : client_hosts) {
    digest[h];
    ps.attach_client(h, h);
    ps.subscribe(h, Filter().where("type", Op::kEq, "t" + std::to_string(h % 4)),
                 [&digest, h](const Event& e) {
                   digest[h].push_back(e.get_string("key").value_or("?"));
                 });
  }
  sched.run();  // quiesce subscriptions on a clean network
  net.reset_stats();

  if (chaos) {
    install_chaos(seed, net, sched);
    sched.after(duration::millis(420) + duration::micros(137),
                [&churn] { churn.kill(1, /*graceful=*/false); });
    sched.after(duration::millis(560), [&churn] { churn.revive(1); });
  }

  // 7 publishers x 25 rounds, one publish every 5 ms (about 5-880 ms,
  // spanning both partition windows and the crash).
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < client_hosts.size(); ++i) {
      const sim::HostId p = client_hosts[i];
      const SimDuration when = duration::millis(5) * static_cast<SimDuration>(
                                   r * static_cast<int>(client_hosts.size()) +
                                   static_cast<int>(i) + 1);
      sched.after(when, [&ps, p, r] {
        Event e("t" + std::to_string((static_cast<int>(p) + r) % 4));
        e.set("key", "p" + std::to_string(p) + "r" + std::to_string(r));
        ps.publish(p, e);
      });
    }
  }
  sched.run();

  for (const auto& [h, keys] : digest) result.deliveries += keys.size();
  for (auto& [h, keys] : digest) std::sort(keys.begin(), keys.end());
  if (ps.reliable_transport() != nullptr) {
    result.give_ups = ps.reliable_transport()->stats().give_ups;
    result.incarnation_give_ups = ps.reliable_transport()->stats().incarnation_give_ups;
  }
  result.dropped_by_fault = net.stats().dropped_by_fault;
  result.stalled_left = ps.stalled_packets();
  result.broker = ps.total_broker_stats();
  return result;
}

TEST(Chaos, BrokerCrashUnderLinkFaultsMatchesFaultFreeOracle) {
  const BrokerCrashResult oracle = run_crash_under_faults_scenario(/*chaos=*/false, 1);
  // 175 events: types t0, t2 and t3 match two subscribers each, t1 one.
  ASSERT_EQ(oracle.deliveries, 307u);
  std::uint64_t incarnation_give_ups = 0;
  for (std::uint64_t seed = 1; seed <= 21; ++seed) {
    const BrokerCrashResult chaos = run_crash_under_faults_scenario(/*chaos=*/true, seed);
    EXPECT_EQ(chaos.digest, oracle.digest) << "seed " << seed;
    // Every transport give-up was an incarnation change (the crash),
    // never retry exhaustion, and everything parked was flushed.
    EXPECT_EQ(chaos.give_ups, chaos.incarnation_give_ups) << "seed " << seed;
    EXPECT_EQ(chaos.stalled_left, 0u) << "seed " << seed;
    // The faults were real: packets dropped, and the broker crashed and
    // recovered from its checkpoint.
    EXPECT_GT(chaos.dropped_by_fault, 0u) << "seed " << seed;
    EXPECT_GE(chaos.broker.recoveries, 1u) << "seed " << seed;
    incarnation_give_ups += chaos.incarnation_give_ups;
  }
  // Some seeds crash the broker with traffic in flight toward it, so the
  // park-and-flush path ran (not every seed does).
  EXPECT_GT(incarnation_give_ups, 0u);
}

// --- Pinned one-shard results ---
//
// The Chaos.Parallel* and Chaos.TracedParallel* tests keep the names
// they had when they compared sharded runs with the sequential
// scheduler.  Each now pins the sequential result with fingerprints
// recorded while that comparison still ran.

// Renders a stats tuple as comma-separated decimals.
template <typename Tuple>
std::string render_key(const Tuple& t) {
  std::string out;
  std::apply([&out](const auto&... v) { ((out += std::to_string(v) + ","), ...); }, t);
  return out;
}

std::string render_digest(const Digest& digest) {
  std::string out;
  for (const auto& [host, keys] : digest) {
    out += std::to_string(host) + ":";
    for (const std::string& k : keys) out += k + ",";
    out += "\n";
  }
  return out;
}

// FNV-1a over a sweep run's digest and counters.
std::uint64_t fingerprint(const ScenarioResult& r) {
  return fnv1a(render_digest(r.digest) + "give_ups=" + std::to_string(r.give_ups) + "\n" +
               render_key(net_stats_key(r.net_stats)) + "\n" +
               render_key(broker_stats_key(r.broker)));
}

// FNV-1a over a traced run's span contents, in sorted order.
std::uint64_t span_fingerprint(const ScenarioResult& r) {
  std::uint64_t h = fnv1a("");
  for (const std::string& span : r.span_multiset) h = fnv1a(span + "\n", h);
  return h;
}

// Seeds 1..21 of the chaos sweep.
constexpr std::uint64_t kSweepFingerprints[21] = {
    0x3b8167b1cacbe928ULL, 0x8aae576c7c2d406fULL, 0x6cfdd49bb2d3c4a8ULL,
    0x660af19595d019ddULL, 0x7ca0d6a9215d7d66ULL, 0x6c8cbea77d167694ULL,
    0xcf72dfeeaec4bc66ULL, 0x04749521596e5762ULL, 0xfc67edeb787f9f2eULL,
    0x937d6437e2900ae2ULL, 0xd0f9db8d0dbefa2bULL, 0xfdc4aadc83a2ad99ULL,
    0x2b9d7f34cdafa3b0ULL, 0xc29db641a69e909bULL, 0x227f0252f1caffefULL,
    0x2434464407aed25eULL, 0x5ce2427d6005795dULL, 0x5c2efa2a6655ebafULL,
    0x2a1ad71878a10eddULL, 0xa47af1ae37f81cf2ULL, 0x27ac4ab09dcba372ULL,
};

TEST(Chaos, ParallelModeIsDeterministic) {
  // The full 21-seed chaos sweep — link faults, duplication,
  // reordering, two partition windows, the reliable transport papering
  // over all of it — reproduces the recorded delivery digests and
  // network and broker counters bit for bit.
  for (std::uint64_t seed = 1; seed <= 21; ++seed) {
    const ScenarioResult r = run_scenario(
        /*reliable=*/true,
        [seed](sim::Network& net, sim::Scheduler& sched) { install_chaos(seed, net, sched); });
    ASSERT_GT(r.dropped_by_fault, 0u) << "seed " << seed;
    EXPECT_EQ(fingerprint(r), kSweepFingerprints[seed - 1]) << "seed " << seed;
  }
}

TEST(Chaos, ParallelBrokerCrashRecoveryMatchesSequential) {
  // The crash→recover→converge path: a broker dies mid-publish with
  // checkpoints mid-flush, recovers from disk + peer sync, and the
  // run's digest and broker counters reproduce the recorded ones.  The
  // disk seed decides torn-write outcomes, none of which changes this
  // run: all five seeds converge to the same result.
  constexpr std::uint64_t kCrashFingerprint = 0x7dbd17f353f76392ULL;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const BrokerCrashResult r = run_broker_crash_scenario(
        duration::millis(1002) + duration::micros(337), duration::millis(1352), seed);
    ASSERT_GE(r.broker.recoveries, 1u) << "seed " << seed;
    const std::string rendered =
        render_digest(r.digest) + std::to_string(r.deliveries) + "," +
        std::to_string(r.incarnation_give_ups) + "," + std::to_string(r.stalled_left) + "\n" +
        render_key(broker_stats_key(r.broker));
    EXPECT_EQ(fnv1a(rendered), kCrashFingerprint) << "seed " << seed;
  }
}

TEST(Chaos, TracedParallelSweepMatchesUntracedSequential) {
  // Tracing is pure observation: the 21-seed chaos sweep runs traced,
  // and each run's digest and counters equal the untraced run's, with
  // one deliver span per delivery.  The span contents (times, hosts,
  // details and parent links) reproduce the recorded ones.
  constexpr std::uint64_t kSpanFingerprints[21] = {
      0xa1a1aa1db34f396eULL, 0xb216749a6501a898ULL, 0xd9df21489cbec999ULL,
      0xbfa93777809befadULL, 0xb25b1eb18e1c4473ULL, 0x9ad67c39299a1614ULL,
      0x7d9e918413a8ad21ULL, 0x95072184bfe25670ULL, 0xdfd01902591daab1ULL,
      0x86679e8d3b4ab13bULL, 0x5fbca069ea844827ULL, 0x1a9264b7a4654013ULL,
      0xace6bbcceb60da01ULL, 0x1a7b01a4caa05946ULL, 0xb9a384052b84ca4bULL,
      0xf697b4b18e537ff0ULL, 0xd661d7d6af30900cULL, 0x8e5632f0d781a9baULL,
      0x363ad43e10c9c26cULL, 0x32ab5c1bc0128a66ULL, 0x14b1a58e267d71d8ULL,
  };
  for (std::uint64_t seed = 1; seed <= 21; ++seed) {
    const auto scenario = [seed](sim::Network& net, sim::Scheduler& sched) {
      install_chaos(seed, net, sched);
    };
    const ScenarioResult traced = run_scenario(/*reliable=*/true, scenario, /*tracing=*/true);
    EXPECT_EQ(fingerprint(traced), kSweepFingerprints[seed - 1]) << "seed " << seed;
    EXPECT_EQ(traced.deliver_spans, traced.deliveries) << "seed " << seed;
    ASSERT_FALSE(traced.span_multiset.empty()) << "seed " << seed;
    EXPECT_EQ(span_fingerprint(traced), kSpanFingerprints[seed - 1]) << "seed " << seed;
  }
}

TEST(Chaos, ParallelTraceExportValidates) {
  // A traced + profiled chaos run must export Chrome/Perfetto JSON that
  // passes every validator check: span structure from the trace and
  // counter tracks (numeric values, non-decreasing per-track
  // timestamps, named threads) from the profiler.  The span and counter
  // event counts reproduce the recorded ones.
  const ScenarioResult traced = run_scenario(
      /*reliable=*/true,
      [](sim::Network& net, sim::Scheduler& sched) { install_chaos(5, net, sched); },
      /*tracing=*/true, /*profiling=*/true);
  ASSERT_FALSE(traced.chrome_export.empty());
  std::istringstream in(traced.chrome_export);
  const auto problems = obs::validate_chrome_trace(in);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
  const auto count = [&traced](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = traced.chrome_export.find(needle); at != std::string::npos;
         at = traced.chrome_export.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"X\""), 4851u);  // one per span
  EXPECT_EQ(count("\"ph\":\"C\""), 4u);     // two tracks x two run() samples
}

TEST(Chaos, ProfilingIsPureObservation) {
  // The profiler reads wall clocks and bumps counters but never touches
  // scheduling decisions: digests and counters with profiling on are
  // bit-identical to the plain run.
  const auto scenario = [](sim::Network& net, sim::Scheduler& sched) {
    install_chaos(7, net, sched);
  };
  const ScenarioResult off = run_scenario(/*reliable=*/true, scenario);
  const ScenarioResult on =
      run_scenario(/*reliable=*/true, scenario, /*tracing=*/false, /*profiling=*/true);
  EXPECT_EQ(on.digest, off.digest);
  EXPECT_EQ(net_stats_key(on.net_stats), net_stats_key(off.net_stats));
  EXPECT_EQ(broker_stats_key(on.broker), broker_stats_key(off.broker));
}

}  // namespace
}  // namespace aa
