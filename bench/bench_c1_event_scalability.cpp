// C1 — §3/§4.1: Elvin's "client-server architecture, limiting its
// scalability" vs. Siena-style content-based routing that "shows
// evidence of being globally scalable", with subscription flooding as
// the no-routing-state ablation.  Elvin's single server is a one-broker
// SienaNetwork: the same broker matching and client dispatch, with every
// client attached to host 0.
//
// Fixed workload (publishers + selective subscribers spread over a
// wide-area topology), five event services; report total messages,
// bytes, hotspot load (busiest node's delivered messages) and delivery
// latency.
#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "baselines/flooding_network.hpp"
#include "baselines/scribe.hpp"
#include "bench_util.hpp"
#include "wire/codec.hpp"
#include "obs/metrics_hub.hpp"
#include "sim/metrics.hpp"
#include "pubsub/siena_network.hpp"
#include "overlay/overlay_network.hpp"

using namespace aa;

namespace {

struct RunResult {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hotspot = 0;  // max delivered to any single host
  double mean_latency_ms = 0;
  std::uint64_t delivered = 0;
  sim::NetworkStats net;  // full counters, incl. fault/retry columns
  std::uint64_t tasks = 0;  // scheduler tasks executed over the whole run
};

struct Workload {
  int brokers;
  int subscribers;
  int publishers = 16;
  int events_per_publisher = 20;
};

/// Subscribers want one of 8 topics; publishers round-robin topics, so
/// ~1/8 of subscribers match each event.
RunResult run(const Workload& w, const std::string& mode,
              wire::WireCodec codec = wire::WireCodec::kXml, bool batching = false) {
  sim::Scheduler sched;
  const std::size_t hosts =
      static_cast<std::size_t>(w.brokers + w.subscribers + w.publishers);
  sim::TransitStubTopology::Params tp;
  tp.regions = 8;
  auto topo = std::make_shared<sim::TransitStubTopology>(hosts, tp);
  sim::Network net(sched, topo);

  std::vector<sim::HostId> broker_hosts;
  for (int b = 0; b < w.brokers; ++b) broker_hosts.push_back(static_cast<sim::HostId>(b));

  std::unique_ptr<pubsub::EventService> service;
  std::unique_ptr<overlay::OverlayNetwork> overlay;  // for the scribe mode
  if (mode == "scribe") {
    overlay::OverlayNetwork::Params op;
    op.maintenance_period = 0;
    overlay = std::make_unique<overlay::OverlayNetwork>(net, op);
    std::vector<sim::HostId> all;
    for (sim::HostId h = 0; h < hosts; ++h) all.push_back(h);
    overlay->build_ring(all);
    baselines::ScribeNetwork::Params sp;
    sp.refresh_period = 0;
    service = std::make_unique<baselines::ScribeNetwork>(net, *overlay, sp);
  } else if (mode == "flooding") {
    auto flooding = std::make_unique<baselines::FloodingNetwork>(net, broker_hosts);
    flooding->connect_tree();
    for (int s = 0; s < w.subscribers; ++s) {
      flooding->attach_client(static_cast<sim::HostId>(w.brokers + s),
                              broker_hosts[static_cast<std::size_t>(s % w.brokers)]);
    }
    for (int p = 0; p < w.publishers; ++p) {
      flooding->attach_client(static_cast<sim::HostId>(w.brokers + w.subscribers + p),
                              broker_hosts[static_cast<std::size_t>(p % w.brokers)]);
    }
    service = std::move(flooding);
  } else {
    auto s = std::make_unique<pubsub::SienaNetwork>(
        net, mode == "central" ? std::vector<sim::HostId>{0} : broker_hosts, codec);
    s->connect_tree();
    if (mode == "siena-adv") (void)s->set_advertisement_forwarding(true);
    if (batching) {
      net.enable_batching(0, [codec](std::span<const std::size_t> sizes) {
        return wire::codec(codec).frame_size(sizes);
      });
    }
    service = std::move(s);
  }
  if (mode == "siena-adv") {
    // Publishers declare their event class (Siena's advertisement
    // semantics) so subscriptions chase them instead of flooding.
    for (int p = 0; p < w.publishers; ++p) {
      event::Filter adv;
      adv.where("type", event::Op::kEq, "reading");
      service->advertise(static_cast<sim::HostId>(w.brokers + w.subscribers + p), adv);
    }
    sched.run_until(sched.now() + duration::seconds(10));
  }

  sim::Histogram latency;
  std::uint64_t delivered = 0;
  SimTime published_at = 0;
  for (int s = 0; s < w.subscribers; ++s) {
    event::Filter f;
    f.where("type", event::Op::kEq, "reading")
        .where("topic", event::Op::kEq, "topic" + std::to_string(s % 8));
    service->subscribe(static_cast<sim::HostId>(w.brokers + s), f, [&](const event::Event&) {
      ++delivered;
      latency.record(to_millis(sched.now() - published_at));
    });
  }
  sched.run_until(sched.now() + duration::seconds(30));
  net.reset_stats();

  for (int round = 0; round < w.events_per_publisher; ++round) {
    for (int p = 0; p < w.publishers; ++p) {
      event::Event e("reading");
      e.set("topic", "topic" + std::to_string((round + p) % 8)).set("value", round);
      published_at = sched.now();
      service->publish(static_cast<sim::HostId>(w.brokers + w.subscribers + p), e);
      sched.run_until(sched.now() + duration::seconds(2));  // drain before next publish
    }
  }
  sched.run_until(sched.now() + duration::seconds(10));

  RunResult r;
  r.messages = net.stats().messages_sent;
  r.bytes = net.stats().bytes_sent;
  r.delivered = delivered;
  r.net = net.stats();
  for (sim::HostId h = 0; h < hosts; ++h) {
    r.hotspot = std::max(r.hotspot, net.delivered_to(h));
  }
  r.mean_latency_ms = latency.mean();
  r.tasks = sched.executed_events();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const wire::WireCodec knob_codec = bench::codec_arg(argc, argv);
  const bool knob_batch = bench::batch_arg(argc, argv);
  bench::headline("C1 (§3/§4.1)",
                  "event service scalability: central (Elvin) vs flooding vs content-based "
                  "(Siena)");
  if (knob_codec != wire::WireCodec::kXml || knob_batch) {
    std::printf("(central and siena modes run with codec=%s batching=%s; flooding and\n"
                " scribe keep the XML interop encoding)\n",
                wire::codec_name(knob_codec), knob_batch ? "on" : "off");
  }
  bench::Snapshot snap("c1", argc, argv);

  for (int subscribers : {64, 256}) {
    Workload w{16, subscribers};
    std::printf("\n%d subscribers, %d brokers, %d publishers x %d events:\n", w.subscribers,
                w.brokers, w.publishers, w.events_per_publisher);
    bench::Table table({"service", "messages", "bytes", "hotspot", "lat ms", "delivered"});
    std::vector<std::pair<std::string, RunResult>> results;
    for (const std::string mode : {"central", "flooding", "siena", "siena-adv", "scribe"}) {
      const auto r = run(w, mode, knob_codec, knob_batch);
      table.row({mode, bench::fmt("%llu", (unsigned long long)r.messages),
                 bench::fmt("%llu", (unsigned long long)r.bytes),
                 bench::fmt("%llu", (unsigned long long)r.hotspot),
                 bench::fmt("%.1f", r.mean_latency_ms),
                 bench::fmt("%llu", (unsigned long long)r.delivered)});
      results.emplace_back(mode, r);
    }
    for (const auto& [mode, r] : results) bench::net_line(mode, r.net);
    for (const auto& [mode, r] : results) {
      sim::MetricsRegistry reg;
      obs::export_stats(reg, "net", r.net);
      reg.add("bench.delivered", r.delivered);
      reg.add("bench.hotspot", r.hotspot);
      bench::metrics_line(bench::fmt("C1 %s subs=%d", mode.c_str(), subscribers), reg);
      snap.add(bench::fmt("%s.subs%d.messages", mode.c_str(), subscribers), r.messages);
      snap.add(bench::fmt("%s.subs%d.delivered", mode.c_str(), subscribers), r.delivered);
      snap.add(bench::fmt("%s.subs%d.hotspot", mode.c_str(), subscribers), r.hotspot);
      snap.add(bench::fmt("%s.subs%d.tasks", mode.c_str(), subscribers), r.tasks);
    }
  }

  std::printf("\n(b) Subscription-state economics (64 brokers in a chain, 64 subscribers\n"
              "    at one end): covering-based pruning vs worst cases:\n");
  {
    bench::Table sub_table({"filters", "fwd msgs", "suppressed", "sum tables"});
    for (const std::string shape : {"identical", "nested", "disjoint"}) {
      sim::Scheduler sched;
      auto topo = std::make_shared<sim::UniformTopology>(80, duration::millis(5));
      sim::Network net(sched, topo);
      std::vector<sim::HostId> brokers;
      for (sim::HostId h = 0; h < 64; ++h) brokers.push_back(h);
      pubsub::SienaNetwork ps(net, brokers);
      for (sim::HostId h = 0; h + 1 < 64; ++h) (void)ps.connect(h, h + 1);
      ps.attach_client(70, 63);
      for (int i = 0; i < 64; ++i) {
        event::Filter f;
        if (shape == "identical") {
          f.where("v", event::Op::kGt, 0.0);
        } else if (shape == "nested") {
          f.where("v", event::Op::kGt, static_cast<double>(i));
        } else {
          f.where("topic", event::Op::kEq, "t" + std::to_string(i));
        }
        ps.subscribe(70, f, [](const event::Event&) {});
      }
      sched.run();
      const auto st = ps.total_broker_stats();
      std::uint64_t tables = 0;
      for (sim::HostId h = 0; h < 64; ++h) tables += ps.broker(h)->table_size();
      sub_table.row({shape, bench::fmt("%llu", (unsigned long long)st.subscriptions_forwarded),
                     bench::fmt("%llu", (unsigned long long)st.subscriptions_suppressed),
                     bench::fmt("%llu", (unsigned long long)tables)});
    }
    std::printf("(identical: one filter covers the rest; nested: the widest covers all;\n"
                " disjoint: nothing covers, every filter floods — the covering relation\n"
                " is what keeps distributed routing state sub-linear.)\n");
  }

  std::printf("\n(c) Matching economics (16 brokers; 16 event types x 16 topics so\n"
              "    filters are selective): FilterIndex probes vs the cost of a\n"
              "    linear scan (every table entry tested per publication routed), total\n"
              "    across all brokers per published event:\n");
  {
    struct MatchResult {
      std::uint64_t probes = 0;
      std::uint64_t scan_cost = 0;
      std::uint64_t delivered = 0;
      bool oracle_ok = true;
    };
    auto run_match = [](int subscribers) {
      MatchResult out;
      sim::Scheduler sched;
      const std::size_t hosts = static_cast<std::size_t>(16 + subscribers + 16);
      auto topo = std::make_shared<sim::UniformTopology>(hosts, duration::millis(5));
      sim::Network net(sched, topo);
      std::vector<sim::HostId> brokers;
      for (sim::HostId h = 0; h < 16; ++h) brokers.push_back(h);
      pubsub::SienaNetwork ps(net, brokers);
      ps.connect_tree();
      // Delivered vs expected (subscriber, event) multisets; the oracle
      // is Filter::matches over the installed subscriptions.
      std::uint64_t digest = 0, expected_digest = 0, expected = 0;
      const std::hash<std::string> hasher;
      std::vector<event::Filter> filters;
      for (int s = 0; s < subscribers; ++s) {
        const sim::HostId host = static_cast<sim::HostId>(16 + s);
        ps.attach_client(host, brokers[static_cast<std::size_t>(s % 16)]);
        event::Filter f;
        f.where("type", event::Op::kEq, "type" + std::to_string(s % 16))
            .where("topic", event::Op::kEq, "topic" + std::to_string((s / 16) % 16));
        filters.push_back(f);
        ps.subscribe(host, f, [&out, &digest, hasher, s](const event::Event& e) {
          ++out.delivered;
          digest += hasher(std::to_string(s) + "|" + e.describe());
        });
      }
      for (int p = 0; p < 16; ++p) {
        ps.attach_client(static_cast<sim::HostId>(16 + subscribers + p),
                         brokers[static_cast<std::size_t>(p % 16)]);
      }
      sched.run();
      for (int round = 0; round < 20; ++round) {
        for (int p = 0; p < 16; ++p) {
          event::Event e("type" + std::to_string((round + p) % 16));
          e.set("topic", "topic" + std::to_string(round % 16)).set("value", round);
          for (int s = 0; s < subscribers; ++s) {
            if (!filters[static_cast<std::size_t>(s)].matches(e)) continue;
            ++expected;
            expected_digest += hasher(std::to_string(s) + "|" + e.describe());
          }
          ps.publish(static_cast<sim::HostId>(16 + subscribers + p), e);
          sched.run();
        }
      }
      out.probes = ps.total_broker_stats().index_probes;
      // Exact: routing tables are static while publishing.
      for (sim::HostId b : brokers) {
        out.scan_cost += ps.broker(b)->stats().publications_routed * ps.broker(b)->table_size();
      }
      out.oracle_ok = out.delivered == expected && digest == expected_digest;
      return out;
    };
    const double publishes = 16.0 * 20.0;
    bench::Table t({"subscribers", "matching", "evals", "evals/publish", "delivered", "reduction"});
    for (int subscribers : {64, 256}) {
      const MatchResult r = run_match(subscribers);
      t.row({bench::fmt("%d", subscribers), "naive",
             bench::fmt("%llu", (unsigned long long)r.scan_cost),
             bench::fmt("%.1f", static_cast<double>(r.scan_cost) / publishes),
             bench::fmt("%llu", (unsigned long long)r.delivered), "1.0x"});
      t.row({bench::fmt("%d", subscribers), "indexed",
             bench::fmt("%llu", (unsigned long long)r.probes),
             bench::fmt("%.1f", static_cast<double>(r.probes) / publishes),
             bench::fmt("%llu", (unsigned long long)r.delivered),
             bench::fmt("%.1fx", static_cast<double>(r.scan_cost) /
                                     static_cast<double>(std::max<std::uint64_t>(r.probes, 1)))});
      if (!r.oracle_ok) {
        std::printf("  WARNING: deliveries differ from the Filter::matches oracle!\n");
      }
    }
    std::printf("(delivery digests verified against Filter::matches; the index verifies\n"
                " only filters whose access predicate, one equality, the event\n"
                " satisfies.)\n");
  }

  std::printf("\n(e) Broker-tier client scaling: one siena tree of 16 brokers, 64\n"
              "    topics, one topic-pinned value-window subscription per client,\n"
              "    200 Zipf(s=0.9) publishes.  'transit' counts routing-table\n"
              "    entries learned from neighbour brokers (interior state);\n"
              "    evals/pub counts FilterIndex probes per publication.\n");
  {
    struct ScaleResult {
      std::size_t transit = 0;    // sum of broker-sourced table entries
      std::size_t max_table = 0;  // largest single broker table
      double evals_per_pub = 0;   // index_probes / publish
      std::uint64_t delivered = 0;
      double wall_ms = 0;
    };
    constexpr std::size_t kScaleBrokers = 16;
    constexpr std::size_t kScalePublishers = 16;
    constexpr int kScalePublishes = 200;
    auto run_scale = [&](std::size_t n) {
      ScaleResult out;
      const auto t0 = std::chrono::steady_clock::now();
      sim::Scheduler sched;
      auto topo =
          std::make_shared<sim::UniformTopology>(kScaleBrokers + n, duration::millis(5));
      sim::Network net(sched, topo);
      std::vector<sim::HostId> brokers;
      for (sim::HostId h = 0; h < kScaleBrokers; ++h) brokers.push_back(h);

      bench::HotspotWorkload workload(64, 0.9, /*seed=*/7);
      pubsub::SienaNetwork tree(net, brokers);
      tree.connect_tree();

      std::uint64_t delivered = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const sim::HostId host = static_cast<sim::HostId>(kScaleBrokers + i);
        tree.attach_client(host, brokers[i % kScaleBrokers]);
        tree.subscribe(host, workload.subscriber_filter(i),
                       [&delivered](const event::Event&) { ++delivered; });
        if (i % 4096 == 0) sched.run();  // drain in waves: bounds queue growth
      }
      sched.run();

      const auto before = tree.total_broker_stats();
      for (int p = 0; p < kScalePublishes; ++p) {
        tree.publish(static_cast<sim::HostId>(kScaleBrokers + (p % kScalePublishers)),
                     workload.sample_event("k" + std::to_string(p)));
        sched.run();
      }
      const auto after = tree.total_broker_stats();

      out.transit = tree.total_transit_entries();
      out.max_table = tree.max_table_entries();
      out.evals_per_pub =
          static_cast<double>(after.index_probes - before.index_probes) / kScalePublishes;
      out.delivered = delivered;
      out.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      return out;
    };

    bench::Table t({"clients", "transit", "max table", "evals/pub", "delivered", "wall ms"});
    for (std::size_t n : {std::size_t{1000}, std::size_t{10000}, std::size_t{100000}}) {
      const auto r = run_scale(n);
      t.row({bench::fmt("%zu", n), bench::fmt("%zu", r.transit),
             bench::fmt("%zu", r.max_table), bench::fmt("%.1f", r.evals_per_pub),
             bench::fmt("%llu", (unsigned long long)r.delivered),
             bench::fmt("%.0f", r.wall_ms)});
      snap.add(bench::fmt("scale.tree.n%zu.transit", n), r.transit);
      snap.add(bench::fmt("scale.tree.n%zu.max_table", n), r.max_table);
      snap.add(bench::fmt("scale.tree.n%zu.delivered", n), r.delivered);
      snap.add(bench::fmt("scale.tree.n%zu.wall_us", n),
               static_cast<std::uint64_t>(r.wall_ms * 1000.0));
      snap.add_scaled(bench::fmt("scale.tree.n%zu.evals_per_pub", n), r.evals_per_pub);
    }
    std::printf("(covering bounds transit: the clients share 320 distinct filters\n"
                " (64 topics x 5 windows), and a filter already forwarded over a link\n"
                " covers every identical one, so transit stays flat from 10^3 to 10^5\n"
                " clients.)\n");
  }

  std::printf("\n(f) Per-link batching (siena tree, binary codec, bursty publishers —\n"
              "    all publishers fire in the same tick so fan-out to a shared\n"
              "    neighbour coalesces): packets on the wire per delivered event,\n"
              "    batching off vs on:\n");
  {
    struct BatchResult {
      std::uint64_t delivered = 0;
      sim::NetworkStats net;
    };
    auto run_batch = [](bool batching) {
      BatchResult out;
      sim::Scheduler sched;
      constexpr int kBrokers = 16, kSubscribers = 64, kPublishers = 16;
      auto topo = std::make_shared<sim::UniformTopology>(
          kBrokers + kSubscribers + kPublishers, duration::millis(5));
      sim::Network net(sched, topo);
      std::vector<sim::HostId> brokers;
      for (sim::HostId h = 0; h < kBrokers; ++h) brokers.push_back(h);
      pubsub::SienaNetwork ps(net, brokers, wire::WireCodec::kBinary);
      ps.connect_tree();
      if (batching) {
        net.enable_batching(0, [](std::span<const std::size_t> sizes) {
          return wire::binary_codec().frame_size(sizes);
        });
      }
      for (int s = 0; s < kSubscribers; ++s) {
        const sim::HostId host = static_cast<sim::HostId>(kBrokers + s);
        ps.attach_client(host, brokers[static_cast<std::size_t>(s % kBrokers)]);
        event::Filter f;
        f.where("type", event::Op::kEq, "reading")
            .where("topic", event::Op::kEq, "topic" + std::to_string(s % 8));
        ps.subscribe(host, f, [&out](const event::Event&) { ++out.delivered; });
      }
      for (int p = 0; p < kPublishers; ++p) {
        ps.attach_client(static_cast<sim::HostId>(kBrokers + kSubscribers + p),
                         brokers[static_cast<std::size_t>(p % kBrokers)]);
      }
      sched.run();
      net.reset_stats();
      // Bursts: every publisher fires a sensor sweep (8 readings) in the
      // same virtual instant, then the network drains — this is where
      // same-link sends pile up.
      for (int round = 0; round < 20; ++round) {
        for (int p = 0; p < kPublishers; ++p) {
          for (int burst = 0; burst < 8; ++burst) {
            event::Event e("reading");
            e.set("topic", "topic" + std::to_string((round + p + burst) % 8))
                .set("value", round);
            ps.publish(static_cast<sim::HostId>(kBrokers + kSubscribers + p), e);
          }
        }
        sched.run();
      }
      out.net = net.stats();
      return out;
    };
    const auto off = run_batch(false);
    const auto on = run_batch(true);
    bench::Table t({"batching", "packets", "messages", "frames", "bytes", "delivered",
                    "pkts/delivery"});
    auto per_delivery = [](const BatchResult& r) {
      return static_cast<double>(r.net.packets_sent()) /
             static_cast<double>(r.delivered ? r.delivered : 1);
    };
    for (const auto* r : {&off, &on}) {
      t.row({r == &off ? "off" : "on",
             bench::fmt("%llu", (unsigned long long)r->net.packets_sent()),
             bench::fmt("%llu", (unsigned long long)r->net.messages_sent),
             bench::fmt("%llu", (unsigned long long)r->net.frames_sent),
             bench::fmt("%llu", (unsigned long long)r->net.bytes_sent),
             bench::fmt("%llu", (unsigned long long)r->delivered),
             bench::fmt("%.2f", per_delivery(*r))});
    }
    if (on.delivered != off.delivered) {
      std::printf("  WARNING: batching changed the delivery count!\n");
    }
    std::printf("  (same deliveries, fewer packets: members riding a shared frame pay\n"
                "   one header and one fault draw — DESIGN.md §12.)\n");
    snap.add("batch.off.packets", off.net.packets_sent());
    snap.add("batch.off.delivered", off.delivered);
    snap.add("batch.on.packets", on.net.packets_sent());
    snap.add("batch.on.frames", on.net.frames_sent);
    snap.add("batch.on.members", on.net.batched_messages);
    snap.add("batch.on.delivered", on.delivered);
    snap.add_scaled("batch.off.packets_per_delivery", per_delivery(off));
    snap.add_scaled("batch.on.packets_per_delivery", per_delivery(on));
  }

  std::printf("\nShape check: all services deliver the same events, but the central\n"
              "server is the hotspot (every message funnels through one node);\n"
              "flooding spends broker messages on uninterested branches; the\n"
              "content-based router's hotspot and traffic stay lowest and grow\n"
              "slowest with population — the paper's scalability argument.\n");
  return snap.write() ? 0 : 1;
}
