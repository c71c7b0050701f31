// C8 — §5: "In order to deal with unknown events, a mechanism is needed
// ... for routing unknown event types to discovery matchlets.  These
// look for code capable of matching these new events in the storage
// architecture and deploy this code onto the network."
//
// Handler bundles for K event types are published in the code directory
// (object store); a stream introduces novel types over time.  Measures
// the time from an unknown type's first sighting to a deployed handler
// and the fraction of each type's events that arrive after its handler
// is live.
#include <memory>

#include "bench_util.hpp"
#include "sim/metrics.hpp"
#include "bundle/deployer.hpp"
#include "event/filter_parser.hpp"
#include "match/discovery.hpp"
#include "match/matchlet.hpp"
#include "overlay/overlay_network.hpp"

using namespace aa;

int main(int argc, char** argv) {
  bench::headline("C8 (§5)", "discovery matchlets: unknown event types fetch their own "
                             "handler code from storage");
  bench::Snapshot snap("c8", argc, argv);

  sim::Scheduler sched;
  sim::TransitStubTopology::Params tp;
  tp.regions = 4;
  auto topo = std::make_shared<sim::TransitStubTopology>(24, tp);
  sim::Network net(sched, topo);
  overlay::OverlayNetwork::Params op;
  op.maintenance_period = 0;
  overlay::OverlayNetwork overlay(net, op);
  std::vector<sim::HostId> hosts;
  for (sim::HostId h = 0; h < 24; ++h) hosts.push_back(h);
  overlay.build_ring(hosts);
  storage::ObjectStore store(net, overlay, {});
  bundle::ThinServerRuntime runtime(net, "secret");
  bundle::BundleDeployer deployer(net, runtime);
  pipeline::PipelineNetwork pipes(net);
  match::KnowledgeBase kb;
  match::register_matchlet_installer(runtime, pipes,
                                     [&](sim::HostId) -> match::KnowledgeBase& { return kb; });
  for (sim::HostId h = 0; h < 24; ++h) runtime.start_server(h, {"run.matchlet"});

  // Publish handler bundles for 8 sensor types into the code directory.
  const int kTypes = 8;
  for (int t = 0; t < kTypes; ++t) {
    const std::string type = "sensor" + std::to_string(t);
    match::Rule rule;
    rule.name = type + "-handler";
    match::TriggerPattern trig;
    trig.alias = "e";
    trig.filter = event::parse_filter("type = \"" + type + "\"").value();
    trig.window = duration::minutes(1);
    rule.triggers.push_back(trig);
    rule.emit.type = type + "-derived";
    xml::Element config("config");
    config.add_child(rule.to_xml());
    bundle::CodeBundle handler(rule.name, "matchlet", config);
    handler.require_capability("run.matchlet");
    store.put_named(0, match::DiscoveryService::handler_key(type),
                    to_bytes(handler.to_xml_string()));
  }
  sched.run();

  // The discovery matchlet lives on host 2; handlers deploy round-robin.
  std::map<std::string, SimTime> first_seen, handler_live;
  Rng rng(13);
  match::DiscoveryService discovery(
      2, store, deployer,
      [&](const std::string& type) {
        // "Handled" once its matchlet component exists somewhere.
        for (sim::HostId h = 0; h < 24; ++h) {
          if (pipes.exists(pipeline::ComponentRef{h, type + "-handler"})) return true;
        }
        return false;
      },
      [&](const std::string&) { return static_cast<sim::HostId>(4 + rng.below(20)); });

  // Stream: every 20 s an event arrives; a new type debuts every 2 min.
  int handled_events = 0, unknown_events = 0;
  int introduced = 0;
  for (int tick = 0; tick < 60; ++tick) {
    if (tick % 6 == 0 && introduced < kTypes) ++introduced;
    const std::string type = "sensor" + std::to_string(rng.below(static_cast<std::uint64_t>(introduced)));
    event::Event e(type);
    e.set("value", static_cast<std::int64_t>(tick)).set_time(sched.now());
    if (!first_seen.contains(type)) first_seen[type] = sched.now();
    if (discovery.consider(e)) {
      ++handled_events;
    } else {
      ++unknown_events;
    }
    sched.run_for(duration::seconds(20));
    for (const std::string& t : discovery.deployed_types()) {
      if (!handler_live.contains(t)) handler_live[t] = sched.now();
    }
  }
  sched.run_for(duration::minutes(1));

  bench::Table table({"type", "first seen s", "handler live s", "time-to-handle s"});
  sim::Histogram tth;
  for (const auto& [type, seen] : first_seen) {
    const auto live = handler_live.find(type);
    const double delta = live != handler_live.end() ? to_seconds(live->second - seen) : -1;
    if (delta >= 0) tth.record(delta);
    table.row({type, bench::fmt("%.0f", to_seconds(seen)),
               live != handler_live.end() ? bench::fmt("%.0f", to_seconds(live->second)) : "never",
               delta >= 0 ? bench::fmt("%.0f", delta) : "-"});
  }
  std::printf("\nhandlers deployed: %llu/%d;  events before handler: %d, after: %d;\n"
              "mean time-to-handle: %.0f s (sampling granularity 20 s)\n",
              (unsigned long long)discovery.stats().handlers_deployed, kTypes, unknown_events,
              handled_events, tth.mean());
  snap.add("handlers_deployed", discovery.stats().handlers_deployed);
  snap.add("types", static_cast<std::uint64_t>(kTypes));
  snap.add("events_unknown", static_cast<std::uint64_t>(unknown_events));
  snap.add("events_handled", static_cast<std::uint64_t>(handled_events));
  snap.add_scaled("time_to_handle_s_mean", tth.mean());
  std::printf("\nShape check: every novel type converges to a deployed handler\n"
              "within one sighting + fetch + push round; only the debut events\n"
              "of each type go unhandled.\n");
  return snap.write() ? 0 : 1;
}
