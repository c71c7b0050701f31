// F1 — Figure 1: "A global matching service."
//
// The figure shows facts and events from many users flowing into the
// global infrastructure, which distils them into the few events
// relevant to each user's services ("the continuous processing of a
// very high volume of globally distributed items of information,
// distilling them down into a relatively small volume of meaningful
// events", §1.1).
//
// This harness scales the user population with a fixed service set and
// reports the distillation ratio (raw events in vs. meaningful events
// out), the end-to-end latency from publication to device delivery, and
// the heap allocations each run makes.
#include <map>

#include "alloc_counter.hpp"
#include "bench_util.hpp"
#include "sim/metrics.hpp"
#include "event/filter_parser.hpp"
#include "gloss/active_architecture.hpp"

using namespace aa;

namespace {

event::Filter filt(const std::string& text) { return event::parse_filter(text).value(); }

struct RunResult {
  std::uint64_t events_in = 0;
  std::uint64_t meaningful_out = 0;
  double mean_latency_ms = 0;
  double p95_latency_ms = 0;
  std::uint64_t network_messages = 0;
};

RunResult run(int users, const std::string& trace_path = "") {
  gloss::ActiveArchitecture::Config config;
  config.hosts = 32;
  config.brokers = 8;
  config.regions = 4;
  gloss::ActiveArchitecture arch(config);
  if (!trace_path.empty()) arch.enable_tracing();

  // Per-user preference facts: personalised thresholds.
  Rng rng(99);
  for (int u = 0; u < users; ++u) {
    match::Fact pref;
    pref.set("kind", "preference").set("user", "user" + std::to_string(u))
        .set("min_celsius", rng.uniform(15.0, 25.0));
    arch.add_fact(pref);
  }

  // The service: per-user heat suggestions — a location event joined
  // with recent weather against the user's preference fact.
  match::Rule rule;
  rule.name = "personal-heat";
  rule.cooldown = duration::minutes(10);
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

  gloss::ServiceSpec spec;
  spec.name = "heat";
  spec.input = filt("time exists");
  spec.rules = {rule};
  spec.min_instances = 2;
  arch.deploy_service(spec);
  arch.run_for(duration::seconds(30));

  // Each user's device subscribes to its own suggestions.
  RunResult result;
  sim::Histogram latency;
  for (int u = 0; u < users; ++u) {
    const auto device = static_cast<sim::HostId>(u % 32);
    arch.subscribe_user(device,
                        filt("type = suggestion and user = \"user" + std::to_string(u) + "\""),
                        [&, u](const event::Event& e) {
                          ++result.meaningful_out;
                          // The emitted event's time is the match time;
                          // measure delivery lag from there.
                          latency.record(to_millis(arch.scheduler().now() - e.time()));
                        });
  }
  arch.run_for(duration::seconds(10));
  arch.network().reset_stats();

  // 10 virtual minutes of sensor traffic: every user reports location
  // each 30 s; four regional weather sensors each 60 s.
  for (int tick = 0; tick < 20; ++tick) {
    for (int u = 0; u < users; ++u) {
      event::Event loc("user-location");
      loc.set("user", "user" + std::to_string(u))
          .set("lat", rng.uniform(56.0, 56.7))
          .set("lon", rng.uniform(-3.0, -2.0));
      arch.publish(static_cast<sim::HostId>(u % 32), loc);
      ++result.events_in;
    }
    if (tick % 2 == 0) {
      for (int s = 0; s < 4; ++s) {
        event::Event w("temperature");
        w.set("celsius", rng.uniform(10.0, 30.0)).set("sensor", "s" + std::to_string(s));
        arch.publish(static_cast<sim::HostId>(s * 8), w);
        ++result.events_in;
      }
    }
    arch.run_for(duration::seconds(30));
  }
  arch.run_for(duration::seconds(30));

  result.mean_latency_ms = latency.mean();
  result.p95_latency_ms = latency.percentile(95);
  result.network_messages = arch.network().stats().messages_delivered;
  bench::metrics_line("F1 users=" + std::to_string(users), arch.metrics_snapshot());
  if (!trace_path.empty()) bench::export_trace(arch.network(), trace_path);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = bench::trace_arg(argc, argv);
  bench::headline("F1 (Figure 1)",
                  "global matching: high-volume input distilled to few meaningful events");
  bench::Snapshot snap("fig1", argc, argv);
  bench::Table table({"users", "events in", "meaningful", "distil ratio", "lat ms (mean)",
                      "lat ms (p95)", "net msgs", "allocs"});
  bool traced = false;
  for (int users : {16, 32, 64, 128}) {
    // The trace rides on the first (smallest) run; later runs stay
    // untraced so the scaling numbers are undisturbed by collection.
    const std::uint64_t allocs_before = bench_e2e::allocations();
    const auto r = run(users, traced ? "" : trace_path);
    const std::uint64_t allocs = bench_e2e::allocations() - allocs_before;
    traced = true;
    table.row({bench::fmt("%d", users), bench::fmt("%llu", (unsigned long long)r.events_in),
               bench::fmt("%llu", (unsigned long long)r.meaningful_out),
               bench::fmt("%.1f:1", r.meaningful_out > 0
                                        ? static_cast<double>(r.events_in) /
                                              static_cast<double>(r.meaningful_out)
                                        : 0.0),
               bench::fmt("%.1f", r.mean_latency_ms), bench::fmt("%.1f", r.p95_latency_ms),
               bench::fmt("%llu", (unsigned long long)r.network_messages),
               bench::fmt("%llu", (unsigned long long)allocs)});
    snap.add(bench::fmt("users%d.events_in", users), r.events_in);
    snap.add(bench::fmt("users%d.meaningful_out", users), r.meaningful_out);
    snap.add(bench::fmt("users%d.net_msgs", users), r.network_messages);
    snap.add(bench::fmt("users%d.allocs", users), allocs);
    snap.add_scaled(bench::fmt("users%d.lat_ms_mean", users), r.mean_latency_ms);
    snap.add_scaled(bench::fmt("users%d.lat_ms_p95", users), r.p95_latency_ms);
  }
  std::printf("\nShape check: distillation ratio >> 1 and grows with population;\n"
              "latency stays bounded as users scale (no central choke point).\n");
  return snap.write() ? 0 : 1;
}
