// C2 — §3: the P2P stores the paper builds on use "a deterministic
// routing algorithm by Plaxton, which permits the discovery of
// documents stored in a wide area network".  Plaxton/Pastry routing
// resolves any key in O(log N) hops with compact per-node state.
//
// Sweep the ring size; report hop counts, per-node routing state, and
// latency stretch with and without proximity neighbour selection (the
// DESIGN.md ablation).
#include <cmath>
#include <memory>

#include "bench_util.hpp"
#include "overlay/overlay_network.hpp"

using namespace aa;

namespace {

struct RunResult {
  double hops_mean = 0, hops_p99 = 0;
  double state_mean = 0;
  double stretch = 0;
  int delivered = 0, at_true_root = 0;
};

RunResult run(std::size_t n, bool pns, int lookups) {
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::EuclideanTopology>(n, 1000.0, duration::millis(1),
                                                       duration::micros(100), 7);
  sim::Network net(sched, topo);
  overlay::OverlayNetwork::Params params;
  params.proximity_selection = pns;
  params.maintenance_period = 0;
  overlay::OverlayNetwork overlay(net, params);
  std::vector<sim::HostId> hosts;
  for (sim::HostId h = 0; h < n; ++h) hosts.push_back(h);
  overlay.build_ring(hosts);

  RunResult r;
  double stretch_sum = 0;
  int stretch_count = 0;
  SimTime sent_at = 0;
  for (sim::HostId h : overlay.node_hosts()) {
    overlay.register_app("b", h,
                         [&, h](const ObjectId& key, const Bytes&, const overlay::RouteInfo& info) {
                           ++r.delivered;
                           if (overlay.true_root(key).host == h) ++r.at_true_root;
                           const SimDuration direct = topo->latency(info.origin, h);
                           if (direct > 0) {
                             stretch_sum += static_cast<double>(sched.now() - sent_at) /
                                            static_cast<double>(direct);
                             ++stretch_count;
                           }
                         });
  }
  Rng rng(5);
  for (int i = 0; i < lookups; ++i) {
    sent_at = sched.now();
    overlay.route(static_cast<sim::HostId>(rng.below(n)), rng.uid(), "b", {});
    sched.run();  // sequential lookups: exact latency per route
  }

  r.hops_mean = overlay.route_hops().mean();
  r.hops_p99 = overlay.route_hops().percentile(99);
  double state = 0;
  for (sim::HostId h : overlay.node_hosts()) {
    state += static_cast<double>(overlay.node_at(h)->routing_entries() +
                                 overlay.node_at(h)->leaf_set().size());
  }
  r.state_mean = state / static_cast<double>(n);
  r.stretch = stretch_count > 0 ? stretch_sum / stretch_count : 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::headline("C2 (§3)", "Plaxton/Pastry routing: O(log N) hops, compact state, "
                             "deterministic root delivery");
  bench::Snapshot snap("c2", argc, argv);

  std::printf("\n(a) Ring-size sweep (PNS on, 150 lookups each):\n");
  bench::Table table({"nodes", "log16(N)", "hops mean", "hops p99", "state/node",
                      "root hits"});
  for (std::size_t n : {64, 256, 1024}) {
    const auto r = run(n, true, 150);
    table.row({bench::fmt("%zu", n), bench::fmt("%.2f", std::log2(double(n)) / 4.0),
               bench::fmt("%.2f", r.hops_mean), bench::fmt("%.1f", r.hops_p99),
               bench::fmt("%.1f", r.state_mean),
               bench::fmt("%d/%d", r.at_true_root, r.delivered)});
    snap.add_scaled(bench::fmt("ring.nodes%zu.hops_mean", n), r.hops_mean);
    snap.add_scaled(bench::fmt("ring.nodes%zu.hops_p99", n), r.hops_p99);
    snap.add_scaled(bench::fmt("ring.nodes%zu.state_per_node", n), r.state_mean);
    snap.add(bench::fmt("ring.nodes%zu.delivered", n),
             static_cast<std::uint64_t>(r.delivered));
    snap.add(bench::fmt("ring.nodes%zu.at_true_root", n),
             static_cast<std::uint64_t>(r.at_true_root));
  }

  std::printf("\n(b) Proximity neighbour selection ablation (256 nodes):\n");
  bench::Table pns_table({"neighbours", "hops mean", "stretch"});
  for (bool pns : {false, true}) {
    const auto r = run(256, pns, 120);
    pns_table.row({pns ? "proximity" : "first-seen", bench::fmt("%.2f", r.hops_mean),
                   bench::fmt("%.2f", r.stretch)});
    const char* key = pns ? "pns.proximity" : "pns.first_seen";
    snap.add_scaled(std::string(key) + ".hops_mean", r.hops_mean);
    snap.add_scaled(std::string(key) + ".stretch", r.stretch);
  }

  std::printf("\nShape check: hops grow ~log16(N) (quadrupling N adds ~1 hop);\n"
              "per-node state stays polylogarithmic, nowhere near O(N); every\n"
              "lookup lands on the key's numerically closest live node; PNS cuts\n"
              "latency stretch without changing hop counts.\n");
  return snap.write() ? 0 : 1;
}
