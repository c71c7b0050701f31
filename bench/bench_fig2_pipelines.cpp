// F2 — Figure 2: "Distributed XML pipelines."
//
// The figure shows a pipeline of components spanning two nodes, with
// events flowing intra-node (cheap) and inter-node (XML on the wire).
// This harness builds chains of depth d, splits them across two hosts
// at every possible point, and reports per-event latency and the
// traffic cost of the split — quantifying the figure's two arrow kinds.
#include <memory>

#include "bench_util.hpp"
#include "pipeline/components.hpp"
#include "sim/metrics.hpp"

using namespace aa;

namespace {

struct RunResult {
  double latency_ms = 0;        // mean event transit time through the chain
  std::uint64_t wire_bytes = 0; // bytes crossing the node boundary
  std::uint64_t intra = 0, inter = 0;
};

/// Builds a depth-d chain; components [0, split) on host 0 and
/// [split, d) on host 1, then pushes `events` through it.
RunResult run(int depth, int split, int events, const std::string& trace_path = "") {
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(2, duration::millis(10));
  sim::Network net(sched, topo);
  if (!trace_path.empty()) net.enable_tracing();
  pipeline::PipelineNetwork pipes(net);

  std::vector<pipeline::ComponentRef> chain;
  for (int i = 0; i < depth - 1; ++i) {
    const sim::HostId host = i < split ? 0 : 1;
    chain.push_back(pipes.add(host, std::make_unique<pipeline::TransformComponent>(
                                        "stage" + std::to_string(i),
                                        [](const event::Event& e) {
                                          return std::vector<event::Event>{e};
                                        })));
  }
  sim::Histogram latency;
  SimTime injected_at = 0;
  chain.push_back(pipes.add(depth - 1 < split ? 0 : 1,
                            std::make_unique<pipeline::SinkComponent>(
                                "sink", [&](const event::Event&) {
                                  latency.record(to_millis(sched.now() - injected_at));
                                })));
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    (void)pipes.connect(chain[i], chain[i + 1]);
  }

  event::Event probe("user-location");
  probe.set("user", "bob").set("lat", 56.34).set("lon", -2.79);
  for (int i = 0; i < events; ++i) {
    injected_at = sched.now();
    {
      // Each injection roots its own trace (inactive when tracing off).
      sim::Network::TraceScope root(net, net.start_trace());
      pipes.inject(chain[0], probe);
    }
    sched.run();  // one event at a time: exact per-event latency
  }

  RunResult r;
  r.latency_ms = latency.mean();
  r.wire_bytes = net.stats().bytes_sent;
  r.intra = pipes.stats().intra_node_hops;
  r.inter = pipes.stats().inter_node_hops;
  if (!trace_path.empty()) bench::export_trace(net, trace_path);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = bench::trace_arg(argc, argv);
  bench::headline("F2 (Figure 2)", "XML pipelines: intra-node vs inter-node event flow");
  bench::Snapshot snap("fig2", argc, argv);

  std::printf("\n(a) Depth sweep, single split at the midpoint (the figure's layout):\n");
  bench::Table depth_table(
      {"depth", "latency ms", "intra hops", "inter hops", "wire bytes"});
  for (int depth : {2, 4, 8, 16}) {
    const auto r = run(depth, depth / 2, 50, depth == 8 ? trace_path : "");
    depth_table.row({bench::fmt("%d", depth), bench::fmt("%.2f", r.latency_ms),
                     bench::fmt("%llu", (unsigned long long)r.intra),
                     bench::fmt("%llu", (unsigned long long)r.inter),
                     bench::fmt("%llu", (unsigned long long)r.wire_bytes)});
    snap.add_scaled(bench::fmt("depth%d.latency_ms", depth), r.latency_ms);
    snap.add(bench::fmt("depth%d.intra_hops", depth), r.intra);
    snap.add(bench::fmt("depth%d.inter_hops", depth), r.inter);
    snap.add(bench::fmt("depth%d.wire_bytes", depth), r.wire_bytes);
  }

  std::printf("\n(b) Split-point sweep at depth 8 (0 = all remote, 8 = all local):\n");
  bench::Table split_table({"split", "latency ms", "inter hops", "wire bytes"});
  for (int split : {0, 2, 4, 6, 8}) {
    const auto r = run(8, split, 50);
    split_table.row({bench::fmt("%d", split), bench::fmt("%.2f", r.latency_ms),
                     bench::fmt("%llu", (unsigned long long)r.inter),
                     bench::fmt("%llu", (unsigned long long)r.wire_bytes)});
    snap.add_scaled(bench::fmt("split%d.latency_ms", split), r.latency_ms);
    snap.add(bench::fmt("split%d.inter_hops", split), r.inter);
  }

  std::printf("\nShape check: latency is dominated by the number of inter-node\n"
              "crossings (exactly 1 for any interior split; 0 for an all-local\n"
              "chain), not by pipeline depth — components are cheap, the wire\n"
              "is not, which is why placement (F3/C5) matters.\n");
  return snap.write() ? 0 : 1;
}
