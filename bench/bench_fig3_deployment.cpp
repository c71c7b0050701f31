// F3 — Figure 3: "Pipeline deployment infrastructure."
//
// The figure shows code bundles arriving at a thin server, passing the
// pipeline-assembly process, and becoming a running pipeline.  This
// harness measures the deployment pipeline itself: push -> verify ->
// install -> acknowledge, across bundle counts, payload sizes, and
// in-place version upgrades (§4.3's incremental evolution).
#include <memory>

#include "bench_util.hpp"
#include "bundle/deployer.hpp"
#include "obs/metrics_hub.hpp"
#include "pipeline/installers.hpp"
#include "sim/metrics.hpp"

using namespace aa;

namespace {

struct Fixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::Topology> topo;
  sim::Network net;
  pipeline::PipelineNetwork pipes;
  bundle::ThinServerRuntime runtime;
  bundle::BundleDeployer deployer;

  explicit Fixture(std::size_t hosts)
      : topo(std::make_shared<sim::UniformTopology>(hosts, duration::millis(20))),
        net(sched, topo),
        pipes(net),
        runtime(net, "authority"),
        deployer(net, runtime) {
    pipeline::register_pipeline_installers(runtime, pipes, nullptr);
    for (sim::HostId h = 0; h < hosts; ++h) runtime.start_server(h, {"run.pipeline"});
  }
};

bundle::CodeBundle make_bundle(const std::string& name, std::size_t payload_bytes) {
  xml::Element config("config");
  config.set_attribute("filter", "celsius > 10");
  bundle::CodeBundle b(name, "pipe.filter", config);
  b.require_capability("run.pipeline");
  b.set_payload(Bytes(payload_bytes, 0x42));
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = bench::trace_arg(argc, argv);
  bench::headline("F3 (Figure 3)",
                  "code-push deployment: bundles -> thin servers -> assembled pipelines");
  bench::Snapshot snap("fig3", argc, argv);

  std::printf("\n(a) Fleet deployment: b bundles pushed to b distinct thin servers:\n");
  bench::Table fleet({"bundles", "all installed", "makespan ms", "mean ack ms", "bytes"});
  for (int bundles : {1, 4, 16, 64}) {
    Fixture f(static_cast<std::size_t>(bundles + 1));
    // The trace rides on the 16-bundle fleet: one trace per push, each
    // covering push -> verify -> install -> acknowledge.
    const bool traced = bundles == 16 && !trace_path.empty();
    if (traced) f.net.enable_tracing();
    int installed = 0;
    sim::Histogram ack;
    const SimTime start = f.sched.now();
    for (int i = 0; i < bundles; ++i) {
      const SimTime pushed_at = f.sched.now();
      sim::Network::TraceScope root(f.net, f.net.start_trace());
      f.deployer.push(0, static_cast<sim::HostId>(i + 1), make_bundle("m" + std::to_string(i), 2048),
                      [&, pushed_at](Result<bundle::DeployResult> r) {
                        if (r.is_ok() && r.value() == bundle::DeployResult::kInstalled) {
                          ++installed;
                          ack.record(to_millis(f.sched.now() - pushed_at));
                        }
                      });
    }
    f.sched.run();
    fleet.row({bench::fmt("%d", bundles), bench::fmt("%d/%d", installed, bundles),
               bench::fmt("%.1f", to_millis(f.sched.now() - start)),
               bench::fmt("%.1f", ack.mean()),
               bench::fmt("%llu", (unsigned long long)f.net.stats().bytes_sent)});
    snap.add(bench::fmt("fleet%d.installed", bundles), static_cast<std::uint64_t>(installed));
    snap.add_scaled(bench::fmt("fleet%d.makespan_ms", bundles),
                    to_millis(f.sched.now() - start));
    snap.add_scaled(bench::fmt("fleet%d.ack_ms_mean", bundles), ack.mean());
    snap.add(bench::fmt("fleet%d.bytes", bundles), f.net.stats().bytes_sent);
    sim::MetricsRegistry reg;
    obs::export_stats(reg, "net", f.net.stats());
    obs::export_stats(reg, "deploy", f.runtime.stats());
    bench::metrics_line(bench::fmt("F3 bundles=%d", bundles), reg);
    if (traced) bench::export_trace(f.net, trace_path);
  }

  std::printf("\n(b) Payload-size sweep (single push, 20 ms one-way link):\n");
  bench::Table size_table({"payload B", "ack ms"});
  for (std::size_t payload : {256u, 4096u, 65536u, 1048576u}) {
    Fixture f(2);
    SimTime done_at = 0;
    f.deployer.push(0, 1, make_bundle("m", payload),
                    [&](Result<bundle::DeployResult>) { done_at = f.sched.now(); });
    f.sched.run();
    size_table.row({bench::fmt("%zu", payload), bench::fmt("%.1f", to_millis(done_at))});
    snap.add_scaled(bench::fmt("payload%zu.ack_ms", payload), to_millis(done_at));
  }

  std::printf("\n(c) In-place evolution: version upgrades of a running component:\n");
  bench::Table evo({"version", "result", "ack ms"});
  {
    Fixture f(2);
    for (int version = 1; version <= 3; ++version) {
      auto b = make_bundle("stage", 2048);
      b.set_version(version);
      const SimTime pushed_at = f.sched.now();
      std::string outcome = "?";
      SimTime done_at = 0;
      f.deployer.push(0, 1, b, [&](Result<bundle::DeployResult> r) {
        outcome = r.is_ok() ? bundle::deploy_result_name(r.value()) : "timeout";
        done_at = f.sched.now();
      });
      f.sched.run();
      evo.row({bench::fmt("%d", version), outcome, bench::fmt("%.1f", to_millis(done_at - pushed_at))});
    }
    // Stale re-push of version 1 is an idempotent no-op.
    auto b = make_bundle("stage", 2048);
    b.set_version(1);
    std::string outcome = "?";
    f.deployer.push(0, 1, b, [&](Result<bundle::DeployResult> r) {
      outcome = r.is_ok() ? bundle::deploy_result_name(r.value()) : "timeout";
    });
    f.sched.run();
    evo.row({"1 (stale)", outcome, "-"});
  }

  std::printf("\n(d) Verification rejects (security checks of §4.3):\n");
  {
    Fixture f(2);
    bench::Table sec({"case", "result"});
    auto good = make_bundle("ok", 128);
    std::string outcome;
    f.deployer.push_with_seal(0, 1, good, good.seal("attacker"),
                              [&](Result<bundle::DeployResult> r) {
                                outcome = r.is_ok() ? bundle::deploy_result_name(r.value()) : "?";
                              });
    f.sched.run();
    sec.row({"forged seal", outcome});

    auto nocap = make_bundle("nc", 128);
    nocap.require_capability("run.superuser");
    f.deployer.push(0, 1, nocap, [&](Result<bundle::DeployResult> r) {
      outcome = r.is_ok() ? bundle::deploy_result_name(r.value()) : "?";
    });
    f.sched.run();
    sec.row({"missing capability", outcome});
  }

  std::printf("\nShape check: makespan grows sub-linearly with fleet size (pushes\n"
              "overlap in flight); ack time scales with payload transfer; upgrades\n"
              "replace in place; forged or unauthorised bundles never run.\n");
  return snap.write() ? 0 : 1;
}
