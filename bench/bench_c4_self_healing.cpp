// C4 — §4.6: "a rule might create 5 copies of some data for resilience,
// but over time some of these might become unavailable — in which case
// further copies should be made.  An obvious analogy is with RAID
// systems, which self-heal."
//
// Objects stored at k=5; nodes crash at rate lambda; measure availability
// (fraction of reads that succeed), surviving copy counts and repair
// traffic, with healing on vs off, across churn intensities.
#include <memory>
#include <utility>

#include "bench_util.hpp"
#include "obs/metrics_hub.hpp"
#include "sim/metrics.hpp"
#include "overlay/overlay_network.hpp"
#include "sim/churn.hpp"
#include "sim/durable_disk.hpp"
#include "storage/object_store.hpp"

using namespace aa;

namespace {

struct RunResult {
  double min_copies = 0;     // min over objects at the end
  double mean_copies = 0;
  double availability = 0;   // successful reads / attempted
  std::uint64_t heal_pushes = 0;
  sim::NetworkStats net;     // full counters, incl. fault/retry columns
};

RunResult run(SimDuration mean_departure, bool healing, int objects) {
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::TransitStubTopology>(48, sim::TransitStubTopology::Params{});
  sim::Network net(sched, topo);
  overlay::OverlayNetwork::Params op;
  op.maintenance_period = duration::seconds(5);
  overlay::OverlayNetwork overlay(net, op);
  std::vector<sim::HostId> hosts;
  for (sim::HostId h = 0; h < 48; ++h) hosts.push_back(h);
  overlay.build_ring(hosts);

  storage::ObjectStore::Params sp;
  sp.replicas = 5;
  sp.healing_period = healing ? duration::seconds(10) : 0;
  sp.promiscuous_cache = false;  // availability must come from replicas
  storage::ObjectStore store(net, overlay, sp);

  Rng rng(23);
  std::vector<ObjectId> ids;
  for (int i = 0; i < objects; ++i) {
    ids.push_back(store.put(0, to_bytes("payload-" + std::to_string(i))));
  }
  sched.run_for(duration::seconds(5));

  sim::ChurnInjector::Params cp;
  cp.mean_departure_interval = mean_departure;
  cp.mean_downtime = duration::seconds(240);
  cp.graceful_fraction = 0.0;
  cp.seed = 7;
  sim::ChurnInjector churn(net, cp);
  churn.start({0});

  // 10 virtual minutes of churn with periodic read probes.
  int attempted = 0, succeeded = 0;
  for (int round = 0; round < 20; ++round) {
    sched.run_for(duration::seconds(30));
    for (int probe = 0; probe < 5; ++probe) {
      sim::HostId reader = static_cast<sim::HostId>(rng.below(48));
      while (!net.host_up(reader)) reader = static_cast<sim::HostId>(rng.below(48));
      ++attempted;
      store.get(reader, ids[rng.below(ids.size())], [&](Result<Bytes> r) {
        if (r.is_ok()) ++succeeded;
      });
    }
  }
  churn.stop();
  sched.run_for(duration::seconds(60));

  RunResult r;
  double total = 0;
  int min_copies = 1 << 20;
  for (const auto& id : ids) {
    const int copies = store.live_replicas(id);
    total += copies;
    min_copies = std::min(min_copies, copies);
  }
  r.min_copies = min_copies;
  r.mean_copies = total / static_cast<double>(ids.size());
  r.availability = attempted > 0 ? static_cast<double>(succeeded) / attempted : 0;
  r.heal_pushes = store.stats().heal_pushes;
  r.net = net.stats();
  return r;
}

// Fault-sweep variant: fixed moderate churn with healing on, sweeping
// the per-link drop probability, with replica repair either on the raw
// datagram path or on the ack/retry reliable transport ("store.r" +
// "ov.r" for overlay maintenance).  Reports read delivery rate and the
// retry overhead the reliable path spends to keep copies alive.
RunResult run_fault_sweep(double drop, bool reliable, int objects) {
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::TransitStubTopology>(48, sim::TransitStubTopology::Params{});
  sim::Network net(sched, topo);
  overlay::OverlayNetwork::Params op;
  op.maintenance_period = duration::seconds(5);
  op.reliable_maintenance = reliable;
  overlay::OverlayNetwork overlay(net, op);
  std::vector<sim::HostId> hosts;
  for (sim::HostId h = 0; h < 48; ++h) hosts.push_back(h);
  overlay.build_ring(hosts);

  storage::ObjectStore::Params sp;
  sp.replicas = 5;
  sp.healing_period = duration::seconds(10);
  sp.promiscuous_cache = false;
  sp.reliable_repair = reliable;
  storage::ObjectStore store(net, overlay, sp);

  Rng rng(23);
  std::vector<ObjectId> ids;
  for (int i = 0; i < objects; ++i) {
    ids.push_back(store.put(0, to_bytes("payload-" + std::to_string(i))));
  }
  sched.run_for(duration::seconds(5));
  net.reset_stats();

  sim::LinkFaults faults;
  faults.drop = drop;
  faults.duplicate = drop > 0 ? 0.02 : 0.0;
  faults.seed = 0xFA17;
  net.set_link_faults(faults);

  sim::ChurnInjector::Params cp;
  cp.mean_departure_interval = duration::seconds(30);
  // Longer than the run: crashed hosts stay down, so lost copies only
  // come back through healing pushes — the path under test.
  cp.mean_downtime = duration::seconds(600);
  cp.graceful_fraction = 0.0;
  cp.seed = 7;
  sim::ChurnInjector churn(net, cp);
  churn.start({0});

  // Copy counts are sampled every round *while* faults and churn are
  // active (an end-of-run snapshot converges in both arms, because the
  // healing sweep offers the copy every period until it lands): the
  // time-averaged count shows how long objects sit under-replicated.
  int attempted = 0, succeeded = 0;
  double copies_accum = 0;
  int copies_samples = 0, min_copies = 1 << 20;
  for (int round = 0; round < 10; ++round) {
    // Sample at sub-healing-period granularity (5 s vs the 10 s sweep),
    // otherwise the under-replication windows fall between samples.
    for (int step = 0; step < 6; ++step) {
      sched.run_for(duration::seconds(5));
      for (const auto& id : ids) {
        const int copies = store.live_replicas(id);
        copies_accum += copies;
        ++copies_samples;
        min_copies = std::min(min_copies, copies);
      }
    }
    for (int probe = 0; probe < 5; ++probe) {
      sim::HostId reader = static_cast<sim::HostId>(rng.below(48));
      while (!net.host_up(reader)) reader = static_cast<sim::HostId>(rng.below(48));
      ++attempted;
      store.get(reader, ids[rng.below(ids.size())], [&](Result<Bytes> r) {
        if (r.is_ok()) ++succeeded;
      });
    }
  }
  churn.stop();
  sched.run_for(duration::seconds(60));

  RunResult r;
  r.min_copies = min_copies;
  r.mean_copies = copies_accum / static_cast<double>(copies_samples);
  r.availability = attempted > 0 ? static_cast<double>(succeeded) / attempted : 0;
  r.heal_pushes = store.stats().heal_pushes;
  r.net = net.stats();
  return r;
}

// Crash-recovery sweep: one node crashes and rejoins under each
// durability tier.  Two costs trade off — what a tier pays *during* the
// run (write amplification: physical bytes issued to disk per logical
// byte mutated) against what the crash costs *afterwards* (local replay
// time, and how long the node sits empty waiting on healing pushes).
struct TierRecovery {
  double write_amp = 0;             // physical/logical disk bytes
  std::uint64_t disk_bytes = 0;     // physical bytes issued to disk
  double recovery_us = 0;           // modelled replay read latency
  std::uint64_t records_replayed = 0;
  std::uint64_t torn_discarded = 0;
  std::size_t copies_at_rejoin = 0;  // victim replicas right after recovery
  std::size_t copies_before = 0;     // victim replicas just before the crash
  double refill_ms = -1;             // rejoin -> pre-crash copy set restored
};

TierRecovery run_tier_recovery(storage::StoreTier tier, int workload_puts) {
  sim::Scheduler sched;
  auto topo = std::make_shared<sim::UniformTopology>(16, duration::millis(1));
  sim::Network net(sched, topo);
  overlay::OverlayNetwork::Params op;
  op.maintenance_period = 0;
  overlay::OverlayNetwork overlay(net, op);
  std::vector<sim::HostId> hosts;
  for (sim::HostId h = 0; h < 16; ++h) hosts.push_back(h);
  overlay.build_ring(hosts);

  sim::DiskParams dp;
  dp.fsync_latency = duration::millis(5);
  dp.seed = 0xC4;
  sim::DurableDisk disk(net, dp);

  storage::ObjectStore::Params sp;
  sp.replicas = 3;
  sp.healing_period = duration::seconds(5);
  sp.promiscuous_cache = false;
  sp.tier = tier;
  sp.checkpoint_every = 8;
  sp.disk = &disk;
  storage::ObjectStore store(net, overlay, sp);
  sim::ChurnInjector churn(net, {});
  store.attach_churn(churn);

  // Base objects (used for victim selection), then a put workload that
  // exercises the journal path — this is what write amplification and
  // WAL replay are measured over.
  std::vector<ObjectId> base_ids;
  for (int i = 0; i < 10; ++i) {
    base_ids.push_back(store.put(static_cast<sim::HostId>(i % 16),
                                 to_bytes("durable-base-" + std::to_string(i))));
  }
  sched.run_for(duration::seconds(2));
  for (int i = 0; i < workload_puts; ++i) {
    const sim::HostId from = static_cast<sim::HostId>((i * 5) % 16);
    sched.after(duration::millis(50) * (i + 1), [&store, from, i] {
      store.put(from, to_bytes("durable-load-" + std::to_string(i)));
    });
  }
  sched.run_for(duration::millis(2500));

  // Victim: holds a base replica but roots none of the base objects, so
  // root-driven healing can refill every base copy after the rejoin.
  sim::HostId victim = sim::kNoHost;
  for (sim::HostId h : hosts) {
    bool holds_base = false, roots_base = false;
    for (const ObjectId& id : base_ids) {
      if (store.node(h)->replica(id) != nullptr) holds_base = true;
      overlay::OverlayNode* n = overlay.node_at(h);
      if (n == nullptr || !n->next_hop(id).has_value()) roots_base = true;
    }
    if (holds_base && !roots_base) {
      victim = h;
      break;
    }
  }
  TierRecovery r;
  if (victim == sim::kNoHost) {
    std::printf("  (no root-free replica holder; skipping tier %s)\n",
                storage::tier_name(tier));
    return r;
  }
  std::vector<ObjectId> held;  // the base copies the crash destroys
  for (const ObjectId& id : base_ids) {
    if (store.node(victim)->replica(id) != nullptr) held.push_back(id);
  }
  r.copies_before = store.node(victim)->replica_ids().size();

  churn.kill(victim, /*graceful=*/false);
  sched.run_for(duration::millis(400));
  churn.revive(victim);  // runs the recovery hook (replay for durable tiers)
  r.copies_at_rejoin = store.node(victim)->replica_ids().size();

  // Refill clock: how long until every base copy the victim held is
  // back.  Durable tiers restore from disk at rejoin (~0); the volatile
  // tier waits for the next healing sweeps.
  const SimTime rejoined = sched.now();
  for (int step = 0; step < 300; ++step) {
    bool all_back = true;
    for (const ObjectId& id : held) {
      if (store.node(victim)->replica(id) == nullptr) {
        all_back = false;
        break;
      }
    }
    if (all_back) {
      r.refill_ms = static_cast<double>(sched.now() - rejoined) / 1000.0;
      break;
    }
    sched.run_for(duration::millis(100));
  }

  const storage::DurabilityStats dur = store.durability_stats();
  r.write_amp = dur.write_amplification();
  r.disk_bytes = disk.stats().bytes_written;
  r.recovery_us = static_cast<double>(dur.recovery_us_total);
  r.records_replayed = dur.records_replayed;
  r.torn_discarded = dur.torn_records_discarded;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::headline("C4 (§4.6)", "self-healing replication under churn (the RAID analogy)");
  bench::Snapshot snap("c4", argc, argv);

  bench::Table table({"departure s", "healing", "availability", "copies mean", "copies min",
                      "heal pushes"});
  std::vector<std::pair<std::string, RunResult>> results;
  for (SimDuration mean_departure : {duration::seconds(60), duration::seconds(15)}) {
    for (bool healing : {false, true}) {
      const auto r = run(mean_departure, healing, 25);
      table.row({bench::fmt("%lld", (long long)(mean_departure / 1000000)),
                 healing ? "on" : "off", bench::fmt("%.1f%%", r.availability * 100),
                 bench::fmt("%.1f", r.mean_copies), bench::fmt("%.0f", r.min_copies),
                 bench::fmt("%llu", (unsigned long long)r.heal_pushes)});
      results.emplace_back(bench::fmt("dep=%llds healing=%s",
                                      (long long)(mean_departure / 1000000),
                                      healing ? "on" : "off"),
                           r);
    }
  }
  for (const auto& [label, r] : results) bench::net_line(label, r.net);
  for (const auto& [label, r] : results) {
    sim::MetricsRegistry reg;
    obs::export_stats(reg, "net", r.net);
    reg.add("bench.heal_pushes", r.heal_pushes);
    reg.add("bench.availability_pct", static_cast<std::uint64_t>(r.availability * 100));
    bench::metrics_line("C4 " + label, reg);
    snap.add("churn." + label + ".heal_pushes", r.heal_pushes);
    // The whole run's traffic, repair included, pinned at --threshold 0.
    snap.add("churn." + label + ".messages", r.net.messages_sent);
    snap.add("churn." + label + ".bytes", r.net.bytes_sent);
    snap.add_scaled("churn." + label + ".availability", r.availability);
    snap.add_scaled("churn." + label + ".copies_mean", r.mean_copies);
  }

  std::printf("\n(b) Fault sweep — per-link drop probability vs read delivery rate,\n"
              "    healing on, repair traffic raw vs reliable (ack/retry):\n");
  {
    bench::Table sweep({"drop", "reliable", "availability", "copies mean", "copies min",
                        "heal pushes", "retransmits", "fault drops"});
    for (double drop : {0.0, 0.10, 0.20}) {
      for (bool reliable : {false, true}) {
        const auto r = run_fault_sweep(drop, reliable, 25);
        sweep.row({bench::fmt("%.0f%%", drop * 100), reliable ? "on" : "off",
                   bench::fmt("%.1f%%", r.availability * 100),
                   bench::fmt("%.1f", r.mean_copies),
                   bench::fmt("%.0f", r.min_copies),
                   bench::fmt("%llu", (unsigned long long)r.heal_pushes),
                   bench::fmt("%llu", (unsigned long long)r.net.retransmits),
                   bench::fmt("%llu", (unsigned long long)r.net.dropped_by_fault)});
      }
    }
    std::printf("(copies are time-averaged while faults are live.  Raw repair needs a\n"
                " digest, a want and a push to arrive, and losing any one waits a full\n"
                " healing period: at drop p a repair takes 1/(1-p)^3 sweeps on average,\n"
                " so objects sit under-replicated slightly longer; the periodic sweep\n"
                " makes even the raw path self-correcting, which is why the copy gap\n"
                " stays small.  The big lever is overlay maintenance: the reliable arm\n"
                " keeps routing tables correct under loss, so raw GET/reply reads --\n"
                " raw in both arms -- still find live replica holders.)\n");
  }

  std::printf("\n(c) Crash-recovery sweep — durability tier vs what the tier costs\n"
              "    during the run (write amplification) and after a crash\n"
              "    (replay time, and how long the node sits empty):\n");
  {
    bench::Table tiers({"tier", "write amp", "disk KiB", "replay us", "records",
                        "rejoin copies", "refill ms"});
    for (storage::StoreTier tier :
         {storage::StoreTier::kVolatile, storage::StoreTier::kPersistent,
          storage::StoreTier::kLogged}) {
      const auto r = run_tier_recovery(tier, 40);
      const char* name = storage::tier_name(tier);
      tiers.row({name, bench::fmt("%.2fx", r.write_amp),
                 bench::fmt("%.1f", r.disk_bytes / 1024.0),
                 bench::fmt("%.0f", r.recovery_us),
                 bench::fmt("%llu", (unsigned long long)r.records_replayed),
                 bench::fmt("%zu/%zu", r.copies_at_rejoin, r.copies_before),
                 r.refill_ms < 0 ? "never" : bench::fmt("%.0f", r.refill_ms)});
      const std::string ns = std::string("recovery.") + name;
      snap.add_scaled(ns + ".write_amp", r.write_amp);
      snap.add(ns + ".disk_bytes", r.disk_bytes);
      snap.add(ns + ".replay_us", static_cast<std::uint64_t>(r.recovery_us));
      snap.add(ns + ".records_replayed", r.records_replayed);
      snap.add(ns + ".copies_at_rejoin", r.copies_at_rejoin);
      snap.add_scaled(ns + ".refill_ms", r.refill_ms < 0 ? 0.0 : r.refill_ms);
    }
    std::printf("(volatile pays nothing during the run but rejoins empty and waits\n"
                " a healing sweep; checkpoint-per-write restores instantly at brutal\n"
                " amplification; the WAL tier restores instantly too, at amplification\n"
                " close to 1 plus the periodic checkpoints.)\n");
  }
  snap.write();

  std::printf("\nShape check: without healing, copy counts decay under churn and\n"
              "availability sags as replicas die faster than they return; with\n"
              "healing, the sweep recreates lost copies and keeps counts pinned\n"
              "near 5 and availability near 100%%, at the cost of repair traffic.\n");
  return 0;
}
