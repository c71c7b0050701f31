// Unified metrics hub: snapshots every component's existing *Stats
// struct into one namespaced sim::MetricsRegistry.
//
// Each layer already keeps counters (BrokerStats, NetworkStats, ...)
// but there was no way to read the whole system at once — the paper's
// evolution engine "monitors the running system" (§4.4/§4.6), and
// benches want one machine-readable line.  The hub copies each struct's
// fields into the registry under a dotted namespace ("net.messages_sent",
// "broker.deliveries", ...), so MetricsRegistry::to_json() exports the
// full picture.
//
// Header-only by design: the overloads below include stats headers from
// every layer, which the low-level aa_obs library must not link
// against.  Including this header from the facade (gloss) or a bench
// costs nothing at runtime until snapshot() is called.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "bundle/thin_server.hpp"
#include "deploy/evolution.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "overlay/node.hpp"
#include "pipeline/component.hpp"
#include "pipeline/pipeline_network.hpp"
#include "pubsub/broker.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/reliable.hpp"
#include "storage/object_store.hpp"
#include "storage/store_node.hpp"

namespace aa::obs {

/// Copies a stats struct's counters into `reg` under `ns` ("ns.field").
/// One overload per struct keeps additions explicit — a new field that
/// should be exported must be added here, which the round-trip unit
/// test cross-checks for the structs it covers.
inline void export_stats(sim::MetricsRegistry& reg, const std::string& ns,
                         const sim::NetworkStats& s) {
  reg.add(ns + ".messages_sent", s.messages_sent);
  reg.add(ns + ".messages_delivered", s.messages_delivered);
  reg.add(ns + ".messages_dropped", s.messages_dropped);
  reg.add(ns + ".bytes_sent", s.bytes_sent);
  reg.add(ns + ".duplicated", s.duplicated);
  reg.add(ns + ".retransmits", s.retransmits);
  reg.add(ns + ".dropped_by_fault", s.dropped_by_fault);
  reg.add(ns + ".packets_sent", s.packets_sent());
  reg.add(ns + ".batch.frames", s.frames_sent);
  reg.add(ns + ".batch.members", s.batched_messages);
  reg.add(ns + ".batch.flushes", s.batch_flushes);
}

inline void export_stats(sim::MetricsRegistry& reg, const std::string& ns,
                         const sim::ReliableStats& s) {
  reg.add(ns + ".data_sent", s.data_sent);
  reg.add(ns + ".acked", s.acked);
  reg.add(ns + ".retransmits", s.retransmits);
  reg.add(ns + ".duplicates_suppressed", s.duplicates_suppressed);
  reg.add(ns + ".give_ups", s.give_ups);
  reg.add(ns + ".incarnation_give_ups", s.incarnation_give_ups);
}

inline void export_stats(sim::MetricsRegistry& reg, const std::string& ns,
                         const sim::DiskStats& s) {
  reg.add(ns + ".writes", s.writes);
  reg.add(ns + ".appends", s.appends);
  reg.add(ns + ".bytes_written", s.bytes_written);
  reg.add(ns + ".removes", s.removes);
  reg.add(ns + ".crashed_ops", s.crashed_ops);
  reg.add(ns + ".torn_ops", s.torn_ops);
  reg.add(ns + ".ghost_ops", s.ghost_ops);
  reg.add(ns + ".lost_ops", s.lost_ops);
}

inline void export_stats(sim::MetricsRegistry& reg, const std::string& ns,
                         const storage::DurabilityStats& s) {
  reg.add(ns + ".wal_appends", s.wal_appends);
  reg.add(ns + ".wal_bytes", s.wal_bytes);
  reg.add(ns + ".checkpoints", s.checkpoints);
  reg.add(ns + ".checkpoint_bytes", s.checkpoint_bytes);
  reg.add(ns + ".logical_bytes", s.logical_bytes);
  reg.add(ns + ".recoveries", s.recoveries);
  reg.add(ns + ".records_replayed", s.records_replayed);
  reg.add(ns + ".torn_records_discarded", s.torn_records_discarded);
  reg.add(ns + ".corrupt_checkpoints", s.corrupt_checkpoints);
  reg.add(ns + ".recovery_bytes_read", s.recovery_bytes_read);
  reg.add(ns + ".recovery_us_total", s.recovery_us_total);
  // Write amplification as parts-per-thousand: the registry holds
  // integer counters, and 1000 * (physical / logical) keeps three
  // significant digits for the C4 tier curves.
  reg.add(ns + ".write_amplification_x1000",
          static_cast<std::uint64_t>(s.write_amplification() * 1000.0));
}

inline void export_stats(sim::MetricsRegistry& reg, const std::string& ns,
                         const pubsub::BrokerStats& s) {
  reg.add(ns + ".publications_routed", s.publications_routed);
  reg.add(ns + ".deliveries", s.deliveries);
  reg.add(ns + ".subscriptions_forwarded", s.subscriptions_forwarded);
  reg.add(ns + ".subscriptions_suppressed", s.subscriptions_suppressed);
  reg.add(ns + ".index_probes", s.index_probes);
  reg.add(ns + ".checkpoints", s.checkpoints);
  reg.add(ns + ".checkpoint_bytes", s.checkpoint_bytes);
  reg.add(ns + ".recoveries", s.recoveries);
  reg.add(ns + ".recovered_entries", s.recovered_entries);
  reg.add(ns + ".partial_restores", s.partial_restores);
  reg.add(ns + ".sync_requests", s.sync_requests);
  reg.add(ns + ".sync_replies", s.sync_replies);
  reg.add(ns + ".sync_retries", s.sync_retries);
  reg.add(ns + ".sync_give_ups", s.sync_give_ups);
  reg.add(ns + ".duplicate_publishes_discarded", s.duplicate_publishes_discarded);
}

inline void export_stats(sim::MetricsRegistry& reg, const std::string& ns,
                         const overlay::NodeStats& s) {
  reg.add(ns + ".forwarded", s.forwarded);
  reg.add(ns + ".delivered", s.delivered);
  reg.add(ns + ".repairs", s.repairs);
}

inline void export_stats(sim::MetricsRegistry& reg, const std::string& ns,
                         const pipeline::PipelineStats& s) {
  reg.add(ns + ".intra_node_hops", s.intra_node_hops);
  reg.add(ns + ".inter_node_hops", s.inter_node_hops);
  reg.add(ns + ".undeliverable", s.undeliverable);
}

inline void export_stats(sim::MetricsRegistry& reg, const std::string& ns,
                         const pipeline::ComponentStats& s) {
  reg.add(ns + ".received", s.received);
  reg.add(ns + ".emitted", s.emitted);
  reg.add(ns + ".dropped", s.dropped);
}

inline void export_stats(sim::MetricsRegistry& reg, const std::string& ns,
                         const storage::ObjectStoreStats& s) {
  reg.add(ns + ".puts", s.puts);
  reg.add(ns + ".gets", s.gets);
  reg.add(ns + ".local_hits", s.local_hits);
  reg.add(ns + ".intercept_hits", s.intercept_hits);
  reg.add(ns + ".root_hits", s.root_hits);
  reg.add(ns + ".misses", s.misses);
  reg.add(ns + ".timeouts", s.timeouts);
  reg.add(ns + ".heal_pushes", s.heal_pushes);
  reg.add(ns + ".reconstructions", s.reconstructions);
}

inline void export_stats(sim::MetricsRegistry& reg, const std::string& ns,
                         const storage::StoreNodeStats& s) {
  reg.add(ns + ".cache_hits", s.cache_hits);
  reg.add(ns + ".cache_misses", s.cache_misses);
  reg.add(ns + ".cache_evictions", s.cache_evictions);
}

inline void export_stats(sim::MetricsRegistry& reg, const std::string& ns,
                         const deploy::EvolutionStats& s) {
  reg.add(ns + ".evaluations", s.evaluations);
  reg.add(ns + ".deployments_started", s.deployments_started);
  reg.add(ns + ".deployments_succeeded", s.deployments_succeeded);
  reg.add(ns + ".deployments_failed", s.deployments_failed);
  reg.add(ns + ".retirements", s.retirements);
  reg.add(ns + ".violations_observed", s.violations_observed);
}

inline void export_stats(sim::MetricsRegistry& reg, const std::string& ns,
                         const bundle::ThinServerStats& s) {
  reg.add(ns + ".received", s.received);
  reg.add(ns + ".installed", s.installed);
  reg.add(ns + ".rejected_seal", s.rejected_seal);
  reg.add(ns + ".rejected_capability", s.rejected_capability);
  reg.add(ns + ".rejected_component", s.rejected_component);
  reg.add(ns + ".installer_failures", s.installer_failures);
  reg.add(ns + ".uninstalled", s.uninstalled);
}

/// Per-delivery trace metrics → "ns.deliveries" counter plus
/// "ns.hops" / "ns.total_us" / "ns.wire_us" / "ns.match_us" /
/// "ns.queue_us" histograms.  No-op when tracing is off.
inline void export_trace_metrics(sim::MetricsRegistry& reg, const std::string& ns,
                                 const TraceCollector& tracer) {
  const auto deliveries = tracer.delivery_metrics();
  reg.add(ns + ".deliveries", deliveries.size());
  for (const auto& d : deliveries) {
    reg.histogram(ns + ".hops").record(static_cast<double>(d.hops));
    reg.histogram(ns + ".total_us").record(static_cast<double>(d.total));
    reg.histogram(ns + ".wire_us").record(static_cast<double>(d.wire));
    reg.histogram(ns + ".match_us").record(static_cast<double>(d.match));
    reg.histogram(ns + ".queue_us").record(static_cast<double>(d.queue));
  }
}

/// Scheduler profiler counters → "ns.total.*" keys.  Wall-clock
/// nanoseconds are exported as integer microseconds (the registry holds
/// integers, and bench tooling treats *_us keys as noisy).
inline void export_profiler(sim::MetricsRegistry& reg, const std::string& ns,
                            const Profiler& prof) {
  const std::string prefix = ns + ".total";
  const Profiler::SlotCounters& c = prof.totals();
  reg.add(prefix + ".tasks", c.tasks);
  reg.add(prefix + ".busy_us", c.busy_ns / 1000);
  for (std::size_t b = 0; b < kProfileBucketCount; ++b) {
    reg.add(prefix + "." + std::string(bucket_name(static_cast<ProfileBucket>(b))) + "_us",
            c.bucket_ns[b] / 1000);
  }
}

/// Collects (namespace, snapshot-function) pairs; snapshot() replays
/// them into a fresh registry, so one hub built at setup time can be
/// snapshotted repeatedly as the simulation advances.
///
/// The hub can also record a *timeline*: start_timeline() registers a
/// periodic global task on the scheduler that snapshots every source at
/// a fixed virtual-time interval into a ring buffer, giving counters as
/// curves over virtual time instead of a single end-of-run total.  The
/// periodic task reschedules itself forever, so drive the simulation
/// with run_for()/run_until() (a bare run() would never drain) and call
/// stop_timeline() — or let the destructor do it — before the scheduler
/// is destroyed.
class MetricsHub {
 public:
  using Source = std::function<void(sim::MetricsRegistry&)>;

  void add_source(Source source) { sources_.push_back(std::move(source)); }

  /// Convenience: registers a stats struct by reference.  The referent
  /// must outlive the hub (true for the facade's members).
  template <typename Stats>
  void add_stats(const std::string& ns, const Stats& stats) {
    sources_.push_back([ns, &stats](sim::MetricsRegistry& reg) {
      export_stats(reg, ns, stats);
    });
  }

  /// Snapshot every source into `reg` (callers clear() it if they want
  /// a point-in-time snapshot rather than accumulation).
  void snapshot(sim::MetricsRegistry& reg) const {
    for (const Source& s : sources_) s(reg);
  }

  sim::MetricsRegistry snapshot() const {
    sim::MetricsRegistry reg;
    snapshot(reg);
    return reg;
  }

  std::size_t source_count() const { return sources_.size(); }

  // --- Timeline sampling ---

  /// One periodic snapshot: every source exported at virtual time `t`.
  struct TimelineEntry {
    SimTime t = 0;
    sim::MetricsRegistry metrics;
  };

  /// Samples all sources every `interval` of virtual time (starting at
  /// now + interval), keeping the most recent `retention` entries.
  /// Root context only; restarts (cancels the previous task) if already
  /// running.  The hub must not outlive `sched` while active.
  void start_timeline(sim::Scheduler& sched, SimDuration interval,
                      std::size_t retention = 1024) {
    stop_timeline();
    timeline_sched_ = &sched;
    timeline_retention_ = retention == 0 ? 1 : retention;
    timeline_task_ = sched.every(interval, [this] {
      timeline_.push_back({timeline_sched_->now(), snapshot()});
      while (timeline_.size() > timeline_retention_) timeline_.pop_front();
    });
  }

  /// Cancels the periodic task (root context only).  Recorded entries
  /// are kept; call clear_timeline() to drop them.
  void stop_timeline() {
    if (timeline_sched_ != nullptr) {
      timeline_sched_->cancel(timeline_task_);
      timeline_sched_ = nullptr;
    }
  }

  void clear_timeline() { timeline_.clear(); }
  bool timeline_active() const { return timeline_sched_ != nullptr; }
  const std::deque<TimelineEntry>& timeline() const { return timeline_; }

  /// One JSON object per line: {"t_us": <virtual time>, "metrics":
  /// <MetricsRegistry::to_json()>}.  JSONL streams into pandas /
  /// jq without holding the whole timeline in one document.
  void write_timeline_jsonl(std::ostream& out) const {
    for (const TimelineEntry& e : timeline_) {
      out << "{\"t_us\":" << e.t << ",\"metrics\":" << e.metrics.to_json()
          << "}\n";
    }
  }

  ~MetricsHub() { stop_timeline(); }
  MetricsHub() = default;
  MetricsHub(const MetricsHub&) = delete;
  MetricsHub& operator=(const MetricsHub&) = delete;

 private:
  std::vector<Source> sources_;
  std::deque<TimelineEntry> timeline_;
  sim::Scheduler* timeline_sched_ = nullptr;
  sim::TaskId timeline_task_{};
  std::size_t timeline_retention_ = 1024;
};

}  // namespace aa::obs
