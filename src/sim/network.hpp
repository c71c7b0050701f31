// Simulated message network.
//
// Hosts exchange typed packets; delivery is asynchronous with latency
// drawn from the Topology plus a serialisation cost at 100 bytes/µs.
// Hosts can be taken down and brought back (churn), and the network
// keeps global traffic counters the benchmarks report.
//
// Link-level fault injection (§4.4: nodes "may disappear ... without
// warning" — and so may the links between them): every non-loopback
// link can be given a fault model — per-packet drop probability,
// duplication, reordering (a reordered packet bypasses the link FIFO
// and takes extra latency jitter, so it can overtake later traffic) —
// and named bidirectional partitions cut whole host groups off from
// each other until healed.  Fault decisions draw from per-source-host
// Rng streams forked from one seed, so a (workload seed, fault seed)
// pair reproduces a run exactly, and a sender's draws depend only on
// its own send history.  The ack/retry layer that survives these
// faults is sim/reliable.hpp.
//
// Packet bodies travel as aa::Body (common/body.hpp), which holds a
// protocol-specific struct inline, so a send puts no body on the heap;
// `wire_size` declares the number of bytes charged to the network, so
// traffic accounting matches what a real serialisation would cost
// without paying encode/decode on every simulated hop.  (Serialisation
// round-trips are exercised separately by the bytes/xml/bundle tests.)
// Event-carrying bodies hold COW Event handles (event/event.hpp):
// duplicating a packet across a fan-out copies shared_ptr handles, and
// every hop reuses the one cached wire_size of the shared payload —
// the XML length, summed from the attributes, never rendered.
//
// Delivery: transmit() parks each packet in flight (and each fault
// duplicate) in a slab the network owns and schedules a closure of
// only (network, slot, incarnation), small enough for std::function's
// inline buffer; delivery moves the packet out of its slot before any
// handler runs.  Together with the scheduler's task slots, a steady
// stream of sends, batched or not, allocates nothing in the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/body.hpp"
#include "common/rng.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "sim/topology.hpp"

namespace aa::sim {

struct Packet {
  HostId src = kNoHost;
  HostId dst = kNoHost;
  std::string protocol;
  Body body;
  std::size_t wire_size = 0;
  /// Causal trace context; inactive (zero) by default.  When tracing is
  /// enabled, send() adopts the ambient context into untraced packets,
  /// so existing call sites need no changes to participate in a trace.
  obs::TraceContext trace{};
};

/// Typed accessor; returns nullptr on protocol mix-ups rather than
/// throwing, so a mis-registered handler shows up as a dropped message
/// in the counters instead of a crash.
template <typename T>
const T* packet_body(const Packet& p) {
  return p.body.get<T>();
}

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;  // host down or no handler
  std::uint64_t bytes_sent = 0;
  std::uint64_t duplicated = 0;        // link fault: packet delivered twice
  std::uint64_t retransmits = 0;       // reported by reliable transports
  std::uint64_t dropped_by_fault = 0;  // link drop faults + partitions
  // --- per-link batching (enable_batching) ---
  std::uint64_t frames_sent = 0;       // physical frames with >= 2 members
  std::uint64_t batched_messages = 0;  // messages that travelled inside frames
  std::uint64_t batch_flushes = 0;     // flush events (incl. single-member)

  /// Physical packets on the wire: every message sent, minus the ones
  /// that rode inside a frame, plus the frames themselves.
  std::uint64_t packets_sent() const {
    return messages_sent - batched_messages + frames_sent;
  }
};

/// Per-link fault model.  Loopback (src == dst) traffic is exempt: a
/// host never loses messages to itself.
struct LinkFaults {
  /// Per-packet loss probability.
  double drop = 0.0;
  /// Probability a packet is delivered twice (the copy arrives after
  /// extra jitter).
  double duplicate = 0.0;
  /// Probability a packet bypasses the link FIFO and takes extra
  /// latency jitter — it may overtake packets sent after it or be
  /// overtaken by them (UDP-style reordering).
  double reorder = 0.0;
  /// Maximum extra latency for reordered packets and duplicate copies.
  SimDuration jitter = 5000;  // 5 ms
  /// Seed for the shared fault Rng (applied by set_link_faults(faults)).
  std::uint64_t seed = 0x5EED;

  bool any() const { return drop > 0 || duplicate > 0 || reorder > 0; }
};

/// Protocol of a coalesced batch frame; deliver() unpacks members and
/// dispatches each to its own protocol handler, so handlers never see
/// this name.
inline constexpr const char* kFrameProto = "net.frame";

/// Body of a coalesced frame: the member packets in staging order.
/// Copying (fault-model duplication) copies packet handles — event
/// bodies are COW, so a duplicated frame shares payloads.
struct BatchFrame {
  std::vector<Packet> members;
};

class Network {
 public:
  Network(Scheduler& sched, std::shared_ptr<const Topology> topo);
  ~Network();

  Scheduler& scheduler() { return sched_; }
  const Topology& topology() const { return *topo_; }
  std::size_t host_count() const { return topo_->size(); }

  using Handler = std::function<void(const Packet&)>;

  /// Registers the receive handler for (host, protocol).  Replaces any
  /// previous handler for the pair.
  void register_handler(HostId host, const std::string& protocol, Handler handler);
  void unregister_handler(HostId host, const std::string& protocol);

  /// Sends asynchronously; delivery happens after latency(src,dst) plus
  /// wire_size's transmission time.  Messages in flight to a host that
  /// dies before delivery are dropped, as on a real network — including
  /// when the host has already rejoined by the delivery time (the
  /// reincarnated host is a fresh endpoint; see the incarnation counter).
  /// Handlers receive the delivered packet by const reference; it lives
  /// until the handler returns.
  void send(Packet packet);

  /// Convenience: build and send a packet.
  template <typename T>
  void send(HostId src, HostId dst, const std::string& protocol, T body,
            std::size_t wire_size) {
    send(Packet{src, dst, protocol, Body(std::move(body)), wire_size});
  }

  // --- Per-link batching ---
  //
  // With batching on, non-loopback sends to the same neighbour within
  // `window` of the first are staged and coalesced into one physical
  // frame: one header, one trace wire-span, one fault-model draw and
  // one scheduler delivery for the whole batch (members keep their own
  // protocols, trace contexts and — under ReliableTransport — sequence
  // numbers, so per-message dedup is untouched; a dropped or duplicated
  // frame drops or duplicates every member).  window = 0 flushes at the
  // current virtual time, i.e. the next scheduler tick: everything a
  // causal burst sends to one neighbour "now" shares a frame, and
  // nothing is delayed.  Staging is per *source* host, like the link
  // FIFOs, and a staged batch dies with its sender: a crash drops it
  // (counted in messages_dropped) even if the host rejoins before the
  // flush.  A flush holding a single packet sends it as a plain
  // datagram: batching never inflates unbatchable traffic.

  /// Prices a frame from its members' standalone datagram sizes: the
  /// bus codec's frame_size (wire/codec.hpp).
  using FrameSizer = std::function<std::size_t(std::span<const std::size_t>)>;

  void enable_batching(SimDuration window, FrameSizer sizer);

  // --- Link fault injection ---

  /// Installs `faults` as the default fault model for every
  /// non-loopback link and reseeds the fault Rng from `faults.seed`.
  /// Pass a default-constructed LinkFaults to turn faults off again.
  void set_link_faults(const LinkFaults& faults);

  /// Per-link override, applied to both directions of (a, b); wins over
  /// the network-wide default (so an override with zero probabilities
  /// makes one link reliable inside a lossy network, and a
  /// `drop = 1.0` override kills one link).  The override's `seed` is
  /// ignored — all fault decisions share one Rng.
  void set_link_faults(HostId a, HostId b, const LinkFaults& faults);

  /// Removes every fault model (default and per-link overrides).
  /// Active partitions are unaffected; heal them separately.
  void clear_link_faults();

  /// Cuts every link between `side_a` and `side_b`, in both directions,
  /// under `name`.  Packets sent across an active partition are dropped
  /// at the wire (counted in stats().dropped_by_fault); packets already
  /// in flight when the cut happens still arrive, as on a real network.
  /// Re-using a name replaces that partition.
  void partition(const std::string& name, const std::vector<HostId>& side_a,
                 const std::vector<HostId>& side_b);

  /// Heals one named partition (no-op if unknown).
  void heal(const std::string& name);

  /// Heals every active partition.
  void heal();

  /// True when an active partition separates a from b.
  bool partitioned(HostId a, HostId b) const;

  /// Reliable transports report each retransmission here so benches can
  /// show retry overhead next to the raw traffic counters.
  void note_retransmit() { ++stats_.retransmits; }

  // --- Causal tracing (obs/trace.hpp) ---
  //
  // Opt-in and zero-impact: with tracing enabled the network records
  // spans but sends no extra packets and charges no extra time, so a
  // traced run executes the identical event sequence as an untraced
  // one.  When disabled (the default) the hot path pays one pointer
  // compare.
  //
  // Propagation model: deliver() installs the packet's context as the
  // *ambient* trace context and send() adopts the ambient context into
  // untraced packets.  Code that defers work through the scheduler
  // (breaking the synchronous chain) captures current_trace() into its
  // closure and restores it with a TraceScope; components record their
  // hop with a SpanScope.  Root-trace sampling is keyed off the
  // scheduler's deterministic task key.

  /// Enables tracing, creating the collector on first use.  `sample_every`
  /// starts every n-th root trace (1 = all; see TraceCollector).
  void enable_tracing(std::uint64_t sample_every = 1);
  bool tracing_enabled() const { return tracer_ != nullptr; }
  obs::TraceCollector* tracer() { return tracer_.get(); }
  const obs::TraceCollector* tracer() const { return tracer_.get(); }

  /// Starts a new (sampled) root trace; inactive when tracing is off.
  obs::TraceContext start_trace();
  /// The context of the causal chain currently executing (inactive
  /// outside a traced delivery).
  const obs::TraceContext& current_trace() const { return ambient_; }

  // --- Scheduler profiling (obs/profiler.hpp) ---
  //
  // Independent of tracing and likewise observation-only: SpanScopes
  // attribute wall time to subsystem buckets (self-time, so nested
  // scopes never double-count) and the scheduler times every task.
  // Counter snapshots are taken at the end of every scheduler run;
  // export_chrome_trace() emits them as Perfetto counter tracks next to
  // the spans.

  /// Enables profiling, creating the profiler on first use.
  /// `sample_retention` caps the snapshot ring buffer.
  void enable_profiling(std::size_t sample_retention = 4096);
  obs::Profiler* profiler() { return profiler_.get(); }
  const obs::Profiler* profiler() const { return profiler_.get(); }

  /// One Chrome trace_event document combining the collector's spans
  /// (when tracing) and the profiler's counter tracks (when profiling).
  void export_chrome_trace(std::ostream& out) const;

  /// RAII: installs `ctx` as the ambient context, restoring the
  /// previous one on destruction.  Used to carry a trace across a
  /// scheduler hop: capture current_trace() into the closure, then open
  /// a TraceScope when the closure runs.
  class TraceScope {
   public:
    /// A no-op while tracing is off: the ambient context is then always
    /// inactive anyway, and not touching it keeps the delivery path
    /// free of writes.
    TraceScope(Network& net, const obs::TraceContext& ctx)
        : net_(net), engaged_(net.tracer_ != nullptr) {
      if (engaged_) {
        saved_ = net.ambient_;
        net.ambient_ = ctx;
      }
    }
    ~TraceScope() {
      if (engaged_) net_.ambient_ = saved_;
    }
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

   private:
    Network& net_;
    bool engaged_;
    obs::TraceContext saved_;
  };

  /// RAII: opens a span as a child of the ambient context and makes it
  /// the ambient parent, so nested SpanScopes and sends hang off it;
  /// closes the span and restores the ambient context on destruction.
  /// A no-op (span id 0) when tracing is off or no trace is ambient.
  /// With profiling on it additionally charges the scope's wall time to
  /// the subsystem bucket of (component, action) — even when tracing is
  /// off or the chain is unsampled, so profiles cover all work.
  class SpanScope {
   public:
    SpanScope(Network& net, HostId host, std::string component, std::string action)
        : net_(net), engaged_(net.tracer_ != nullptr) {
      if (net.profiler_ != nullptr) {
        prof_.emplace(net.profiler_.get(), obs::bucket_for(component, action));
      }
      if (!engaged_) return;
      saved_ = net.ambient_;
      if (saved_.active()) {
        span_ = net.tracer_->begin(saved_, host, std::move(component),
                                   std::move(action), net.sched_.now());
        net.ambient_ = obs::TraceContext{saved_.trace_id, span_};
      }
    }
    ~SpanScope() {
      if (!engaged_) return;
      if (span_ != 0) net_.tracer_->end(span_, net_.sched_.now());
      net_.ambient_ = saved_;
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    void annotate(const std::string& detail) {
      if (span_ != 0) net_.tracer_->annotate(span_, detail);
    }
    std::uint64_t id() const { return span_; }
    bool active() const { return span_ != 0; }

   private:
    Network& net_;
    bool engaged_;
    obs::TraceContext saved_;
    std::uint64_t span_ = 0;
    std::optional<obs::Profiler::Scope> prof_;
  };

  void set_host_up(HostId host, bool up);
  bool host_up(HostId host) const;
  std::vector<HostId> live_hosts() const;

  /// The host's current incarnation number; bumped on every up->down
  /// transition.  A changed incarnation means "the endpoint you were
  /// talking to is gone": in-flight packets to the old incarnation are
  /// never delivered, and session-oriented layers (sim/reliable.hpp)
  /// treat it as a connection reset.
  std::uint32_t incarnation(HostId host) const {
    return host < incarnation_.size() ? incarnation_[host] : 0;
  }

  /// Watches host up/down transitions.  Watchers run synchronously from
  /// set_host_up, in registration order, only on actual state changes —
  /// the hook crash-durable state (sim/durable_disk.hpp) uses to resolve
  /// in-flight disk writes at the moment of the crash, and recovery
  /// layers use to flush traffic stalled on a dead peer once it returns.
  using HostWatcher = std::function<void(HostId, bool up)>;
  std::uint64_t add_host_watcher(HostWatcher watcher);
  void remove_host_watcher(std::uint64_t id);

  /// Aggregated traffic counters.
  const NetworkStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Per-host delivered-message counts (for load-balance metrics).
  std::uint64_t delivered_to(HostId host) const;

 private:
  /// Puts a packet on the wire now: wire span, byte accounting, fault
  /// draws, FIFO/latency arrival, delivery scheduling.  The tail of the
  /// pre-batching send(); flushes re-enter here with whole frames.
  void transmit(Packet packet, std::size_t member_count);
  /// Stages a packet on the (src, dst) batch queue, scheduling the
  /// link's flush if none is pending.
  void stage(Packet packet);
  void flush_link(HostId src, HostId dst);
  /// Parks an in-flight packet and schedules its delivery as `dst`.
  void post_delivery(Packet packet, SimTime arrival, std::uint32_t incarnation);
  /// Delivers the packet parked in `slot`, freeing the slot first.
  void deliver(std::uint32_t slot, std::uint32_t incarnation);
  void deliver_frame(const Packet& packet);
  /// Keeps a consumed frame's member vector for the next staged batch.
  void recycle_frame(Packet& packet);
  /// Fault model in effect for src -> dst, or nullptr for a clean link.
  const LinkFaults* faults_for(HostId src, HostId dst) const;
  /// Closes the packet's wire span (note != nullptr annotates first).
  void end_wire_span(const Packet& packet, const char* note);
  void reseed_fault_rngs(std::uint64_t seed);

  Scheduler& sched_;
  std::shared_ptr<const Topology> topo_;
  // Per-source link FIFOs: the arrival time of the last message sent on
  // (src, dst).  Later sends arrive no earlier, so a small message can
  // never overtake a large one on the same link (TCP-like ordering).
  // This clock sets every arrival time, so it is traffic, not a cache.
  std::vector<std::map<HostId, SimTime>> link_clear_;
  // Batch staging per (src, dst).  A queue's member order is the order
  // of the frame on the wire, and its flush is posted as the source
  // host, so the flush's key and fault draws follow the sender.  A
  // link's entry outlives its flushes, and a frame's member vector
  // returns to spare_members_ once the frame is consumed, so steady
  // batching reuses its storage.
  struct PendingBatch {
    std::vector<Packet> members;
    bool flush_scheduled = false;
  };
  std::vector<std::map<HostId, PendingBatch>> batch_;
  std::vector<std::vector<Packet>> spare_members_;  // cleared, with capacity
  std::vector<std::size_t> frame_sizes_;            // flush_link's sizer input
  SimDuration batch_window_ = -1;  // < 0: batching off
  FrameSizer frame_sizer_;
  // Packets in flight, from transmit() until their delivery task runs;
  // freed slots are reused.
  std::vector<Packet> parked_;
  std::vector<std::uint32_t> free_parked_;
  std::vector<bool> up_;
  // Bumped each time a host goes down: packets capture the destination
  // incarnation at send time, so traffic in flight to a host that
  // crashes is lost even if the host rejoins before the delivery time.
  std::vector<std::uint32_t> incarnation_;
  std::vector<std::uint64_t> delivered_per_host_;
  // Per-host protocol tables: registering or unregistering one host's
  // handler leaves every other host's lookups as they were.
  std::vector<std::unordered_map<std::string, Handler>> handlers_;
  LinkFaults default_faults_{};  // zero probabilities: clean network
  std::map<std::pair<HostId, HostId>, LinkFaults> link_fault_overrides_;
  // One stream per source host: a sender's fault draws depend only on
  // its own send history, so adding traffic elsewhere cannot move them.
  std::vector<Rng> fault_rng_;
  struct Partition {
    std::string name;
    std::unordered_set<HostId> a;
    std::unordered_set<HostId> b;
  };
  std::vector<Partition> partitions_;
  std::vector<std::pair<std::uint64_t, HostWatcher>> host_watchers_;
  std::uint64_t next_watcher_id_ = 1;
  NetworkStats stats_;
  std::unique_ptr<obs::TraceCollector> tracer_;  // null = tracing off
  std::unique_ptr<obs::Profiler> profiler_;      // null = profiling off
  obs::TraceContext ambient_;  // context of the executing causal chain
};

}  // namespace aa::sim
