// Causal tracing for the simulated architecture (the `aa::obs` layer).
//
// The paper's evolution engine assumes the infrastructure can "monitor
// the running system" (§4.4/§4.6); this layer supplies the raw
// material: a lightweight TraceContext (trace id + parent span id)
// rides on every sim::Network packet, and instrumented components
// record Spans — (host, component kind, action, sim-time in/out) — into
// a per-Network TraceCollector as a traced event crosses broker
// routing, pipeline matchlets, overlay hops and storage repair.
//
// Layering: obs sits *below* sim (sim::Network owns a TraceCollector),
// so this header depends only on common/.  Host ids are mirrored as a
// plain integer; sim::HostId is the same underlying type.
//
// Root-trace sampling is keyed off the scheduler's deterministic task
// key (time, owner_rank, oseq) rather than a call counter, so the set
// of traced events depends only on the workload.
//
// Tracing is opt-in (Network::enable_tracing) and adds no packets and
// no timing: a traced run and an untraced run of the same workload
// execute the identical event sequence, which the chaos suite asserts
// by comparing delivery digests with tracing on vs. off.  Delivery-side
// trace stamps (Event::set_trace) ride the event *handle*, never its
// shared copy-on-write payload, so stamping cannot clone payloads,
// change wire bytes, or perturb other handles to the same event.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace aa::obs {

/// Mirrors sim::HostId without depending on sim/.
using HostId = std::uint32_t;
constexpr HostId kNoHost = UINT32_MAX;

/// The context carried on packets and across scheduler hops: which
/// trace a causal chain belongs to and which span is its current
/// parent.  A zero trace id means "not traced" — the default, so
/// untraced packets cost one integer compare on the hot path.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  bool active() const { return trace_id != 0; }
};

/// One recorded hop of a causal chain.  `end < start` marks a span
/// still open when the collector was read (e.g. a packet in flight when
/// the simulation stopped).
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t id = 0;      // dense from 1, in recording order
  std::uint64_t parent = 0;  // 0 = root of its trace
  HostId host = kNoHost;
  std::string component;  // "net", "broker", "pipeline", "client", ...
  std::string action;     // "publish", "wire", "route", "match", ...
  SimTime start = 0;
  SimTime end = -1;
  std::string detail;  // free-form annotations, ';'-joined

  bool closed() const { return end >= start; }
  SimDuration duration() const { return closed() ? end - start : 0; }
};

/// Append-only span store for one Network.  Span ids are dense 1..N
/// in recording order.
class TraceCollector {
 public:
  /// Content-based identity of the executing scheduler task; the
  /// deterministic key sampling hangs off.  Mirrors sim::Scheduler's
  /// (time, owner_rank, oseq) without depending on it.
  struct TaskKey {
    SimTime time = 0;
    std::uint64_t owner_rank = 0;  // 0 = global/root, host h = h + 1
    std::uint64_t oseq = 0;

    bool operator==(const TaskKey&) const = default;
  };

  /// Binds keyed sampling to `provider`, which returns the executing
  /// task's key (sim::Network wires the scheduler's in).
  void bind_task_keys(std::function<TaskKey()> provider) { provider_ = std::move(provider); }

  /// Starts a new trace, subject to sampling.  The decision and the
  /// trace id are a deterministic mix of (task key, per-task call
  /// index): a candidate is admitted when that mix is a multiple of
  /// `sample_every`.  A collector with no provider bound keys every call
  /// as a root-context call (TaskKey{}).
  TraceContext start_trace();

  /// 1 = trace every root (default); n traces every n-th; 0 disables
  /// new traces while keeping already-started ones flowing.
  void set_sample_every(std::uint64_t n) { sample_every_ = n; }

  /// Opens a span under `ctx` (no-op returning 0 when ctx is inactive).
  std::uint64_t begin(const TraceContext& ctx, HostId host, std::string component,
                      std::string action, SimTime now);
  /// Closes a span.  Idempotent: the first close wins, so a duplicated
  /// packet arriving twice cannot stretch its wire span.
  void end(std::uint64_t span_id, SimTime now);
  /// Appends to the span's detail (';'-joined).
  void annotate(std::uint64_t span_id, const std::string& detail);

  const Span* span(std::uint64_t span_id) const;
  /// All spans, in recording order.
  const std::vector<Span>& spans() const { return spans_; }
  /// Number of admitted root traces.
  std::uint64_t trace_count() const;
  /// Sorted unique ids of traces that recorded at least one span.
  std::vector<std::uint64_t> trace_ids() const;
  /// Spans of one trace, in recording order.
  std::vector<const Span*> trace(std::uint64_t trace_id) const;
  void clear();

  // --- Exporters ---

  /// Chrome trace_event JSON ("X" complete events; ts/dur in µs),
  /// loadable in Perfetto / chrome://tracing.  Hosts render as
  /// processes, traces as threads; span/parent/trace ids ride in args.
  void write_chrome_json(std::ostream& out) const;
  std::string chrome_json() const;
  /// The event stream alone (no surrounding document), for composition
  /// with other event sources (Network::export_chrome_trace adds the
  /// profiler's counter tracks).  `first` tracks comma placement.
  void write_chrome_events(std::ostream& out, bool& first) const;

  /// Compact indented text dump, one trace per block.
  void dump_text(std::ostream& out) const;

  // --- Derived per-delivery metrics ---

  /// One terminal delivery (a span with action "deliver") and the
  /// latency breakdown of its causal chain back to the trace root:
  /// `wire` is time inside network wire spans, `match` time inside
  /// route/match/put spans (zero-cost in the discrete-event model
  /// unless a component charges time), `queue` is the remainder —
  /// scheduler/processing delay between hops.
  struct DeliveryMetrics {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    HostId host = kNoHost;
    int hops = 0;  // wire spans on the root -> delivery path
    SimDuration total = 0;
    SimDuration wire = 0;
    SimDuration match = 0;
    SimDuration queue = 0;
  };
  std::vector<DeliveryMetrics> delivery_metrics() const;

 private:
  Span* find_span(std::uint64_t span_id);
  const Span* find_span(std::uint64_t span_id) const {
    return const_cast<TraceCollector*>(this)->find_span(span_id);
  }

  std::uint64_t sample_every_ = 1;
  std::uint64_t admitted_ = 0;  // root traces admitted
  // Keyed-sampling state: per-task call index, reset on key change.
  TaskKey last_key_{};
  std::uint64_t calls_in_task_ = 0;
  std::function<TaskKey()> provider_;
  std::vector<Span> spans_;
};

/// Validates a Chrome trace_event JSON document (as produced by
/// TraceCollector::write_chrome_json / Network::export_chrome_trace,
/// but tolerant of any conforming emitter): well-formed JSON, a
/// traceEvents array, and for every "X" event non-negative ts/dur, a
/// unique span id, an existing same-trace parent, acyclic parent
/// chains, and timestamps monotonically non-decreasing from parent to
/// child.  "C" counter events are checked too: numeric args, per-track
/// ((pid, tid, name)) non-decreasing timestamps, and no orphan tracks —
/// every counter's (pid, tid) must be named by thread_name/process_name
/// metadata.  Returns human-readable problems; an empty vector means
/// the document is accepted.
std::vector<std::string> validate_chrome_trace(std::istream& in);

/// Convenience: validate a file by path.  Adds an error if the file
/// cannot be opened.
std::vector<std::string> validate_chrome_trace_file(const std::string& path);

}  // namespace aa::obs
