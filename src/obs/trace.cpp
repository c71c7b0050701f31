#include "obs/trace.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>

namespace aa::obs {

namespace {

/// JSON string escape for the small set of characters the span fields
/// can contain (component/action are code-controlled; detail is not).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic mix of a task key and the per-task call index: the
/// same (workload position, call) pair always yields the same value,
/// which is what makes keyed sampling bit-stable.
std::uint64_t mix_key(const TraceCollector::TaskKey& k, std::uint64_t call) {
  std::uint64_t h = splitmix(static_cast<std::uint64_t>(k.time));
  h = splitmix(h ^ k.owner_rank);
  h = splitmix(h ^ k.oseq);
  return splitmix(h ^ call);
}

/// Trace ids stay below 2^48 so they survive a JSON double round-trip
/// (Chrome's tid field) without losing bits.
constexpr std::uint64_t kTraceIdMask = (1ULL << 48) - 1;

}  // namespace

TraceContext TraceCollector::start_trace() {
  if (sample_every_ == 0) return {};
  const TaskKey key = provider_ ? provider_() : TaskKey{};
  if (last_key_ != key) {
    last_key_ = key;
    calls_in_task_ = 0;
  }
  const std::uint64_t h = mix_key(key, calls_in_task_++);
  if ((h % sample_every_) != 0) return {};
  ++admitted_;
  std::uint64_t id = splitmix(h) & kTraceIdMask;
  if (id == 0) id = 1;
  return TraceContext{id, 0};
}

std::uint64_t TraceCollector::begin(const TraceContext& ctx, HostId host,
                                    std::string component, std::string action,
                                    SimTime now) {
  if (!ctx.active()) return 0;
  Span s;
  s.trace_id = ctx.trace_id;
  s.id = spans_.size() + 1;
  s.parent = ctx.parent_span;
  s.host = host;
  s.component = std::move(component);
  s.action = std::move(action);
  s.start = now;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void TraceCollector::end(std::uint64_t span_id, SimTime now) {
  Span* s = find_span(span_id);
  if (s != nullptr && !s->closed()) s->end = now;
}

void TraceCollector::annotate(std::uint64_t span_id, const std::string& detail) {
  Span* s = find_span(span_id);
  if (s == nullptr) return;
  if (!s->detail.empty()) s->detail += ';';
  s->detail += detail;
}

Span* TraceCollector::find_span(std::uint64_t span_id) {
  if (span_id == 0 || span_id > spans_.size()) return nullptr;
  return &spans_[span_id - 1];
}

const Span* TraceCollector::span(std::uint64_t span_id) const { return find_span(span_id); }

std::uint64_t TraceCollector::trace_count() const { return admitted_; }

std::vector<std::uint64_t> TraceCollector::trace_ids() const {
  std::vector<std::uint64_t> ids;
  for (const Span& s : spans_) ids.push_back(s.trace_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<const Span*> TraceCollector::trace(std::uint64_t trace_id) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.trace_id == trace_id) out.push_back(&s);
  }
  return out;
}

void TraceCollector::clear() {
  spans_.clear();
  admitted_ = 0;
  last_key_ = {};
  calls_in_task_ = 0;
}

void TraceCollector::write_chrome_events(std::ostream& out, bool& first) const {
  std::vector<HostId> hosts;
  for (const Span& s : spans_) {
    if (std::find(hosts.begin(), hosts.end(), s.host) == hosts.end()) {
      hosts.push_back(s.host);
    }
    if (!first) out << ",";
    first = false;
    // Open spans (in flight at export time) render as instants.
    const SimDuration dur = s.duration();
    out << "\n{\"name\":\"" << json_escape(s.action) << "\",\"cat\":\""
        << json_escape(s.component) << "\",\"ph\":\"X\",\"ts\":" << s.start
        << ",\"dur\":" << dur << ",\"pid\":" << s.host << ",\"tid\":" << s.trace_id
        << ",\"args\":{\"trace\":" << s.trace_id << ",\"span\":" << s.id
        << ",\"parent\":" << s.parent;
    if (!s.detail.empty()) out << ",\"detail\":\"" << json_escape(s.detail) << "\"";
    if (!s.closed()) out << ",\"open\":true";
    out << "}}";
  }
  // Process-name metadata so Perfetto labels each host track.
  std::sort(hosts.begin(), hosts.end());
  for (HostId h : hosts) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << h
        << ",\"args\":{\"name\":\"host " << h << "\"}}";
  }
}

void TraceCollector::write_chrome_json(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  write_chrome_events(out, first);
  out << "\n]}\n";
}

std::string TraceCollector::chrome_json() const {
  std::ostringstream out;
  write_chrome_json(out);
  return out.str();
}

void TraceCollector::dump_text(std::ostream& out) const {
  // Group by trace; indent by parent depth.
  std::map<std::uint64_t, std::vector<const Span*>> by_trace;
  for (const Span& s : spans_) by_trace[s.trace_id].push_back(&s);
  for (const auto& [tid, spans] : by_trace) {
    out << "trace " << tid << " (" << spans.size() << " spans)\n";
    for (const Span* s : spans) {
      int depth = 0;
      for (const Span* p = find_span(s->parent); p != nullptr && depth < 64;
           p = find_span(p->parent)) {
        ++depth;
      }
      for (int i = 0; i < depth; ++i) out << "  ";
      out << "  [" << s->start << ".." << (s->closed() ? s->end : s->start)
          << (s->closed() ? "" : "+") << "us] host=" << s->host << " " << s->component
          << "/" << s->action;
      if (!s->detail.empty()) out << " (" << s->detail << ")";
      out << "\n";
    }
  }
}

std::vector<TraceCollector::DeliveryMetrics> TraceCollector::delivery_metrics() const {
  std::vector<DeliveryMetrics> out;
  for (const Span& s : spans_) {
    if (s.action != "deliver") continue;
    DeliveryMetrics m;
    m.trace_id = s.trace_id;
    m.span_id = s.id;
    m.host = s.host;
    const SimTime end_time = s.closed() ? s.end : s.start;
    SimTime root_start = s.start;
    int guard = 0;
    for (const Span* cur = &s; cur != nullptr && guard < 4096; ++guard) {
      if (cur->action == "wire") {
        ++m.hops;
        m.wire += cur->duration();
      } else if (cur->action == "route" || cur->action == "match" ||
                 cur->action == "put" || cur->action == "emit") {
        m.match += cur->duration();
      }
      root_start = cur->start;
      cur = cur->parent != 0 ? find_span(cur->parent) : nullptr;
    }
    m.total = end_time - root_start;
    m.queue = m.total - m.wire - m.match;
    if (m.queue < 0) m.queue = 0;
    out.push_back(m);
  }
  return out;
}

}  // namespace aa::obs
