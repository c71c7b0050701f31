// Shared helpers for the experiment harnesses: aligned table output so
// every bench prints its results as the rows EXPERIMENTS.md records.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "event/event.hpp"
#include "event/filter.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "wire/codec.hpp"

namespace aa::bench {

/// Zipf-skewed hotspot workload (the C1 client-scaling sweep): `topics`
/// ranked by popularity with exponent `s`, so the publish load
/// concentrates on the head ranks while subscribers pin topics
/// uniformly.  Each subscriber filter adds a value window on top of its
/// topic pin, so the window, not the topic alone, decides delivery.
class HotspotWorkload {
 public:
  HotspotWorkload(std::size_t topics, double exponent, std::uint64_t seed)
      : topics_(topics), zipf_(topics, exponent), rng_(seed) {}

  static std::string topic_name(std::size_t rank) { return "topic" + std::to_string(rank); }

  /// The i-th subscriber's filter: a topic pin (uniform over ranks) +
  /// value window [10*(i%5), 10*(i%5)+30] over published values in [0, 80).
  event::Filter subscriber_filter(std::size_t i) const {
    const double lo = static_cast<double>(i % 5) * 10.0;
    event::Filter f;
    f.where("topic", event::Op::kEq, topic_name(i % topics_))
        .where("value", event::Op::kGe, lo)
        .where("value", event::Op::kLe, lo + 30.0);
    return f;
  }

  /// One published event: Zipf-ranked topic, uniform value, caller key.
  event::Event sample_event(const std::string& key) {
    event::Event e("reading");
    e.set("topic", topic_name(zipf_.sample(rng_)));
    e.set("value", static_cast<double>(rng_.below(80)));
    e.set("key", key);
    return e;
  }

 private:
  std::size_t topics_;
  ZipfSampler zipf_;
  Rng rng_;
};

inline void headline(const std::string& id, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), claim.c_str());
  std::printf("================================================================\n");
}

class Table {
 public:
  explicit Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%s%*s", i == 0 ? "" : "  ", kWidth, columns_[i].c_str());
    }
    std::printf("\n");
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%s%*s", i == 0 ? "" : "  ", kWidth, std::string(kWidth, '-').c_str());
    }
    std::printf("\n");
  }

  /// Adds one row; each cell pre-rendered.
  void row(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::printf("%s%*s", i == 0 ? "" : "  ", kWidth, cells[i].c_str());
    }
    std::printf("\n");
  }

 private:
  static constexpr int kWidth = 14;
  std::vector<std::string> columns_;
};

/// One-line traffic summary from the network counters — includes the
/// fault-model columns (fault drops, duplicates, retransmits) so runs
/// with link faults show retry overhead next to the raw traffic.
inline void net_line(const std::string& label, const sim::NetworkStats& s) {
  std::printf("  net[%s]: sent=%llu delivered=%llu bytes=%llu dropped=%llu "
              "fault-dropped=%llu duplicated=%llu retransmits=%llu\n",
              label.c_str(), (unsigned long long)s.messages_sent,
              (unsigned long long)s.messages_delivered, (unsigned long long)s.bytes_sent,
              (unsigned long long)s.messages_dropped, (unsigned long long)s.dropped_by_fault,
              (unsigned long long)s.duplicated, (unsigned long long)s.retransmits);
}

inline std::string fmt(const char* format, ...) {
  char buffer[128];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

/// Machine-readable metrics snapshot: one line, JSON payload, grep-able
/// by prefix ("metrics[label] {...}").
inline void metrics_line(const std::string& label, const sim::MetricsRegistry& reg) {
  std::printf("  metrics[%s] %s\n", label.c_str(), reg.to_json().c_str());
}

/// `--snapshot [dir]` support: when the flag is present the bench also
/// writes its headline numbers as BENCH_<name>.json (counters via the
/// MetricsRegistry JSON shape) so CI can upload the run as an artifact
/// and later runs can be diffed machine-to-machine.  Doubles are stored
/// scaled (see add_scaled) because the registry holds integer counters.
class Snapshot {
 public:
  Snapshot(std::string name, int argc, char** argv) : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--snapshot") {
        enabled_ = true;
        if (i + 1 < argc && argv[i + 1][0] != '-') dir_ = argv[i + 1];
      }
    }
  }

  bool enabled() const { return enabled_; }
  sim::MetricsRegistry& registry() { return reg_; }
  void add(const std::string& key, std::uint64_t value) { reg_.add(key, value); }
  /// Fixed-point for ratios/percentages: stored as round(value * 1000).
  void add_scaled(const std::string& key, double value) {
    reg_.add(key + "_x1000", static_cast<std::uint64_t>(value * 1000.0 + 0.5));
  }

  /// Writes BENCH_<name>.json; no-op (returns true) when --snapshot was
  /// not passed.  Prints where the file went so CI logs show the path.
  bool write() const {
    if (!enabled_) return true;
    const std::string path = dir_ + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out.is_open()) {
      std::printf("  snapshot: cannot write %s\n", path.c_str());
      return false;
    }
    out << reg_.to_json() << "\n";
    std::printf("  snapshot: wrote %s (%zu counters)\n", path.c_str(),
                reg_.counters().size());
    return true;
  }

 private:
  std::string name_;
  std::string dir_ = ".";
  bool enabled_ = false;
  sim::MetricsRegistry reg_;
};

/// Exits 1 with the status message when a setup step is refused, e.g.
/// a broker tree that connect_tree() could not link.
inline void must(const Status& s) {
  if (s.is_ok()) return;
  std::fprintf(stderr, "setup refused: %s\n", s.to_string().c_str());
  std::exit(1);
}

/// Parses a `--codec <name>` argument pair: wire codec for sections
/// that route through a SienaNetwork ("xml" or "binary").  Defaults to
/// XML so snapshot baselines keep pricing the interop encoding.  An
/// unknown name prints wire::codec_from_name's message and exits 2.
inline wire::WireCodec codec_arg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) != "--codec") continue;
    const auto codec = wire::codec_from_name(argv[i + 1]);
    if (!codec.is_ok()) {
      std::fprintf(stderr, "%s\n", codec.status().message().c_str());
      std::exit(2);
    }
    return codec.value();
  }
  return wire::WireCodec::kXml;
}

/// Parses a `--batch` flag: enable per-link batching (flush window 0 —
/// same-tick sends to one neighbour coalesce) on the same sections.
inline bool batch_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--batch") return true;
  }
  return false;
}

/// Parses a `--trace <path>` argument pair ("" when absent).
inline std::string trace_arg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace") return argv[i + 1];
  }
  return "";
}

/// Writes the network's combined Chrome/Perfetto export — trace spans
/// (when tracing is on) plus profiler counter tracks (when profiling is
/// on) — self-validates it and prints a one-line summary.  Returns
/// false when neither collector is enabled or validation rejects the
/// output.
inline bool export_trace(const sim::Network& net, const std::string& path) {
  const obs::TraceCollector* tracer = net.tracer();
  if (tracer == nullptr && net.profiler() == nullptr) {
    std::printf("  trace: neither tracing nor profiling enabled, nothing to export\n");
    return false;
  }
  {
    std::ofstream out(path);
    if (!out.is_open()) {
      std::printf("  trace: cannot write %s\n", path.c_str());
      return false;
    }
    net.export_chrome_trace(out);
  }
  const auto problems = obs::validate_chrome_trace_file(path);
  if (!problems.empty()) {
    std::printf("  trace: %s FAILED validation (%zu problems; first: %s)\n", path.c_str(),
                problems.size(), problems.front().c_str());
    return false;
  }
  std::printf("  trace: wrote %s (%zu spans, %llu traces) — validated, load in "
              "Perfetto/chrome://tracing\n",
              path.c_str(), tracer != nullptr ? tracer->spans().size() : 0,
              tracer != nullptr ? (unsigned long long)tracer->trace_count() : 0ULL);
  return true;
}

}  // namespace aa::bench
