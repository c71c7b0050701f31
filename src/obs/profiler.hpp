// Scheduler profiler: wall-clock attribution for the discrete-event
// core.  The scheduler times every task closure (busy time and task
// count), and Network::SpanScope feeds a per-subsystem breakdown
// (broker route/match, store, overlay, transport, pipeline, ...) with
// *self time* semantics: a nested scope pauses its parent, so broker
// `match` time is not double-counted inside broker `route`.
//
// Like tracing, profiling is opt-in and observation-only: it reads
// clocks and bumps counters but never changes what the scheduler
// executes, so digests are bit-identical with it on or off (pinned by
// the chaos suite).  Wall-clock values themselves are of course
// machine-dependent — snapshot tooling treats them as noisy.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string_view>

#include "common/time.hpp"

namespace aa::obs {

/// Fixed subsystem buckets for scoped attribution.  Mapping from span
/// vocabulary (component, action) is in bucket_for().
enum class ProfileBucket : std::uint8_t {
  kBrokerRoute = 0,
  kBrokerMatch,
  kStore,
  kOverlay,
  kTransport,
  kPipeline,
  kDeploy,
  kClient,
  kOther,
};
constexpr std::size_t kProfileBucketCount =
    static_cast<std::size_t>(ProfileBucket::kOther) + 1;

/// Snake-case name used for metrics keys and counter-track series.
std::string_view bucket_name(ProfileBucket b);

/// Maps a span's (component, action) to its bucket; unknown components
/// land in kOther.
ProfileBucket bucket_for(std::string_view component, std::string_view action);

class Profiler {
 public:
  /// Cumulative counters: tasks run, wall time inside them, and the
  /// per-bucket self time of the scopes they opened.
  struct SlotCounters {
    std::uint64_t tasks = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t bucket_ns[kProfileBucketCount] = {};
  };
  /// One periodic snapshot: the cumulative counters at a virtual time
  /// (taken at the end of every Scheduler::run/run_until).
  struct Sample {
    SimTime t = 0;
    SlotCounters counters;
  };

  /// One task executed for `ns` wall nanoseconds (scheduler hook).
  void note_task(std::uint64_t ns) {
    ++c_.tasks;
    c_.busy_ns += ns;
  }

  // --- Scoped subsystem attribution (self-time) ---

  /// RAII bucket scope.  Nesting pauses the parent: each scope is
  /// charged only the wall time no inner scope claims.  A null profiler
  /// makes it a no-op, so call sites need no branching.
  class Scope {
   public:
    Scope(Profiler* p, ProfileBucket bucket);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler* p_ = nullptr;
    ProfileBucket bucket_;
    Scope* parent_ = nullptr;
    std::uint64_t mark_ns_ = 0;
  };

  // --- Periodic sampling (ring buffer) ---

  /// Appends a cumulative snapshot at virtual time `t`; oldest samples
  /// fall off beyond the retention cap.
  void sample(SimTime t);
  void set_sample_retention(std::size_t n) { retention_ = n; }
  const std::deque<Sample>& samples() const { return samples_; }

  // --- Reads ---

  const SlotCounters& totals() const { return c_; }
  /// Drops all counters and samples.
  void reset();

  /// Perfetto counter tracks ("C" events on one "scheduler" thread row:
  /// "sched" for busy time and task count, "buckets" for the subsystem
  /// split, values in cumulative µs) plus process/thread naming
  /// metadata, appended to a Chrome trace_event stream.  The synthetic
  /// pid keeps the scheduler row clear of host pids.
  void write_chrome_events(std::ostream& out, bool& first) const;
  static constexpr std::uint64_t kChromePid = 1000000;

 private:
  friend class Scope;
  static std::uint64_t now_ns();

  SlotCounters c_;
  Scope* active_ = nullptr;  // innermost open scope
  std::deque<Sample> samples_;
  std::size_t retention_ = 4096;
};

}  // namespace aa::obs
