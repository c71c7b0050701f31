// Discrete-event scheduler: the single source of time for the whole
// architecture.
//
// The paper targets a wide-area deployment; reproducing it on one
// machine requires virtualising the network (DESIGN.md §2).  Every
// asynchronous action — message delivery, sensor ticks, monitoring
// sweeps, cache expiry — is an event on one queue, executed in
// deterministic order on the calling thread.
//
// Ordering is CONTENT-KEYED, not insertion-keyed: each task carries
// (time, owner, owner_seq) where `owner` is the host whose execution
// scheduled it (or kGlobalOwner for tasks scheduled from outside any
// event — test drivers, churn timers) and `owner_seq` is a per-owner
// counter.  Tasks due at the same time run root tasks first, then by
// host rank, and FIFO within one owner, whatever order they were
// inserted in.  When everything is scheduled from root context (one
// owner) this is the classic (time, FIFO) scheduler.  A host's counter
// only advances with that host's own events, so the key a task gets is
// a function of the workload, not of how its events interleave; trace
// sampling (obs/trace.hpp) keys off it for the same reason, and every
// pinned digest depends on the order it induces (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"

namespace aa::obs {
class Profiler;
}

namespace aa::sim {

/// Identifies a scheduled task so it can be cancelled: an opaque
/// handle (the task's slot and that slot's generation) that only
/// Scheduler::cancel reads.  It is not the task's ordering key, and a
/// handle whose task has run or been cancelled never matches a later
/// task that reuses the slot.  No task is ever given kInvalidTask.
using TaskId = std::uint64_t;
constexpr TaskId kInvalidTask = 0;

class Scheduler {
 public:
  /// Owner of tasks scheduled from outside any event (root context).
  static constexpr std::uint32_t kGlobalOwner = 0xFFFFFFFFu;

  Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time: the executing event's time inside a handler.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (clamped to now()),
  /// owned by the host whose event is executing (root context: global).
  TaskId at(SimTime t, std::function<void()> fn);

  /// Schedules `fn` after `delay` from now (negative delays clamp to 0).
  TaskId after(SimDuration delay, std::function<void()> fn);

  /// Schedules `fn` every `period`, starting after `period`.  The task
  /// keeps rescheduling itself until cancelled.  The callback lives in
  /// the scheduler (not in the queued closures), so cancel() — or
  /// destroying the scheduler — releases whatever state it captured.
  /// Periods below 1us clamp to 1us: a zero period would reschedule at
  /// a frozen virtual time and run() could never drain.
  TaskId every(SimDuration period, std::function<void()> fn);

  /// Schedules `fn` at `t` to execute as `host`: tasks it schedules are
  /// owned by `host`.  Used by the network to hand a delivery to the
  /// destination host, and by workload drivers to run per-client load
  /// as the client.  The ordering key is taken from the *scheduling*
  /// context, so deliveries from one sender stay FIFO per link.
  TaskId post_to_host(std::uint32_t host, SimTime t, std::function<void()> fn);

  /// Cancels a pending (or periodic) task.  Only a handle whose slot
  /// still holds its task marks anything, so cancelling an already-run
  /// or already-cancelled task is a no-op.  A cancelled periodic task's
  /// callback is destroyed immediately.
  void cancel(TaskId id);

  /// Runs events until the queue is empty.  Returns final time.
  SimTime run();

  /// Runs events with time <= deadline; leaves later events queued and
  /// sets now() = deadline.
  SimTime run_until(SimTime deadline);

  /// Runs for `d` beyond current time.
  SimTime run_for(SimDuration d) { return run_until(now() + d); }

  /// Executes the earliest pending event; returns false when idle.
  bool step();

  /// Tasks queued and not cancelled.
  std::size_t pending() const { return live_; }
  std::uint64_t executed_events() const { return executed_; }

  /// Declares the host population (called by Network's constructor) so
  /// per-host ordering counters exist.  Growing is allowed; shrinking
  /// is ignored.
  void bind_hosts(std::uint32_t count);

  /// Content-based identity of the executing task, so observers can
  /// key deterministic decisions (trace sampling) off it.  Outside any
  /// task the rank/seq are zero (root context).
  struct TaskKey {
    SimTime time = 0;
    std::uint64_t owner_rank = 0;  // 0 = global/root, host h = h + 1
    std::uint64_t oseq = 0;
  };
  TaskKey current_task_key() const { return {now_, ctx_.owner_rank, ctx_.oseq}; }

  /// Attaches a wall-clock profiler (nullptr detaches).  The scheduler
  /// times every task closure and samples the counters at the end of
  /// each run.  Observation-only: execution order is unchanged.  The
  /// profiler must outlive the scheduler or be detached first.
  void set_profiler(obs::Profiler* p) { profiler_ = p; }
  obs::Profiler* profiler() const { return profiler_; }

 private:
  struct Entry {
    SimTime time = 0;
    std::uint64_t owner_rank = 0;  // 0 = global, host h = h + 1
    std::uint64_t oseq = 0;        // per-owner counter: FIFO per owner
    std::uint32_t slot = 0;        // this task's row in slots_
    std::uint32_t affinity = kGlobalOwner;  // executing host, or global
    std::function<void()> fn;
  };
  /// Strict weak order for a MIN-heap via std::*_heap with this as
  /// "greater": the heap front is the earliest (time, owner, oseq).
  struct After {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.owner_rank != b.owner_rank) return a.owner_rank > b.owner_rank;
      return a.oseq > b.oseq;
    }
  };

  /// A task slot.  A queued task holds one from scheduling until it is
  /// popped; a periodic series holds one for its whole life.  Releasing
  /// a slot bumps its generation, which retires every handle to it.
  enum class SlotState : std::uint8_t { kFree, kQueued, kCancelled, kTicking };
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  struct Slot {
    std::uint32_t generation = 1;
    SlotState state = SlotState::kFree;
    bool periodic = false;
    std::uint32_t next_free = 0;  // free-list link while kFree
  };

  struct Periodic {
    SimDuration period;
    std::uint32_t owner = kGlobalOwner;
    std::function<void()> fn;
  };

  /// The executing task: its host (owner of tasks it spawns) and key.
  /// Root context is {kGlobalOwner, 0, 0}.
  struct Ctx {
    std::uint32_t host = kGlobalOwner;
    std::uint64_t owner_rank = 0;
    std::uint64_t oseq = 0;
  };

  /// Stamps `e` with the next (owner_rank, oseq) of `owner`.
  void assign_key(Entry& e, std::uint32_t owner);
  TaskId make_task(std::uint32_t owner, std::uint32_t affinity, SimTime t,
                   std::function<void()> fn);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  TaskId handle(std::uint32_t slot) const {
    return (static_cast<TaskId>(slots_[slot].generation) << 32) | slot;
  }
  /// Queues `e`, whose slot becomes kQueued.
  void push_entry(Entry e);
  /// Pops cancelled entries off the heap front; the next live entry's
  /// time, or false when empty.
  bool peek_live(SimTime& t);
  /// Pops the live heap front (precondition: peek_live was true) and
  /// releases a one-shot task's slot.
  Entry pop_front();
  void run_periodic(TaskId id);
  void execute(Entry e);
  SimTime run_until_impl(SimTime deadline, bool bounded);

  std::vector<Entry> heap_;  // binary min-heap (After comparator)
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;  // first free slot, or kNoSlot
  std::size_t live_ = 0;               // kQueued slots: pending()
  std::unordered_map<TaskId, Periodic> periodic_;
  std::uint64_t executed_ = 0;
  // Per-owner scheduling counters (entry h for host h; kGlobalOwner has
  // its own counter).
  std::vector<std::uint64_t> owner_seq_;
  std::uint64_t global_seq_ = 0;
  SimTime now_ = 0;
  Ctx ctx_;

  obs::Profiler* profiler_ = nullptr;  // null = profiling off
};

}  // namespace aa::sim
