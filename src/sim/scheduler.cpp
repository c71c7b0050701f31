#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "obs/profiler.hpp"

namespace aa::sim {

namespace {
std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

TaskId Scheduler::assign_key(Entry& e, std::uint32_t owner) {
  if (owner == kGlobalOwner) {
    e.owner_rank = 0;
    e.oseq = ++global_seq_;
  } else {
    assert(owner < owner_seq_.size() && "host not bound; call bind_hosts");
    e.owner_rank = static_cast<std::uint64_t>(owner) + 1;
    e.oseq = ++owner_seq_[owner];
  }
  // Ids pack (owner_rank, oseq); oseq overflowing 40 bits would need a
  // trillion events from one owner.
  return (e.owner_rank << 40) | e.oseq;
}

TaskId Scheduler::make_task(std::uint32_t owner, std::uint32_t affinity, SimTime t,
                            std::function<void()> fn) {
  Entry e;
  e.time = t;
  e.id = assign_key(e, owner);
  e.affinity = affinity;
  e.fn = std::move(fn);
  const TaskId id = e.id;
  push_entry(std::move(e));
  return id;
}

void Scheduler::push_entry(Entry e) {
  queued_.insert(e.id);
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), After{});
}

TaskId Scheduler::at(SimTime t, std::function<void()> fn) {
  return make_task(ctx_.host, ctx_.host, std::max(t, now_), std::move(fn));
}

TaskId Scheduler::after(SimDuration delay, std::function<void()> fn) {
  return at(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
}

TaskId Scheduler::post_to_host(std::uint32_t host, SimTime t, std::function<void()> fn) {
  const std::uint32_t affinity = host < owner_seq_.size() ? host : kGlobalOwner;
  return make_task(ctx_.host, affinity, std::max(t, now_), std::move(fn));
}

TaskId Scheduler::every(SimDuration period, std::function<void()> fn) {
  // The periodic task reuses one TaskId across firings so that a single
  // cancel() stops the whole series.  The callback is stored in the
  // periodic table and the queued closures capture only the id: an
  // earlier version captured a shared_ptr to a closure holding itself,
  // a reference cycle that leaked every periodic task and its captured
  // state for the life of the process.
  //
  // A period of zero (or less) would reschedule at a frozen virtual
  // time and run() could never drain — clamp to the 1us tick floor,
  // mirroring after()'s negative-delay clamp.
  period = std::max<SimDuration>(period, 1);
  const std::uint32_t owner = ctx_.host;
  Entry e;
  e.time = now_ + period;
  const TaskId id = assign_key(e, owner);
  e.id = id;
  e.affinity = owner;
  e.fn = [this, id] { run_periodic(id); };
  periodic_.emplace(id, Periodic{period, owner, std::move(fn)});
  push_entry(std::move(e));
  return id;
}

void Scheduler::run_periodic(TaskId id) {
  auto it = periodic_.find(id);
  if (it == periodic_.end()) return;  // cancelled; stale queue entry
  it->second.fn();
  // The callback may have cancelled (or re-created) its own task.
  it = periodic_.find(id);
  if (it == periodic_.end()) return;
  const std::uint32_t owner = it->second.owner;
  Entry e;
  e.time = now_ + it->second.period;
  assign_key(e, owner);
  e.id = id;  // keep the series' id so cancel() keeps working
  e.affinity = owner;
  e.fn = [this, id] { run_periodic(id); };
  push_entry(std::move(e));
}

void Scheduler::cancel(TaskId id) {
  if (id == kInvalidTask) return;
  // Periodic: dropping the stored callback both stops the series (a
  // queued tick finds nothing to run) and frees its captured state now;
  // the queued tick is additionally marked so pending() does not count
  // a dead entry.
  //
  // One-shot: only mark ids actually in the queue.  Cancelling a task
  // that already ran used to park its id in the cancelled set forever
  // and made pending() underflow once cancels outnumbered queued
  // entries.
  periodic_.erase(id);
  if (queued_.contains(id)) cancelled_.insert(id);
}

bool Scheduler::peek_live(SimTime& t) {
  while (!heap_.empty()) {
    const Entry& front = heap_.front();
    if (!cancelled_.empty() && cancelled_.erase(front.id) > 0) {
      queued_.erase(front.id);
      std::pop_heap(heap_.begin(), heap_.end(), After{});
      heap_.pop_back();
      continue;
    }
    t = front.time;
    return true;
  }
  return false;
}

Scheduler::Entry Scheduler::pop_front() {
  std::pop_heap(heap_.begin(), heap_.end(), After{});
  Entry e = std::move(heap_.back());  // moves the closure: no copy of
                                      // the captured state per event
  heap_.pop_back();
  queued_.erase(e.id);
  return e;
}

void Scheduler::execute(Entry e) {
  const Ctx saved = ctx_;
  ctx_ = Ctx{e.affinity, e.owner_rank, e.oseq};
  now_ = e.time;
  ++executed_;
  auto fn = std::move(e.fn);
  if (profiler_ != nullptr) {
    const std::uint64_t t0 = wall_ns();
    fn();
    profiler_->note_task(wall_ns() - t0);
  } else {
    fn();
  }
  ctx_ = saved;
}

bool Scheduler::step() {
  SimTime t;
  if (!peek_live(t)) return false;
  execute(pop_front());
  return true;
}

SimTime Scheduler::run_until_impl(SimTime deadline, bool bounded) {
  for (;;) {
    SimTime t;
    if (!peek_live(t)) break;
    if (bounded && t > deadline) break;
    execute(pop_front());
  }
  if (bounded) now_ = std::max(now_, deadline);
  if (profiler_ != nullptr) profiler_->sample(now_);
  return now_;
}

SimTime Scheduler::run() { return run_until_impl(0, false); }

SimTime Scheduler::run_until(SimTime deadline) { return run_until_impl(deadline, true); }

void Scheduler::bind_hosts(std::uint32_t count) {
  if (count > owner_seq_.size()) owner_seq_.resize(count, 0);
}

}  // namespace aa::sim
