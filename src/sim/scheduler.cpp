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

void Scheduler::assign_key(Entry& e, std::uint32_t owner) {
  if (owner == kGlobalOwner) {
    e.owner_rank = 0;
    e.oseq = ++global_seq_;
  } else {
    assert(owner < owner_seq_.size() && "host not bound; call bind_hosts");
    e.owner_rank = static_cast<std::uint64_t>(owner) + 1;
    e.oseq = ++owner_seq_[owner];
  }
}

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // A new generation retires every handle to the slot; 0 is skipped so
  // that no handle is ever kInvalidTask.
  if (++s.generation == 0) s.generation = 1;
  s.state = SlotState::kFree;
  s.periodic = false;
  s.next_free = free_head_;
  free_head_ = slot;
}

TaskId Scheduler::make_task(std::uint32_t owner, std::uint32_t affinity, SimTime t,
                            std::function<void()> fn) {
  Entry e;
  e.time = t;
  assign_key(e, owner);
  e.slot = acquire_slot();
  e.affinity = affinity;
  e.fn = std::move(fn);
  const TaskId id = handle(e.slot);
  push_entry(std::move(e));
  return id;
}

void Scheduler::push_entry(Entry e) {
  slots_[e.slot].state = SlotState::kQueued;
  ++live_;
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
  // The series holds one slot, and so one TaskId, across its firings,
  // so that a single cancel() stops it.  The callback is stored in the
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
  assign_key(e, owner);
  e.slot = acquire_slot();
  e.affinity = owner;
  slots_[e.slot].periodic = true;
  const TaskId id = handle(e.slot);
  e.fn = [this, id] { run_periodic(id); };
  periodic_.emplace(id, Periodic{period, owner, std::move(fn)});
  push_entry(std::move(e));
  return id;
}

void Scheduler::run_periodic(TaskId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  auto it = periodic_.find(id);
  if (it != periodic_.end()) {
    it->second.fn();
    // The callback may have cancelled its own series.
    it = periodic_.find(id);
  }
  if (it == periodic_.end()) {
    release_slot(slot);
    return;
  }
  const std::uint32_t owner = it->second.owner;
  Entry e;
  e.time = now_ + it->second.period;
  assign_key(e, owner);
  e.slot = slot;  // keep the series' slot so its id keeps working
  e.affinity = owner;
  e.fn = [this, id] { run_periodic(id); };
  push_entry(std::move(e));
}

void Scheduler::cancel(TaskId id) {
  // A handle matches only while its slot holds its task: a task that
  // already ran released the slot and bumped its generation, so a stale
  // handle (or kInvalidTask) marks nothing, even once the slot serves a
  // later task.
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size() || handle(slot) != id) return;
  Slot& s = slots_[slot];
  // Periodic: dropping the stored callback both stops the series (a
  // tick in progress does not requeue) and frees its captured state now.
  if (s.periodic) periodic_.erase(id);
  // A queued entry is discarded when it reaches the heap front.
  if (s.state == SlotState::kQueued) {
    s.state = SlotState::kCancelled;
    --live_;
  }
}

bool Scheduler::peek_live(SimTime& t) {
  while (!heap_.empty()) {
    const Entry& front = heap_.front();
    if (slots_[front.slot].state == SlotState::kCancelled) {
      const std::uint32_t slot = front.slot;
      std::pop_heap(heap_.begin(), heap_.end(), After{});
      heap_.pop_back();
      release_slot(slot);
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
  --live_;
  // A one-shot task is done with its slot (cancelling it from its own
  // closure is a no-op); a periodic series keeps it while it ticks.
  Slot& s = slots_[e.slot];
  if (s.periodic) {
    s.state = SlotState::kTicking;
  } else {
    release_slot(e.slot);
  }
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
