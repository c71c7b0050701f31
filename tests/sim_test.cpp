// Unit tests for the discrete-event simulator: scheduler semantics,
// network delivery and accounting, churn injection, metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "sim/churn.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/reliable.hpp"
#include "sim/scheduler.hpp"
#include "sim/topology.hpp"

namespace aa::sim {
namespace {

/// FNV-1a over the joined lines: a compact pin for a whole run's log.
std::uint64_t log_digest(const std::vector<std::string>& log) {
  std::uint64_t h = fnv1a("");
  for (const std::string& line : log) h = fnv1a(line + "\n", h);
  return h;
}

// --- Scheduler ---

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.after(300, [&] { order.push_back(3); });
  s.after(100, [&] { order.push_back(1); });
  s.after(200, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 300);
}

TEST(Scheduler, FifoAmongEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  s.after(100, [&] { order.push_back(1); });
  s.after(100, [&] { order.push_back(2); });
  s.after(100, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, NestedSchedulingFromHandlers) {
  Scheduler s;
  std::vector<std::string> log;
  s.after(10, [&] {
    log.push_back("a");
    s.after(5, [&] { log.push_back("b"); });
  });
  s.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(s.now(), 15);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const TaskId id = s.after(10, [&] { ran = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, RunUntilLeavesLaterEvents) {
  Scheduler s;
  int count = 0;
  s.after(10, [&] { ++count; });
  s.after(100, [&] { ++count; });
  s.run_until(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), 50);
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, PeriodicTaskRepeatsUntilCancelled) {
  Scheduler s;
  int fires = 0;
  const TaskId id = s.every(10, [&] { ++fires; });
  s.run_until(55);
  EXPECT_EQ(fires, 5);
  s.cancel(id);
  s.run_until(200);
  EXPECT_EQ(fires, 5);
}

TEST(Scheduler, PeriodicTaskCanCancelItself) {
  Scheduler s;
  int fires = 0;
  TaskId id = kInvalidTask;
  id = s.every(10, [&] {
    if (++fires == 3) s.cancel(id);
  });
  s.run_until(500);
  EXPECT_EQ(fires, 3);
}

TEST(Scheduler, CancelReleasesPeriodicCallbackState) {
  // Regression: every()'s tick closure used to hold a shared_ptr to
  // itself, so a periodic task and everything it captured leaked for
  // the life of the process even after cancel().
  Scheduler s;
  auto state = std::make_shared<int>(7);
  std::weak_ptr<int> observer = state;
  const TaskId id = s.every(10, [state] { (void)*state; });
  state.reset();
  s.run_until(35);
  EXPECT_FALSE(observer.expired());  // still alive while scheduled
  s.cancel(id);
  EXPECT_TRUE(observer.expired());  // cancel frees the captured state
}

TEST(Scheduler, DestructionReleasesPeriodicCallbackState) {
  auto state = std::make_shared<int>(7);
  std::weak_ptr<int> observer = state;
  {
    Scheduler s;
    s.every(10, [state] { (void)*state; });
    state.reset();
    s.run_until(35);
    EXPECT_FALSE(observer.expired());
  }
  EXPECT_TRUE(observer.expired());  // scheduler teardown frees the task
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  s.after(100, [&] {
    s.at(5, [&] { EXPECT_GE(s.now(), 100); });
  });
  s.run();
}

TEST(Scheduler, PendingSurvivesCancellingAlreadyRanTask) {
  // Regression: cancel() of a one-shot task that had already executed
  // parked its id in the cancelled set forever, so pending() computed
  // queue_size - cancelled_size and underflowed size_t once cancels
  // outnumbered queued entries.
  Scheduler s;
  const TaskId a = s.after(10, [] {});
  const TaskId b = s.after(20, [] {});
  s.run();
  s.cancel(a);  // already ran: must be a no-op
  s.cancel(b);
  EXPECT_EQ(s.pending(), 0u);
  s.after(30, [] {});
  EXPECT_EQ(s.pending(), 1u);  // underflowed to ~2^64 on the old code
  s.run();
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, EveryClampsNonPositivePeriodToOneTick) {
  // Regression: every(0) rescheduled at now + 0 forever, so run()
  // livelocked at a frozen virtual time.  The period clamps to the 1us
  // tick floor instead, mirroring after()'s negative-delay clamp.
  Scheduler s;
  int ticks = 0;
  TaskId id = kInvalidTask;
  id = s.every(0, [&] {
    if (++ticks == 3) s.cancel(id);
  });
  s.run();
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(s.now(), 3);  // fired at t=1,2,3 — not pinned at t=0

  int neg = 0;
  TaskId nid = kInvalidTask;
  nid = s.every(-50, [&] {
    if (++neg == 2) s.cancel(nid);
  });
  s.run();
  EXPECT_EQ(neg, 2);
  EXPECT_EQ(s.now(), 5);  // clamped ticks at t=4,5
}

TEST(Scheduler, StepMovesClosureOutWithoutCopying) {
  // Regression (perf): step() used to copy the whole queue entry —
  // including the std::function and its captured state — out of
  // queue_.top() for every executed event.  Execution must move the
  // closure instead.
  struct Probe {
    std::shared_ptr<int> copies;
    explicit Probe(std::shared_ptr<int> c) : copies(std::move(c)) {}
    Probe(const Probe& other) : copies(other.copies) { ++*copies; }
    Probe(Probe&&) noexcept = default;
  };
  Scheduler s;
  auto copies = std::make_shared<int>(0);
  bool ran = false;
  s.after(10, [p = Probe(copies), &ran] { ran = true; (void)p; });
  const int copies_after_scheduling = *copies;
  while (s.step()) {
  }
  EXPECT_TRUE(ran);
  EXPECT_EQ(*copies, copies_after_scheduling);  // execution added none
}

// --- Task slots ---

TEST(Scheduler, StaleHandleDoesNotCancelTheSlotsNextTask) {
  // A TaskId names a slot and its generation: once its task ran (or was
  // cancelled and discarded), the slot serves later tasks under a new
  // generation, and the old handle must not reach them.
  Scheduler s;
  const TaskId ran = s.after(10, [] {});
  s.run();
  bool later_ran = false;
  const TaskId later = s.after(10, [&] { later_ran = true; });  // reuses the slot
  EXPECT_NE(later, ran);
  s.cancel(ran);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(later_ran);

  const TaskId doomed = s.after(10, [] { FAIL() << "cancelled task ran"; });
  s.cancel(doomed);
  s.run();  // discards the cancelled entry and frees its slot
  bool reuser_ran = false;
  s.after(10, [&] { reuser_ran = true; });
  s.cancel(doomed);  // stale a second time over
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(reuser_ran);
}

TEST(Scheduler, CancellingPeriodicSeriesKeepsPendingRight) {
  Scheduler s;
  // From outside: the queued tick stops counting at once.
  int outside = 0;
  const TaskId tick = s.every(10, [&] { ++outside; });
  s.after(1000, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.run_until(25);
  EXPECT_EQ(outside, 2);
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(tick);
  EXPECT_EQ(s.pending(), 1u);
  s.cancel(tick);  // twice is a no-op
  EXPECT_EQ(s.pending(), 1u);

  // From inside its own tick: nothing is requeued.
  int inside = 0;
  TaskId self = kInvalidTask;
  self = s.every(10, [&] {
    EXPECT_EQ(s.pending(), 1u);  // the 1000us task; this tick is running
    if (++inside == 2) s.cancel(self);
  });
  EXPECT_EQ(s.pending(), 2u);
  s.run_until(100);
  EXPECT_EQ(inside, 2);
  EXPECT_EQ(s.pending(), 1u);
  s.cancel(self);  // the series is gone: a stale handle
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(outside, 2);
}

TEST(Scheduler, NoTaskIsGivenInvalidTask) {
  Scheduler s;
  s.bind_hosts(2);
  std::set<TaskId> live;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      const TaskId id = (i % 3 == 0)   ? s.post_to_host(i % 2, s.now() + i, [] {})
                        : (i % 3 == 1) ? s.after(i, [] {})
                                       : s.every(i + 1, [] {});
      EXPECT_NE(id, kInvalidTask);
      EXPECT_TRUE(live.insert(id).second);  // no two live tasks share one
      if (i % 3 == 2) {
        s.cancel(id);
        live.erase(id);
      }
    }
    s.run();
    live.clear();
  }
  s.cancel(kInvalidTask);  // a no-op
  EXPECT_EQ(s.pending(), 0u);
}

// --- Topologies ---

// --- Content-keyed ordering ---
//
// The Parallel.* tests keep the names they had when they compared
// sharded runs with the sequential scheduler.  Each now pins the
// sequential result with constants recorded while that comparison
// still ran, so the content-keyed order (DESIGN.md §10) cannot drift
// unnoticed.

namespace {

// Hosts pass a token around a ring with 5 us cross-host hops while also
// running 1 us local ticks, so many tasks of different owners share
// timestamps.
struct RingProbe {
  Scheduler sched;
  std::vector<std::vector<std::string>> logs{4};

  void relay(std::uint32_t h, int hops) {
    logs[h].push_back(std::to_string(sched.now()) + ">" + std::to_string(hops));
    sched.after(1, [this, h, hops] {
      logs[h].push_back(std::to_string(sched.now()) + "+t" + std::to_string(hops));
    });
    if (hops > 0) {
      const std::uint32_t next = (h + 1) % 4;
      sched.post_to_host(next, sched.now() + 5,
                         [this, next, hops] { relay(next, hops - 1); });
    }
  }
};

struct RingRun {
  std::vector<std::string> log;
  std::uint64_t executed = 0;
  SimTime final_now = 0;
};

RingRun ring_run() {
  RingProbe p;
  p.sched.bind_hosts(4);
  for (std::uint32_t h = 0; h < 4; ++h) {
    p.sched.post_to_host(h, 10 + h, [&p, h] { p.relay(h, 25); });
  }
  RingRun r;
  r.final_now = p.sched.run();
  r.executed = p.sched.executed_events();
  EXPECT_EQ(p.sched.pending(), 0u);
  for (std::uint32_t h = 0; h < 4; ++h) {
    for (const std::string& line : p.logs[h]) {
      r.log.push_back("h" + std::to_string(h) + ":" + line);
    }
  }
  return r;
}

}  // namespace

TEST(Parallel, ShardedSchedulerMatchesSequentialBitForBit) {
  // The ordering rule, stated directly: tasks due at the same time run
  // root tasks first, then by host rank, and FIFO within one owner,
  // whatever order they were inserted in.  A task's owner is the host
  // whose event scheduled it, also when post_to_host hands it to
  // another host.
  Scheduler sched;
  sched.bind_hosts(3);
  std::vector<std::string> order;
  auto note = [&order](std::string tag) { return [&order, tag] { order.push_back(tag); }; };
  sched.post_to_host(2, 10, [&] {
    sched.at(100, note("h2-1"));
    sched.at(100, note("h2-2"));
  });
  sched.post_to_host(0, 20, [&] { sched.at(100, note("h0-1")); });
  sched.post_to_host(1, 30, [&] { sched.at(100, note("h1-1")); });
  sched.post_to_host(2, 40, [&] {
    sched.at(100, note("h2-3"));
    sched.post_to_host(0, 100, note("h2->h0"));
  });
  sched.at(50, [&] { sched.at(100, note("root")); });
  sched.run();
  EXPECT_EQ(order, (std::vector<std::string>{"root", "h0-1", "h1-1", "h2-1", "h2-2", "h2-3",
                                             "h2->h0"}));

  const RingRun ring = ring_run();
  ASSERT_FALSE(ring.log.empty());
  EXPECT_EQ(log_digest(ring.log), 0x5967fec6b352fdedULL);
  EXPECT_EQ(ring.executed, 208u);
  EXPECT_EQ(ring.final_now, 139);
}

namespace {

struct MeshRun {
  std::vector<std::string> log;
  NetworkStats stats;
  std::vector<std::string> spans;  // rendered span contents (traced runs)
};

// A faulty relay mesh: every delivery re-sends from the destination's
// own event (so sends draw from many per-source fault streams), with
// drops, duplicates and reordering all active.  A traced run starts one
// root trace per initial send.
MeshRun faulty_mesh_run(bool tracing = false) {
  Scheduler sched;
  auto topo = std::make_shared<UniformTopology>(6, duration::millis(2));
  Network net(sched, topo);
  LinkFaults f;
  f.drop = 0.15;
  f.duplicate = 0.05;
  f.reorder = 0.2;
  f.jitter = duration::millis(1);
  f.seed = 99;
  net.set_link_faults(f);
  if (tracing) net.enable_tracing();
  std::vector<std::vector<std::string>> logs(6);
  for (HostId h = 0; h < 6; ++h) {
    net.register_handler(h, "relay", [&net, &sched, &logs, h](const Packet& pk) {
      const int ttl = *packet_body<int>(pk);
      logs[h].push_back(std::to_string(sched.now()) + "<h" + std::to_string(pk.src) +
                        ":" + std::to_string(ttl));
      if (ttl > 0) net.send(h, (h + 2) % 6, "relay", ttl - 1, 64);
    });
  }
  for (HostId h = 0; h < 6; ++h) {
    sched.at(1 + h, [&net, h] {
      Network::TraceScope root(net, net.start_trace());
      net.send(h, (h + 1) % 6, "relay", 20, 64);
    });
  }
  sched.run();
  MeshRun r;
  r.stats = net.stats();
  for (HostId h = 0; h < 6; ++h) {
    for (const std::string& line : logs[h]) {
      r.log.push_back("h" + std::to_string(h) + ":" + line);
    }
  }
  if (const obs::TraceCollector* tc = net.tracer()) {
    for (const obs::Span& s : tc->spans()) {
      r.spans.push_back(std::to_string(s.id) + "^" + std::to_string(s.parent) + "|" +
                        std::to_string(s.trace_id) + "|" + std::to_string(s.host) + "|" +
                        s.component + "/" + s.action + "|" + std::to_string(s.start) + ".." +
                        std::to_string(s.end) + "|" + s.detail);
    }
  }
  return r;
}

}  // namespace

TEST(Parallel, ShardedNetworkDeliveriesAndStatsMatchSequential) {
  const MeshRun run = faulty_mesh_run();
  ASSERT_FALSE(run.log.empty());
  ASSERT_GT(run.stats.dropped_by_fault, 0u);  // the faults were live
  EXPECT_EQ(log_digest(run.log), 0x425fe973cb0d53f3ULL);
  EXPECT_EQ(run.stats.messages_sent, 25u);
  EXPECT_EQ(run.stats.messages_delivered, 19u);
  EXPECT_EQ(run.stats.messages_dropped, 0u);
  EXPECT_EQ(run.stats.bytes_sent, 1600u);
  EXPECT_EQ(run.stats.duplicated, 1u);
  EXPECT_EQ(run.stats.dropped_by_fault, 7u);
}

TEST(Parallel, ModeSwitchPreservesPendingWork) {
  // Tasks queued before a bounded run survive into the next one, and a
  // cancelled one-shot never runs.
  Scheduler sched;
  sched.bind_hosts(4);
  int ran = 0;
  for (std::uint32_t h = 0; h < 4; ++h) {
    sched.post_to_host(h, 50, [&ran] { ++ran; });
  }
  const TaskId doomed = sched.after(60, [&ran] { ++ran; });
  const TaskId tick = sched.every(25, [&ran] { ++ran; });
  sched.cancel(doomed);
  EXPECT_EQ(sched.pending(), 5u);  // 4 posts + tick; the cancelled one-shot is out
  sched.run_until(55);
  EXPECT_EQ(ran, 6);  // 4 posts + 2 periodic firings; doomed never ran
  sched.run_until(100);
  EXPECT_EQ(ran, 8);  // periodic continued at 75, 100
  sched.cancel(tick);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Parallel, TracingComposesWithSharding) {
  // Tracing is pure observation: a traced run of the faulty relay mesh
  // delivers exactly what the untraced run does, and its spans — ids,
  // parents, times and annotations — are pinned too.
  const MeshRun plain = faulty_mesh_run();
  const MeshRun traced = faulty_mesh_run(/*tracing=*/true);
  EXPECT_EQ(traced.log, plain.log);
  EXPECT_EQ(traced.stats.bytes_sent, plain.stats.bytes_sent);
  ASSERT_FALSE(traced.spans.empty());
  EXPECT_EQ(traced.spans.size(), 25u);
  EXPECT_EQ(log_digest(traced.spans), 0xf631e8f04f4f3c4eULL);
}

TEST(Topology, UniformLatency) {
  UniformTopology t(4, duration::millis(10));
  EXPECT_EQ(t.latency(0, 1), duration::millis(10));
  EXPECT_EQ(t.latency(2, 3), duration::millis(10));
  EXPECT_LT(t.latency(1, 1), duration::millis(1));
}

TEST(Topology, EuclideanSymmetricAndDeterministic) {
  EuclideanTopology t1(16, 100.0, duration::millis(1), duration::micros(50), 42);
  EuclideanTopology t2(16, 100.0, duration::millis(1), duration::micros(50), 42);
  for (HostId a = 0; a < 16; ++a) {
    for (HostId b = 0; b < 16; ++b) {
      EXPECT_EQ(t1.latency(a, b), t1.latency(b, a));
      EXPECT_EQ(t1.latency(a, b), t2.latency(a, b));
    }
  }
}

TEST(Topology, TransitStubIntraCheaperThanInter) {
  TransitStubTopology::Params p;
  p.regions = 4;
  TransitStubTopology t(16, p);
  // Hosts 0 and 4 share region 0; hosts 0 and 1 are in different regions.
  EXPECT_EQ(t.region_of(0), t.region_of(4));
  EXPECT_NE(t.region_of(0), t.region_of(1));
  EXPECT_LT(t.latency(0, 4), t.latency(0, 1));
}

// --- Network ---

struct NetFixture {
  Scheduler sched;
  std::shared_ptr<UniformTopology> topo = std::make_shared<UniformTopology>(8, 1000);
  Network net{sched, topo};
};

TEST(Network, DeliversAfterLatency) {
  NetFixture f;
  SimTime delivered_at = -1;
  f.net.register_handler(1, "test", [&](const Packet&) { delivered_at = f.sched.now(); });
  f.net.send(0, 1, "test", std::string("hi"), 100);
  f.sched.run();
  EXPECT_GE(delivered_at, 1000);
}

TEST(Network, BodyTypePreserved) {
  NetFixture f;
  std::string got;
  f.net.register_handler(1, "test", [&](const Packet& p) {
    const auto* body = packet_body<std::string>(p);
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(packet_body<int>(p), nullptr);  // a mismatch is null, not a throw
    got = *body;
  });
  f.net.send(0, 1, "test", std::string("payload"), 10);
  f.sched.run();
  EXPECT_EQ(got, "payload");
}

TEST(Network, BodyIsDestroyedExactlyOnceAcrossCopyMoveParkAndDelivery) {
  // Every value a Body holds, inline or on the heap, is destroyed once:
  // constructions (copies and moves included) and destructions balance
  // once the bodies, the packets and the network are gone.
  struct Counts {
    int constructed = 0;
    int destroyed = 0;
  };
  static Counts counts;
  struct Small {
    int value = 0;
    explicit Small(int v) : value(v) { ++counts.constructed; }
    Small(const Small& o) : value(o.value) { ++counts.constructed; }
    Small(Small&& o) noexcept : value(o.value) { ++counts.constructed; }
    ~Small() { ++counts.destroyed; }
  };
  struct Large : Small {
    char pad[Body::kInlineBytes] = {};
    explicit Large(int v) : Small(v) {}
  };
  static_assert(Body::stores_inline<Small> && !Body::stores_inline<Large>);
  counts = {};
  std::vector<int> got;
  {
    NetFixture f;
    LinkFaults dup;
    dup.duplicate = 1.0;  // every packet parks twice
    f.net.set_link_faults(dup);
    f.net.register_handler(1, "t", [&](const Packet& p) {
      if (const auto* s = packet_body<Small>(p)) got.push_back(s->value);
      if (const auto* l = packet_body<Large>(p)) got.push_back(l->value);
    });
    Body a(Small(1));
    Body b = a;             // copy
    Body c = std::move(a);  // move: `a` is left empty
    EXPECT_FALSE(a.has_value());
    Body big(Large(2));
    Body big_copy = big;
    c = big_copy;  // copy-assign over a different type
    f.net.send(Packet{0, 1, "t", std::move(b), 10});
    f.net.send(Packet{0, 1, "t", std::move(big), 10});
    f.sched.run();
    EXPECT_GT(counts.constructed, 0);
    EXPECT_LT(counts.destroyed, counts.constructed);  // c and big_copy live on
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int>{1, 1, 2, 2}));  // each packet and its duplicate
  EXPECT_EQ(counts.destroyed, counts.constructed);
}

TEST(Network, DropsWhenDestinationDown) {
  NetFixture f;
  int received = 0;
  f.net.register_handler(1, "test", [&](const Packet&) { ++received; });
  f.net.set_host_up(1, false);
  f.net.send(0, 1, "test", 1, 10);
  f.sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net.stats().messages_dropped, 1u);
}

TEST(Network, DropsInFlightWhenDestinationDiesBeforeDelivery) {
  NetFixture f;
  int received = 0;
  f.net.register_handler(1, "test", [&](const Packet&) { ++received; });
  f.net.send(0, 1, "test", 1, 10);
  f.sched.after(10, [&] { f.net.set_host_up(1, false); });  // dies mid-flight
  f.sched.run();
  EXPECT_EQ(received, 0);
}

TEST(Network, CountsBytesAndMessages) {
  NetFixture f;
  f.net.register_handler(1, "test", [](const Packet&) {});
  f.net.send(0, 1, "test", 1, 250);
  f.net.send(0, 1, "test", 2, 750);
  f.sched.run();
  EXPECT_EQ(f.net.stats().messages_sent, 2u);
  EXPECT_EQ(f.net.stats().messages_delivered, 2u);
  EXPECT_EQ(f.net.stats().bytes_sent, 1000u);
  EXPECT_EQ(f.net.delivered_to(1), 2u);
}

TEST(Network, SourceDropsAreNotCountedAsTraffic) {
  // A packet refused at the source (host down / id out of range) never
  // reaches the wire: it must count as a drop, not as sent traffic,
  // or bytes-per-delivery metrics skew under churn.
  NetFixture f;
  f.net.register_handler(1, "test", [](const Packet&) {});
  f.net.set_host_up(0, false);
  f.net.send(0, 1, "test", 1, 500);
  f.net.send(42, 1, "test", 1, 500);  // src out of range
  f.sched.run();
  EXPECT_EQ(f.net.stats().messages_sent, 0u);
  EXPECT_EQ(f.net.stats().bytes_sent, 0u);
  EXPECT_EQ(f.net.stats().messages_dropped, 2u);
}

TEST(Network, NoHandlerCountsAsDrop) {
  NetFixture f;
  f.net.send(0, 1, "nobody", 1, 10);
  f.sched.run();
  EXPECT_EQ(f.net.stats().messages_dropped, 1u);
}

TEST(Network, LiveHostsReflectsState) {
  NetFixture f;
  EXPECT_EQ(f.net.live_hosts().size(), 8u);
  f.net.set_host_up(3, false);
  EXPECT_EQ(f.net.live_hosts().size(), 7u);
}

TEST(Network, LinkIsFifoEvenAcrossSizes) {
  // A small message sent after a large one on the same link must not
  // overtake it (TCP-like per-link ordering).
  NetFixture f;
  std::vector<int> order;
  f.net.register_handler(1, "t", [&](const Packet& p) {
    order.push_back(*packet_body<int>(p));
  });
  f.net.send(0, 1, "t", 1, 1000000);  // large: 10 ms transmission
  f.net.send(0, 1, "t", 2, 1);        // tiny
  f.sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Network, DistinctLinksDoNotSerialise) {
  NetFixture f;
  std::vector<int> order;
  for (HostId h : {1u, 2u}) {
    f.net.register_handler(h, "t", [&](const Packet& p) {
      order.push_back(*packet_body<int>(p));
    });
  }
  f.net.send(0, 1, "t", 1, 1000000);  // large, to host 1
  f.net.send(0, 2, "t", 2, 1);        // tiny, to host 2: separate link
  f.sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Network, TransmissionTimeAddsToLatency) {
  NetFixture f;  // bandwidth default: 100 bytes/us
  SimTime small_t = 0, big_t = 0;
  f.net.register_handler(1, "s", [&](const Packet&) { small_t = f.sched.now(); });
  f.net.register_handler(2, "b", [&](const Packet&) { big_t = f.sched.now(); });
  f.net.send(0, 1, "s", 1, 100);       // 1 us tx
  f.net.send(0, 2, "b", 1, 100000);    // 1000 us tx
  f.sched.run();
  EXPECT_GT(big_t, small_t);
}

// --- Link faults ---

TEST(LinkFaults, DropFaultLosesPacketsAndCounts) {
  NetFixture f;
  int received = 0;
  f.net.register_handler(1, "t", [&](const Packet&) { ++received; });
  f.net.set_link_faults({.drop = 1.0});
  f.net.send(0, 1, "t", 1, 10);
  f.sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net.stats().dropped_by_fault, 1u);
  EXPECT_EQ(f.net.stats().messages_sent, 1u);  // it did reach the wire
  EXPECT_EQ(f.net.stats().messages_delivered, 0u);
}

TEST(LinkFaults, LoopbackIsExempt) {
  NetFixture f;
  int received = 0;
  f.net.register_handler(0, "t", [&](const Packet&) { ++received; });
  f.net.set_link_faults({.drop = 1.0, .duplicate = 1.0});
  f.net.send(0, 0, "t", 1, 10);
  f.sched.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.net.stats().dropped_by_fault, 0u);
  EXPECT_EQ(f.net.stats().duplicated, 0u);
}

TEST(LinkFaults, DuplicateDeliversTwice) {
  NetFixture f;
  int received = 0;
  f.net.register_handler(1, "t", [&](const Packet&) { ++received; });
  f.net.set_link_faults({.duplicate = 1.0});
  f.net.send(0, 1, "t", 1, 10);
  f.sched.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(f.net.stats().duplicated, 1u);
  EXPECT_EQ(f.net.stats().messages_sent, 1u);
}

TEST(LinkFaults, ReorderBypassesLinkFifo) {
  // With reordering forced on and no jitter, a tiny packet sent after a
  // large one arrives first: each packet pays only its own transmission
  // time instead of queueing behind the link.
  NetFixture f;
  std::vector<int> order;
  f.net.register_handler(1, "t", [&](const Packet& p) {
    order.push_back(*packet_body<int>(p));
  });
  f.net.set_link_faults({.reorder = 1.0, .jitter = 0});
  f.net.send(0, 1, "t", 1, 1000000);  // large: 10 ms transmission
  f.net.send(0, 1, "t", 2, 1);        // tiny: overtakes
  f.sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(LinkFaults, PerLinkOverrideWinsOverDefault) {
  NetFixture f;
  int to_1 = 0, to_2 = 0;
  f.net.register_handler(1, "t", [&](const Packet&) { ++to_1; });
  f.net.register_handler(2, "t", [&](const Packet&) { ++to_2; });
  f.net.set_link_faults({.drop = 1.0});
  f.net.set_link_faults(0, 1, LinkFaults{});  // clean override inside a lossy net
  f.net.send(0, 1, "t", 1, 10);
  f.net.send(0, 2, "t", 1, 10);
  f.sched.run();
  EXPECT_EQ(to_1, 1);
  EXPECT_EQ(to_2, 0);
  f.net.clear_link_faults();
  f.net.send(0, 2, "t", 1, 10);
  f.sched.run();
  EXPECT_EQ(to_2, 1);
}

TEST(LinkFaults, KilledLinkDropsEverything) {
  NetFixture f;
  int received = 0;
  f.net.register_handler(1, "t", [&](const Packet&) { ++received; });
  f.net.set_link_faults(0, 1, {.drop = 1.0});
  for (int i = 0; i < 10; ++i) f.net.send(0, 1, "t", i, 10);
  f.sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net.stats().dropped_by_fault, 10u);
}

TEST(LinkFaults, FaultsAreDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    NetFixture f;
    std::vector<int> got;
    f.net.register_handler(1, "t", [&](const Packet& p) {
      got.push_back(*packet_body<int>(p));
    });
    f.net.set_link_faults(
        {.drop = 0.3, .duplicate = 0.2, .reorder = 0.3, .jitter = 2000, .seed = seed});
    for (int i = 0; i < 200; ++i) f.net.send(0, 1, "t", i, 100);
    f.sched.run();
    return got;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Partition, BlocksBothDirectionsUntilHealed) {
  NetFixture f;
  int received = 0;
  f.net.register_handler(1, "t", [&](const Packet&) { ++received; });
  f.net.register_handler(0, "t", [&](const Packet&) { ++received; });
  f.net.partition("cut", {0, 2}, {1, 3});
  EXPECT_TRUE(f.net.partitioned(0, 1));
  EXPECT_TRUE(f.net.partitioned(1, 0));
  EXPECT_TRUE(f.net.partitioned(3, 2));
  EXPECT_FALSE(f.net.partitioned(0, 2));  // same side
  f.net.send(0, 1, "t", 1, 10);
  f.net.send(1, 0, "t", 1, 10);
  f.sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net.stats().dropped_by_fault, 2u);
  f.net.heal("cut");
  EXPECT_FALSE(f.net.partitioned(0, 1));
  f.net.send(0, 1, "t", 1, 10);
  f.sched.run();
  EXPECT_EQ(received, 1);
}

TEST(Partition, NamedPartitionsHealIndependently) {
  NetFixture f;
  f.net.partition("a", {0}, {1});
  f.net.partition("b", {0}, {2});
  f.net.heal("a");
  EXPECT_FALSE(f.net.partitioned(0, 1));
  EXPECT_TRUE(f.net.partitioned(0, 2));
  f.net.heal();  // heal-all clears the rest
  EXPECT_FALSE(f.net.partitioned(0, 2));
}

TEST(Partition, InFlightPacketsStillArrive) {
  // Cutting a link mid-flight does not destroy packets already on the
  // wire — only new sends are blocked, as on a real network.
  NetFixture f;
  int received = 0;
  f.net.register_handler(1, "t", [&](const Packet&) { ++received; });
  f.net.send(0, 1, "t", 1, 10);
  f.sched.after(10, [&] { f.net.partition("cut", {0}, {1}); });
  f.sched.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, InFlightPacketNotDeliveredToReincarnatedHost) {
  // The destination crashes and rejoins while the packet is in flight:
  // the reincarnated host is a fresh endpoint and must not receive
  // traffic addressed to its previous life.
  NetFixture f;
  int received = 0;
  f.net.register_handler(1, "t", [&](const Packet&) { ++received; });
  f.net.send(0, 1, "t", 1, 10);  // arrives at ~1000 us
  f.sched.after(10, [&] { f.net.set_host_up(1, false); });
  f.sched.after(20, [&] { f.net.set_host_up(1, true); });
  f.sched.run();
  EXPECT_TRUE(f.net.host_up(1));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net.stats().messages_dropped, 1u);
  // A packet sent to the new incarnation arrives normally.
  f.net.send(0, 1, "t", 2, 10);
  f.sched.run();
  EXPECT_EQ(received, 1);
}

// --- Reliable transport ---

TEST(ReliableTransport, ExactlyOnceUnderHeavyLoss) {
  NetFixture f;
  f.net.set_link_faults(
      {.drop = 0.4, .duplicate = 0.3, .reorder = 0.3, .jitter = 2000, .seed = 11});
  ReliableParams rp;
  rp.initial_rto = duration::millis(5);
  rp.max_rto = duration::millis(50);
  rp.max_retries = 40;
  ReliableTransport rt(f.net, "rel", rp);
  std::map<int, int> got;
  rt.register_handler(1, [&](const Packet& p) { ++got[*packet_body<int>(p)]; });
  for (int i = 0; i < 50; ++i) rt.send(0, 1, i, 100);
  f.sched.run();
  ASSERT_EQ(got.size(), 50u);
  for (const auto& [msg, count] : got) EXPECT_EQ(count, 1) << "message " << msg;
  EXPECT_EQ(rt.in_flight(), 0u);
  EXPECT_EQ(rt.stats().give_ups, 0u);
  EXPECT_GT(rt.stats().retransmits, 0u);
  // Retries are visible in the network-wide counters too.
  EXPECT_EQ(f.net.stats().retransmits, rt.stats().retransmits);
}

TEST(ReliableTransport, DeliveredPacketCarriesOriginalBodyAndSender) {
  NetFixture f;
  ReliableTransport rt(f.net, "rel");
  Packet seen;
  rt.register_handler(2, [&](const Packet& p) { seen = p; });
  rt.send(3, 2, std::string("payload"), 77);
  f.sched.run();
  EXPECT_EQ(seen.src, 3u);
  EXPECT_EQ(seen.dst, 2u);
  EXPECT_EQ(seen.wire_size, 77u);
  const auto* body = packet_body<std::string>(seen);
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(*body, "payload");
}

TEST(ReliableTransport, RetransmitsAcrossPartitionUntilHealed) {
  NetFixture f;
  ReliableParams rp;
  rp.initial_rto = duration::millis(10);
  rp.max_rto = duration::millis(100);
  rp.max_retries = 40;
  ReliableTransport rt(f.net, "rel", rp);
  int got = 0;
  rt.register_handler(1, [&](const Packet&) { ++got; });
  f.net.partition("cut", {0}, {1});
  rt.send(0, 1, 42, 100);
  f.sched.after(duration::millis(300), [&] { f.net.heal("cut"); });
  f.sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(rt.stats().give_ups, 0u);
  EXPECT_GT(rt.stats().retransmits, 0u);
  EXPECT_EQ(rt.in_flight(), 0u);
}

TEST(ReliableTransport, GivesUpAfterRetryCapWhenPeerIsDown) {
  NetFixture f;
  ReliableParams rp;
  rp.initial_rto = duration::millis(5);
  rp.max_rto = duration::millis(10);
  rp.max_retries = 3;
  ReliableTransport rt(f.net, "rel", rp);
  rt.register_handler(1, [](const Packet&) {});
  f.net.set_host_up(1, false);
  int gave_up = 0;
  Packet lost;
  rt.set_give_up([&](const Packet& p) {
    ++gave_up;
    lost = p;
  });
  rt.send(0, 1, std::string("x"), 50);
  f.sched.run();
  EXPECT_EQ(gave_up, 1);
  EXPECT_EQ(lost.dst, 1u);
  EXPECT_EQ(rt.stats().give_ups, 1u);
  EXPECT_EQ(rt.stats().retransmits, 3u);
  EXPECT_EQ(rt.in_flight(), 0u);
}

TEST(ReliableTransport, GivesUpPromptlyWhenPeerReincarnates) {
  // Regression: the transport used to burn the full retry budget against
  // a peer that had crashed and rejoined, even though the reincarnated
  // endpoint can never ack the old send.  The incarnation recorded at
  // send time must trigger a give-up at the first retry after the bump.
  NetFixture f;
  ReliableParams rp;
  rp.initial_rto = duration::millis(10);
  rp.max_rto = duration::millis(10);
  rp.max_retries = 1000;  // a full-budget wait would run ~10 s
  ReliableTransport rt(f.net, "rel", rp);
  rt.register_handler(1, [](const Packet&) {});
  int gave_up = 0;
  rt.set_give_up([&](const Packet&) { ++gave_up; });
  f.net.partition("cut", {0}, {1});  // the send and retries all drop
  rt.send(0, 1, 7, 50);
  f.sched.after(duration::millis(25), [&] {
    f.net.set_host_up(1, false);  // crash bumps the incarnation
    f.net.set_host_up(1, true);
    f.net.heal("cut");
  });
  f.sched.run();
  EXPECT_EQ(gave_up, 1);
  EXPECT_EQ(rt.stats().incarnation_give_ups, 1u);
  EXPECT_EQ(rt.stats().give_ups, 1u);
  EXPECT_LT(rt.stats().retransmits, 6u);  // gave up promptly, not at cap
  EXPECT_EQ(rt.in_flight(), 0u);
  // The scheduler drained in well under the full-budget horizon.
  EXPECT_LT(f.sched.now(), duration::seconds(1));
}

TEST(ReliableTransport, SameIncarnationStillRetriesToCap) {
  // Control for the above: a peer that is merely unreachable (same
  // incarnation) must still get the whole retry budget.
  NetFixture f;
  ReliableParams rp;
  rp.initial_rto = duration::millis(5);
  rp.max_rto = duration::millis(5);
  rp.max_retries = 4;
  ReliableTransport rt(f.net, "rel", rp);
  rt.register_handler(1, [](const Packet&) {});
  f.net.partition("cut", {0}, {1});
  rt.send(0, 1, 7, 50);
  f.sched.run();
  EXPECT_EQ(rt.stats().retransmits, 4u);
  EXPECT_EQ(rt.stats().give_ups, 1u);
  EXPECT_EQ(rt.stats().incarnation_give_ups, 0u);
}

// --- Churn ---

TEST(Churn, DirectedKillAndRevive) {
  NetFixture f;
  ChurnInjector churn(f.net, {});
  std::vector<std::pair<HostId, ChurnEvent>> events;
  churn.add_observer([&](HostId h, ChurnEvent e) { events.emplace_back(h, e); });
  churn.kill(2, /*graceful=*/false);
  EXPECT_FALSE(f.net.host_up(2));
  churn.revive(2);
  EXPECT_TRUE(f.net.host_up(2));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].second, ChurnEvent::kCrash);
  EXPECT_EQ(events[1].second, ChurnEvent::kJoin);
}

TEST(Churn, GracefulLeaveNotifiesBeforeDown) {
  NetFixture f;
  ChurnInjector churn(f.net, {});
  bool was_up_at_notification = false;
  churn.add_observer([&](HostId h, ChurnEvent e) {
    if (e == ChurnEvent::kGracefulLeave) was_up_at_notification = f.net.host_up(h);
  });
  churn.kill(2, /*graceful=*/true);
  EXPECT_TRUE(was_up_at_notification);
  EXPECT_FALSE(f.net.host_up(2));
}

TEST(Churn, CrashNotifiesAfterDown) {
  NetFixture f;
  ChurnInjector churn(f.net, {});
  bool was_up_at_notification = true;
  churn.add_observer([&](HostId h, ChurnEvent e) {
    if (e == ChurnEvent::kCrash) was_up_at_notification = f.net.host_up(h);
  });
  churn.kill(2, /*graceful=*/false);
  EXPECT_FALSE(was_up_at_notification);
  EXPECT_FALSE(f.net.host_up(2));
}

TEST(Churn, RecoveryHooksRunAfterUpBeforeJoinObservers) {
  // A rejoin must run the host's recovery hooks (store replay, broker
  // checkpoint restore) after the host is back up but before kJoin
  // observers fire, so overlay repair and workloads reacting to the
  // join see recovered state, not an empty node.
  NetFixture f;
  ChurnInjector churn(f.net, {});
  std::vector<std::string> order;
  churn.add_recovery_hook(2, [&](HostId h) {
    EXPECT_EQ(h, 2u);
    EXPECT_TRUE(f.net.host_up(2));  // host already up when hooks run
    order.push_back("recover-a");
  });
  churn.add_recovery_hook(2, [&](HostId) { order.push_back("recover-b"); });
  churn.add_recovery_hook(3, [&](HostId) { order.push_back("other-host"); });
  churn.add_observer([&](HostId h, ChurnEvent e) {
    if (e == ChurnEvent::kJoin) order.push_back("join-" + std::to_string(h));
  });
  churn.kill(2, /*graceful=*/false);
  churn.revive(2);
  // Hooks run in registration order, only for the rejoining host, and
  // strictly before the kJoin observers.
  EXPECT_EQ(order, (std::vector<std::string>{"recover-a", "recover-b", "join-2"}));
}

TEST(Churn, KillRespectsProtectedHosts) {
  NetFixture f;
  ChurnInjector churn(f.net, {});
  churn.start({2});
  churn.kill(2, /*graceful=*/false);
  churn.kill(2, /*graceful=*/true);
  EXPECT_TRUE(f.net.host_up(2));
  churn.kill(3, /*graceful=*/false);  // unprotected hosts still die
  EXPECT_FALSE(f.net.host_up(3));
  churn.stop();
}

TEST(Churn, RandomDeparturesRespectProtectedHosts) {
  NetFixture f;
  ChurnInjector::Params p;
  p.mean_departure_interval = duration::millis(10);
  p.seed = 3;
  ChurnInjector churn(f.net, p);
  churn.start({0});
  f.sched.run_until(duration::seconds(1));
  churn.stop();
  EXPECT_TRUE(f.net.host_up(0));  // protected host never dies
  EXPECT_GT(churn.departures(), 0);
}

TEST(Churn, NodesRejoinWhenDowntimeConfigured) {
  NetFixture f;
  ChurnInjector::Params p;
  p.mean_departure_interval = duration::millis(20);
  p.mean_downtime = duration::millis(5);
  p.seed = 4;
  ChurnInjector churn(f.net, p);
  churn.start();
  f.sched.run_until(duration::seconds(2));
  churn.stop();
  EXPECT_GT(churn.joins(), 0);
}

// --- Metrics ---

TEST(Histogram, PercentilesExact) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_NEAR(h.median(), 50.5, 0.01);
  EXPECT_NEAR(h.percentile(99), 99.01, 0.1);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Metrics, CountersAccumulate) {
  MetricsRegistry m;
  m.add("x");
  m.add("x", 4);
  EXPECT_EQ(m.counter("x"), 5u);
  EXPECT_EQ(m.counter("missing"), 0u);
}

// --- Per-link batching (Network::enable_batching) ---

// The frame model these tests price frames with: a 16-byte header plus
// a 2-byte length per member, as the XML codec's frame_size charges
// (pinned in codec_test).
std::size_t header_frame(std::span<const std::size_t> sizes) {
  std::size_t total = 16;
  for (std::size_t d : sizes) total += d + 2;
  return total;
}

TEST(Batching, CoalescesSameWindowSendsIntoOneFrame) {
  NetFixture f;
  std::vector<int> got;
  f.net.register_handler(1, "t", [&](const Packet& p) { got.push_back(*packet_body<int>(p)); });
  f.net.enable_batching(0, header_frame);
  f.net.send(0, 1, "t", 1, 100);
  f.net.send(0, 1, "t", 2, 100);
  f.net.send(0, 1, "t", 3, 100);
  f.sched.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));  // member order preserved
  const NetworkStats s = f.net.stats();
  EXPECT_EQ(s.messages_sent, 3u);
  EXPECT_EQ(s.messages_delivered, 3u);
  EXPECT_EQ(s.frames_sent, 1u);
  EXPECT_EQ(s.batched_messages, 3u);
  EXPECT_EQ(s.batch_flushes, 1u);
  EXPECT_EQ(s.packets_sent(), 1u);  // one physical packet for 3 messages
}

TEST(Batching, SingleMessageFlushesAsPlainDatagram) {
  NetFixture f;
  int got = 0;
  f.net.register_handler(1, "t", [&](const Packet&) { ++got; });
  f.net.enable_batching(0, header_frame);
  f.net.send(0, 1, "t", 1, 250);
  f.sched.run();
  EXPECT_EQ(got, 1);
  const NetworkStats s = f.net.stats();
  EXPECT_EQ(s.frames_sent, 0u);  // never inflated into a frame of one
  EXPECT_EQ(s.batched_messages, 0u);
  EXPECT_EQ(s.batch_flushes, 1u);
  EXPECT_EQ(s.bytes_sent, 250u);  // exact datagram cost, no envelope
  EXPECT_EQ(s.packets_sent(), 1u);
}

TEST(Batching, LoopbackBypassesStaging) {
  NetFixture f;
  int got = 0;
  f.net.register_handler(0, "t", [&](const Packet&) { ++got; });
  f.net.enable_batching(0, header_frame);
  f.net.send(0, 0, "t", 1, 10);
  f.sched.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(f.net.stats().batch_flushes, 0u);
}

TEST(Batching, DistinctLinksGetDistinctFrames) {
  NetFixture f;
  int got = 0;
  for (HostId h = 1; h <= 2; ++h) {
    f.net.register_handler(h, "t", [&](const Packet&) { ++got; });
  }
  f.net.enable_batching(0, header_frame);
  f.net.send(0, 1, "t", 1, 50);
  f.net.send(0, 1, "t", 2, 50);
  f.net.send(0, 2, "t", 3, 50);
  f.net.send(0, 2, "t", 4, 50);
  f.net.send(1, 2, "t", 5, 50);
  f.sched.run();
  EXPECT_EQ(got, 5);
  const NetworkStats s = f.net.stats();
  EXPECT_EQ(s.batch_flushes, 3u);  // (0,1), (0,2), (1,2)
  EXPECT_EQ(s.frames_sent, 2u);    // the two 2-member links
  EXPECT_EQ(s.batched_messages, 4u);
  EXPECT_EQ(s.packets_sent(), 3u);
}

TEST(Batching, DefaultSizerChargesSharedHeader) {
  NetFixture f;
  f.net.register_handler(1, "t", [](const Packet&) {});
  f.net.enable_batching(0, header_frame);  // 16 + per-member (size + 2)
  f.net.send(0, 1, "t", 1, 100);
  f.net.send(0, 1, "t", 2, 200);
  f.sched.run();
  EXPECT_EQ(f.net.stats().bytes_sent, 16u + (100 + 2) + (200 + 2));
}

TEST(Batching, CustomFrameSizerIsUsed) {
  NetFixture f;
  f.net.register_handler(1, "t", [](const Packet&) {});
  f.net.enable_batching(0, [](std::span<const std::size_t> sizes) {
    std::size_t total = 1000;  // deliberately weird model
    for (std::size_t d : sizes) total += d;
    return total;
  });
  f.net.send(0, 1, "t", 1, 10);
  f.net.send(0, 1, "t", 2, 20);
  f.sched.run();
  EXPECT_EQ(f.net.stats().bytes_sent, 1030u);
}

TEST(Batching, WindowDelaysFlush) {
  NetFixture f;  // link latency 1000
  SimTime delivered_at = -1;
  f.net.register_handler(1, "t", [&](const Packet&) { delivered_at = f.sched.now(); });
  f.net.enable_batching(500, header_frame);
  f.net.send(0, 1, "t", 1, 10);
  f.sched.run();
  EXPECT_GE(delivered_at, 1500);  // staged 500, then the link latency
}

TEST(Batching, FaultDropLosesWholeFrame) {
  NetFixture f;
  int got = 0;
  f.net.register_handler(1, "t", [&](const Packet&) { ++got; });
  LinkFaults faults;
  faults.drop = 1.0;
  f.net.set_link_faults(faults);
  f.net.enable_batching(0, header_frame);
  f.net.send(0, 1, "t", 1, 10);
  f.net.send(0, 1, "t", 2, 10);
  f.net.send(0, 1, "t", 3, 10);
  f.sched.run();
  EXPECT_EQ(got, 0);
  const NetworkStats s = f.net.stats();
  EXPECT_EQ(s.frames_sent, 1u);
  EXPECT_EQ(s.dropped_by_fault, 3u);  // one draw, three members lost
}

TEST(Batching, DuplicateCopiesWholeFrame) {
  NetFixture f;
  int got = 0;
  f.net.register_handler(1, "t", [&](const Packet&) { ++got; });
  LinkFaults faults;
  faults.duplicate = 1.0;
  f.net.set_link_faults(faults);
  f.net.enable_batching(0, header_frame);
  f.net.send(0, 1, "t", 1, 10);
  f.net.send(0, 1, "t", 2, 10);
  f.sched.run();
  EXPECT_EQ(got, 4);  // both members arrive twice
  EXPECT_EQ(f.net.stats().duplicated, 2u);
}

TEST(Batching, SenderCrashBeforeFlushDropsStagedMembers) {
  NetFixture f;
  int got = 0;
  f.net.register_handler(1, "t", [&](const Packet&) { ++got; });
  f.net.enable_batching(500, header_frame);
  f.net.send(0, 1, "t", 1, 10);
  f.sched.after(100, [&] { f.net.set_host_up(0, false); });
  f.sched.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(f.net.stats().messages_dropped, 1u);
}

TEST(Batching, SenderRestartInsideWindowDropsStagedMembers) {
  // The crash empties the sender's egress queue even though the host is
  // back up when the flush fires: the restarted host is a fresh
  // endpoint, as it is on the receive side.
  NetFixture f;
  int got = 0;
  f.net.register_handler(1, "t", [&](const Packet&) { ++got; });
  f.net.enable_batching(duration::millis(10), header_frame);
  f.net.send<std::uint64_t>(0, 1, "t", 7, 64);
  f.sched.after(duration::millis(2), [&] { f.net.set_host_up(0, false); });
  f.sched.after(duration::millis(4), [&] { f.net.set_host_up(0, true); });
  f.sched.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(f.net.stats().messages_dropped, 1u);
  EXPECT_EQ(f.net.stats().messages_delivered, 0u);

  // The restarted host batches afresh.
  f.net.send<std::uint64_t>(0, 1, "t", 8, 64);
  f.sched.run();
  EXPECT_EQ(got, 1);
}

// Batched fan-out under faults: member order, fault draws and counters
// are pinned by constants recorded when sharded runs still matched this
// sequential one.
TEST(Batching, DeterministicAcrossShards) {
  Scheduler sched;
  auto topo = std::make_shared<UniformTopology>(6, duration::millis(2));
  Network net(sched, topo);
  LinkFaults f;
  f.drop = 0.1;
  f.duplicate = 0.05;
  f.seed = 7;
  net.set_link_faults(f);
  net.enable_batching(0, header_frame);
  std::vector<std::vector<std::string>> logs(6);
  for (HostId h = 0; h < 6; ++h) {
    net.register_handler(h, "relay", [&net, &logs, h](const Packet& pk) {
      const int ttl = *packet_body<int>(pk);
      logs[h].push_back("h" + std::to_string(pk.src) + ":" + std::to_string(ttl));
      if (ttl > 0) {
        for (HostId n = 0; n < 6; ++n) {
          if (n != h) net.send(h, n, "relay", ttl - 1, 64);
        }
      }
    });
  }
  for (HostId h = 0; h < 6; ++h) net.send(5 - h, h, "relay", 2, 64);
  sched.run();
  std::vector<std::string> digest;
  for (auto& log : logs) {
    std::sort(log.begin(), log.end());
    digest.insert(digest.end(), log.begin(), log.end());
    digest.push_back("--");
  }
  const NetworkStats& stats = net.stats();
  ASSERT_GT(stats.frames_sent, 0u);  // batching actually engaged
  EXPECT_EQ(log_digest(digest), 0x904ab0959a93b1b5ULL);
  EXPECT_EQ(stats.frames_sent, 20u);
  EXPECT_EQ(stats.batched_messages, 65u);
  EXPECT_EQ(stats.dropped_by_fault, 17u);
  EXPECT_EQ(stats.bytes_sent, 13634u);
}

}  // namespace
}  // namespace aa::sim
