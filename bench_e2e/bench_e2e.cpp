// bench_e2e — the paper's assembled system end to end, with a per-layer
// time ledger.
//
// §1.2 asks the matching service to turn the event stream into
// "contextual information that is pertinent to users within an
// appropriate time frame".  This harness drives the whole
// gloss::ActiveArchitecture facade (sequential scheduler, topology seed
// 42, 8 brokers, 4 regions) through one named workload and measures, per
// delivered event, the wall-clock work of the simulation, heap
// allocations, packets, bytes and virtual delivery latency.  Every layer
// is measured from outside, through its public functions and the stats
// it already keeps.
//
//   bench_e2e --workload heat|churn|fanout|store [--seed N] [--seconds S]
//             [--trace 0|1] [--smoke] [--snapshot FILE]
//
// A run repeats "rounds" — build the facade, set it up, run a quiet
// window, run the traffic, check every output — until --seconds of wall
// time are spent.  Wall times are taken from the fastest rounds (see
// fastest_steps_ns), other timings are medians over rounds.  Rounds of
// one seed must agree exactly on every count and on the delivery digest;
// that is one of the correctness checks.  With --trace 1 every second round also
// turns on the scheduler profiler and causal tracing: those rounds give
// the time ledger, and must still agree with the untraced ones, because
// observation must not change what the system does.  Layer probes then
// time single public functions on the workload's own inputs.
//
// The simulator charges no CPU time to virtual time, so virtual latency
// does not grow with offered load; the benchmark therefore reports work
// per delivered event at a fixed input size, plus virtual latency.
//
// The last line of output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Exit status is 0 when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "common/hash.hpp"
#include "common/ids.hpp"
#include "event/filter_index.hpp"
#include "heat_service.hpp"
#include "obs/profiler.hpp"
#include "overlay/overlay_network.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "wire/codec.hpp"

using namespace aa;
using bench_e2e::allocations;

namespace {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// --- Workloads ---------------------------------------------------------

constexpr SimDuration kHeatTick = duration::seconds(30);
constexpr SimDuration kChurnOffset = duration::seconds(15);  // writes at mid-tick
constexpr SimDuration kFanoutPeriod = duration::millis(100);
constexpr SimDuration kQuiet = duration::minutes(1);
// Longer than the object store's 10 s request timeout, so every get has
// either answered or timed out before the checks run.
constexpr SimDuration kDrain = duration::seconds(11);
constexpr std::size_t kTopics = 64;
constexpr int kValues = 80;
constexpr int kWeatherSensors = 4;

/// Whose deliveries the per-delivery metrics and latency are about.
enum class Primary { kSuggestion, kPublication, kGet };

/// One named traffic mix over the assembled system.  Every workload
/// runs the heat service and the object store, so every layer of the
/// facade has work in every run; the foreground component sets what
/// dominates.
struct Workload {
  const char* name;
  std::size_t hosts;
  const char* codec;
  std::int64_t batch_window_us;  // < 0: batching off
  SimDuration step;              // traffic step; divides every period below
  SimDuration traffic;           // virtual length of the traffic phase
  // Heat service: users report location every `report_ticks` 30 s ticks,
  // staggered evenly; four weather sensors report every 60 s.
  int users;
  int report_ticks;
  // Churn, at mid-tick: shares of users whose preference is rewritten
  // and whose device moves host, per tick.
  double update_share;
  double move_share;
  // Bus fan-out: Zipf(1.0) hotspot publications every 100 ms.
  int fanout_subscribers;
  int pubs_per_period;
  // Object store: preloaded objects of 512-1023 B, then `store_ops`
  // operations every `store_period`: Zipf(0.9) gets, and a put of a new
  // object as every `put_every`-th operation.
  int objects;
  int store_ops;
  SimDuration store_period;
  int put_every;
  Primary primary;
  // Every n-th root trace is recorded in traced rounds.
  std::uint64_t sample_every;
};

const std::vector<Workload>& workloads() {
  using namespace duration;
  static const std::vector<Workload> table = {
      // The paper's Fig. 1 path: matching, knowledge probes and pipeline
      // hops carry the traffic; 64 hosts make overlay maintenance show.
      // Each user reports once in the 5 minutes, and the rule's 10-minute
      // cooldown would suppress a second suggestion anyway.
      {"heat", 64, "xml", -1, seconds(30), minutes(5), 1000, 10, 0, 0, 0, 0, 64, 4,
       seconds(30), 4, Primary::kSuggestion, 1},
      // Writes beside reads: preference rewrites through the replicated
      // knowledge base and device moves (unsubscribe + subscribe).
      {"churn", 32, "xml", -1, seconds(15), minutes(10), 1000, 1, 0.05, 0.01, 0, 0, 64, 4,
       seconds(30), 4, Primary::kSuggestion, 1},
      // Broker routing, FilterIndex matching and client dispatch, on the
      // binary codec with per-link batching.
      {"fanout", 64, "binary", 0, millis(100), seconds(10), 32, 1, 0, 0, 10000, 100, 64, 4,
       seconds(5), 4, Primary::kPublication, 50},
      // Overlay routing, promiscuous caching and replication: a working
      // set far larger than each node's 512 KB cache.
      {"store", 64, "xml", -1, millis(500), seconds(30), 32, 1, 0, 0, 0, 0, 20000, 400,
       millis(500), 10, Primary::kGet, 10},
  };
  return table;
}

/// About 1/50 of the work, for a quick correctness smoke test.
Workload smoke_scaled(Workload w) {
  w.users = std::max(8, w.users / 50);
  w.fanout_subscribers /= 50;
  w.objects = std::max(16, w.objects / 50);
  w.store_ops = std::max(1, w.store_ops / 10);
  w.traffic = std::max(w.traffic / 5, 2 * kHeatTick);
  return w;
}

// --- Generated inputs ----------------------------------------------------

struct FanoutSub {
  sim::HostId host;
  std::size_t topic;
  int lo;  // value window [lo, lo + 30]
};

std::string topic_name(std::size_t rank) { return "topic" + std::to_string(rank); }

event::Filter fanout_filter(const FanoutSub& s) {
  event::Filter f;
  f.where("topic", event::Op::kEq, topic_name(s.topic))
      .where("value", event::Op::kGe, static_cast<double>(s.lo))
      .where("value", event::Op::kLe, static_cast<double>(s.lo + 30));
  return f;
}

event::Event fanout_event(std::size_t topic, int value) {
  event::Event e("reading");
  e.set("topic", topic_name(topic)).set("value", static_cast<double>(value));
  return e;
}

Bytes random_object(Rng& rng) {
  Bytes data(512 + rng.below(512));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

/// Everything the seed decides before the facade sees it.  Traffic is
/// generated step by step from the forked streams kept here.
struct Inputs {
  Inputs(const Workload& w, std::uint64_t seed) : root(seed) {
    Rng users_rng = root.fork();
    sensors = root.fork();
    churn = root.fork();
    Rng fanout_rng = root.fork();
    publications = root.fork();
    Rng objects_rng = root.fork();
    store_ops = root.fork();

    std::vector<int> order(static_cast<std::size_t>(w.users));
    for (int u = 0; u < w.users; ++u) {
      order[static_cast<std::size_t>(u)] = u;
      device.push_back(static_cast<sim::HostId>(users_rng.below(w.hosts)));
      prefs.push_back(bench_e2e::preference_fact(u, users_rng));
    }
    users_rng.shuffle(order);
    phase.resize(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      phase[static_cast<std::size_t>(order[i])] = static_cast<int>(i) % w.report_ticks;
    }
    // Fixed sensor sites, one per quarter of the host range as in F1: when
    // weather arrives decides when most suggestions fire, so seeded sites
    // would make latency a property of the seed rather than the system.
    for (int s = 0; s < kWeatherSensors; ++s) {
      weather_host.push_back(static_cast<sim::HostId>(s * w.hosts / kWeatherSensors));
    }
    for (int i = 0; i < w.fanout_subscribers; ++i) {
      subs.push_back({static_cast<sim::HostId>(fanout_rng.below(w.hosts)),
                      static_cast<std::size_t>(i) % kTopics, (i % 5) * 10});
    }
    for (int i = 0; i < w.objects; ++i) {
      objects.push_back(random_object(objects_rng));
      object_host.push_back(static_cast<sim::HostId>(objects_rng.below(w.hosts)));
    }
    rank_to_object.resize(objects.size());
    for (std::size_t i = 0; i < objects.size(); ++i) rank_to_object[i] = i;
    objects_rng.shuffle(rank_to_object);
  }

  Rng root;
  Rng sensors, churn, publications, store_ops;
  std::vector<sim::HostId> device;
  std::vector<match::Fact> prefs;
  std::vector<int> phase;
  std::vector<sim::HostId> weather_host;
  std::vector<FanoutSub> subs;
  std::vector<Bytes> objects;
  std::vector<sim::HostId> object_host;
  std::vector<std::size_t> rank_to_object;
};

// --- One round -----------------------------------------------------------

/// Counts that must repeat exactly for a seed, in every round, traced or
/// not.
using Counts = std::map<std::string, double>;

struct RoundResult {
  bool traced = false;
  double setup_s = 0;
  double idle_ns_per_vmin = 0;
  double install_ns_per_subscription = 0;
  // Traffic phase wall time and its parts.
  double traffic_ns = 0;
  std::vector<double> step_ns;  // wall time of each traffic step
  double generator_ns = 0;
  double gloss_ns = 0;
  double run_ns = 0;
  double busy_ns = 0;
  double bucket_ns[obs::kProfileBucketCount] = {};
  std::uint64_t allocs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t deliveries = 0;  // correct deliveries of the primary component
  Counts counts;
  std::vector<double> latency_ms;  // primary component, sorted
  std::string digest;
  // Traced rounds: TraceCollector::delivery_metrics() means.
  double trace_wire_us = 0;
  double trace_hops = 0;
  std::vector<std::string> problems;
  double peak_rss_mb = 0;  // process high-water mark when the round ended
};

class Round {
 public:
  Round(const Workload& w, std::uint64_t seed, bool traced)
      : w_(w), in_(w, seed), traced_(traced) {}
  Round(const Round&) = delete;
  Round& operator=(const Round&) = delete;

  RoundResult run() {
    result_.traced = traced_;
    setup();
    quiet();
    traffic();
    check();
    return std::move(result_);
  }

 private:
  // Delivery record tags: the digest covers every component.
  enum Tag : std::uint64_t { kSuggestionTag = 1, kPublicationTag = 2, kGetTag = 3, kPutTag = 4 };

  /// Failures are missing or surplus correct deliveries, plus wrong
  /// ones: a suggestion for another user or a publication outside the
  /// subscriber's filter (which also leaves a correct one missing), or a
  /// store operation answered twice.
  struct Tally {
    std::uint64_t expected = 0;
    std::uint64_t ok = 0;
    std::uint64_t wrong = 0;

    std::uint64_t failed() const {
      return (expected > ok ? expected - ok : ok - expected) + wrong;
    }
  };

  struct PendingOp {
    ObjectId id;
    SimTime issued = 0;
    bool answered = false;
  };

  void record(Tag tag, std::uint64_t who, SimTime at) {
    deliveries_.emplace_back((static_cast<std::uint64_t>(tag) << 56) | who, at);
  }

  void problem(const std::string& what) { result_.problems.push_back(what); }

  // --- setup: facade, knowledge, service, subscriptions, preload ---

  void setup() {
    const std::uint64_t t0 = wall_ns();
    gloss::ActiveArchitecture::Config config;
    config.hosts = w_.hosts;
    config.brokers = 8;
    config.regions = 4;
    config.seed = 42;
    config.codec = w_.codec;
    config.batch_window_us = w_.batch_window_us;
    config.profiling = traced_;
    arch_ = std::make_unique<gloss::ActiveArchitecture>(config);

    for (const match::Fact& pref : in_.prefs) fact_ids_.push_back(arch_->add_fact(pref));
    arch_->deploy_service(bench_e2e::heat_service());
    arch_->run_for(duration::seconds(30));

    const std::uint64_t install0 = wall_ns();
    std::size_t subscriptions = 0;
    for (int u = 0; u < w_.users; ++u) {
      subs_.push_back(subscribe_device(u, in_.device[static_cast<std::size_t>(u)]));
      ++subscriptions;
    }
    for (std::size_t i = 0; i < in_.subs.size(); ++i) {
      const FanoutSub& s = in_.subs[i];
      const event::Filter f = fanout_filter(s);
      arch_->subscribe_user(s.host, f, [this, i, f](const event::Event& e) {
        if (!f.matches(e)) {
          ++pubs_.wrong;
          return;
        }
        ++pubs_.ok;
        const SimTime now = arch_->scheduler().now();
        record(kPublicationTag, i, now);
        if (w_.primary == Primary::kPublication) latency(now - e.time());
      });
      ++subscriptions;
    }
    arch_->run_for(duration::seconds(10));
    result_.install_ns_per_subscription =
        static_cast<double>(wall_ns() - install0) / static_cast<double>(subscriptions);
    result_.counts["pubsub.subscriptions_forwarded"] =
        static_cast<double>(arch_->bus().total_broker_stats().subscriptions_forwarded);

    for (std::size_t i = 0; i < in_.objects.size(); ++i) {
      object_ids_.push_back(arch_->store().put(
          in_.object_host[i], in_.objects[i],
          [this](Result<ObjectId> r) { preloaded_ += r.is_ok() ? 1 : 0; }));
    }
    arch_->run_for(duration::seconds(10));
    result_.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;

    if (preloaded_ != in_.objects.size()) {
      problem("preload: " + std::to_string(preloaded_) + " of " +
              std::to_string(in_.objects.size()) + " puts acknowledged");
    }
    // The evolution engine names each instance "<service>@<host>".
    for (sim::HostId h = 0; h < w_.hosts; ++h) {
      auto* m = dynamic_cast<match::Matchlet*>(
          arch_->pipelines().component({h, "heat@" + std::to_string(h)}));
      if (m != nullptr) matchlets_.push_back(m);
    }
    if (matchlets_.size() != 2) {
      problem("heat service: " + std::to_string(matchlets_.size()) + " matchlets, want 2");
    }
  }

  std::uint64_t subscribe_device(int u, sim::HostId host) {
    return arch_->subscribe_user(
        host, bench_e2e::suggestion_filter(u), [this, u](const event::Event& e) {
          if (e.get_string("user") != bench_e2e::user_name(u)) {
            ++suggestions_.wrong;
            return;
          }
          ++suggestions_.ok;
          const SimTime now = arch_->scheduler().now();
          record(kSuggestionTag, static_cast<std::uint64_t>(u), now);
          // Sensor events are published on the tick grid, so the tick
          // that created the event completing the match is the tick
          // start at or before the suggestion's match time.
          if (w_.primary == Primary::kSuggestion) {
            latency(now - (start_ + (e.time() - start_) / kHeatTick * kHeatTick));
          }
        });
  }

  void latency(SimDuration d) { result_.latency_ms.push_back(to_millis(d)); }

  void quiet() {
    const std::uint64_t t0 = wall_ns();
    arch_->run_for(kQuiet);
    result_.idle_ns_per_vmin = static_cast<double>(wall_ns() - t0) /
                               (static_cast<double>(kQuiet) / duration::minutes(1));
  }

  // --- traffic ---

  struct Action {
    enum Kind { kPublish, kUpdate, kMove, kGet, kPut };
    Action(Kind k, sim::HostId h, event::Event e = {}, std::size_t i = 0, Bytes d = {})
        : kind(k), host(h), event(std::move(e)), index(i), data(std::move(d)) {}

    Kind kind;
    sim::HostId host;
    event::Event event;  // publish: the event; update: the new fact
    std::size_t index;   // update/move: user; get: object
    Bytes data;          // put
  };

  void generate(SimDuration t, std::vector<Action>& out) {
    if (w_.users > 0 && t % kHeatTick == 0) {
      const int tick = static_cast<int>(t / kHeatTick);
      for (int u = 0; u < w_.users; ++u) {
        if ((tick + in_.phase[static_cast<std::size_t>(u)]) % w_.report_ticks != 0) continue;
        out.emplace_back(Action::kPublish, in_.device[static_cast<std::size_t>(u)],
                       bench_e2e::location_event(u, in_.sensors));
      }
      if (tick % 2 == 0) {
        for (int s = 0; s < kWeatherSensors; ++s) {
          out.emplace_back(Action::kPublish, in_.weather_host[static_cast<std::size_t>(s)],
                         bench_e2e::weather_event(s, in_.sensors));
        }
      }
    }
    if ((w_.update_share > 0 || w_.move_share > 0) && t % kHeatTick == kChurnOffset) {
      const auto users = static_cast<std::uint64_t>(w_.users);
      const int updates = static_cast<int>(std::lround(w_.update_share * w_.users));
      for (int i = 0; i < updates; ++i) {
        const auto u = static_cast<int>(in_.churn.below(users));
        out.emplace_back(Action::kUpdate, 0, bench_e2e::preference_fact(u, in_.churn),
                       static_cast<std::size_t>(u));
      }
      const int moves = static_cast<int>(std::lround(w_.move_share * w_.users));
      for (int i = 0; i < moves; ++i) {
        const auto u = static_cast<std::size_t>(in_.churn.below(users));
        out.emplace_back(Action::kMove, static_cast<sim::HostId>(in_.churn.below(w_.hosts)),
                       event::Event(), u);
      }
    }
    if (w_.fanout_subscribers > 0 && t % kFanoutPeriod == 0) {
      for (int i = 0; i < w_.pubs_per_period; ++i) {
        const std::size_t topic = zipf_topics_.sample(in_.publications);
        const int value = static_cast<int>(in_.publications.below(kValues));
        out.emplace_back(Action::kPublish,
                       static_cast<sim::HostId>(in_.publications.below(w_.hosts)),
                       fanout_event(topic, value));
        pubs_.expected += fanout_expected_[topic][static_cast<std::size_t>(value)];
      }
    }
    if (w_.store_ops > 0 && t % w_.store_period == 0) {
      for (int i = 0; i < w_.store_ops; ++i) {
        const auto host = static_cast<sim::HostId>(in_.store_ops.below(w_.hosts));
        if (i % w_.put_every == w_.put_every - 1) {
          out.emplace_back(Action::kPut, host, event::Event(), 0, random_object(in_.store_ops));
        } else {
          const std::size_t rank = zipf_objects_.sample(in_.store_ops);
          out.emplace_back(Action::kGet, host, event::Event(), in_.rank_to_object[rank]);
        }
      }
    }
  }

  void apply(Action& a) {
    switch (a.kind) {
      case Action::kPublish:
        arch_->publish(a.host, a.event);
        break;
      case Action::kUpdate:
        if (!arch_->replicated_knowledge().update(fact_ids_[a.index], std::move(a.event))) {
          problem("update of fact " + std::to_string(fact_ids_[a.index]) + " refused");
        }
        break;
      case Action::kMove: {
        const int u = static_cast<int>(a.index);
        arch_->bus().unsubscribe(in_.device[a.index], subs_[a.index]);
        in_.device[a.index] = a.host;
        subs_[a.index] = subscribe_device(u, a.host);
        break;
      }
      case Action::kGet: {
        const std::size_t op = ops_.size();
        ops_.push_back({object_ids_[a.index], arch_->scheduler().now()});
        ++gets_.expected;
        arch_->store().get(a.host, object_ids_[a.index], [this, op](Result<Bytes> r) {
          PendingOp& p = ops_[op];
          if (p.answered) {
            ++gets_.wrong;  // answered twice
            return;
          }
          p.answered = true;
          if (!r.is_ok() || Uid160(Sha1::hash(r.value())) != p.id) return;
          ++gets_.ok;
          const SimTime now = arch_->scheduler().now();
          record(kGetTag, op, now);
          if (w_.primary == Primary::kGet) latency(now - p.issued);
        });
        break;
      }
      case Action::kPut: {
        const std::size_t op = ops_.size();
        const ObjectId id = Uid160(Sha1::hash(a.data));
        ops_.push_back({id, arch_->scheduler().now()});
        ++puts_.expected;
        arch_->store().put(a.host, std::move(a.data), [this, op](Result<ObjectId> r) {
          PendingOp& p = ops_[op];
          if (p.answered) {
            ++puts_.wrong;  // answered twice
            return;
          }
          p.answered = true;
          if (!r.is_ok() || r.value() != p.id) return;
          ++puts_.ok;
          record(kPutTag, op, arch_->scheduler().now());
        });
        break;
      }
    }
  }

  struct Snapshot {
    sim::NetworkStats net;
    pubsub::BrokerStats broker;
    pipeline::PipelineStats pipeline;
    storage::ObjectStoreStats store;
    match::EngineStats engine;
    std::uint64_t replica_updates = 0;
    std::uint64_t tasks = 0;
    std::uint64_t overlay_routed = 0;
    std::size_t overlay_hops = 0;
    std::uint64_t evaluations = 0;
  };

  Snapshot snapshot() {
    Snapshot s;
    s.net = arch_->network().stats();
    s.broker = arch_->bus().total_broker_stats();
    s.pipeline = arch_->pipelines().stats();
    s.store = arch_->store().stats();
    for (const match::Matchlet* m : matchlets_) {
      const match::EngineStats& e = m->engine().stats();
      s.engine.events_processed += e.events_processed;
      s.engine.candidate_bindings += e.candidate_bindings;
      s.engine.matches_emitted += e.matches_emitted;
      s.engine.cooldown_suppressed += e.cooldown_suppressed;
    }
    s.replica_updates = arch_->replicated_knowledge().stats().updates_applied;
    s.tasks = arch_->scheduler().executed_events();
    s.overlay_routed = arch_->overlay().routed_messages();
    s.overlay_hops = arch_->overlay().route_hops().values().size();
    s.evaluations = arch_->evolution().stats().evaluations;
    return s;
  }

  void traffic() {
    for (std::size_t t = 0; t < kTopics; ++t) {
      fanout_expected_.emplace_back(static_cast<std::size_t>(kValues), 0);
    }
    for (const FanoutSub& s : in_.subs) {
      for (int v = s.lo; v <= s.lo + 30 && v < kValues; ++v) {
        ++fanout_expected_[s.topic][static_cast<std::size_t>(v)];
      }
    }
    if (traced_) arch_->enable_tracing(w_.sample_every);
    obs::Profiler* prof = arch_->network().profiler();

    start_ = arch_->scheduler().now();
    before_ = snapshot();
    std::vector<Action> actions;
    const std::uint64_t allocs0 = allocations();
    const std::uint64_t t0 = wall_ns();
    auto run_step = [&](SimDuration d) {
      obs::Profiler::SlotCounters p0;
      if (prof != nullptr) p0 = prof->totals();
      const std::uint64_t r0 = wall_ns();
      arch_->run_for(d);
      result_.run_ns += static_cast<double>(wall_ns() - r0);
      if (prof != nullptr) {
        const obs::Profiler::SlotCounters p1 = prof->totals();
        result_.busy_ns += static_cast<double>(p1.busy_ns - p0.busy_ns);
        for (std::size_t b = 0; b < obs::kProfileBucketCount; ++b) {
          result_.bucket_ns[b] += static_cast<double>(p1.bucket_ns[b] - p0.bucket_ns[b]);
        }
      }
    };
    for (SimDuration t = 0; t < w_.traffic; t += w_.step) {
      const std::uint64_t g0 = wall_ns();
      actions.clear();
      generate(t, actions);
      const std::uint64_t g1 = wall_ns();
      for (Action& a : actions) apply(a);
      const std::uint64_t g2 = wall_ns();
      result_.generator_ns += static_cast<double>(g1 - g0);
      result_.gloss_ns += static_cast<double>(g2 - g1);
      run_step(w_.step);
      result_.step_ns.push_back(static_cast<double>(wall_ns() - g0));
    }
    const std::uint64_t d0 = wall_ns();
    run_step(kDrain);
    result_.step_ns.push_back(static_cast<double>(wall_ns() - d0));
    result_.traffic_ns = static_cast<double>(wall_ns() - t0);
    result_.allocs = allocations() - allocs0;
  }

  // --- checks and counts (after the timed phase) ---

  void check() {
    const Snapshot after = snapshot();
    const Snapshot& b = before_;
    suggestions_.expected = after.engine.matches_emitted - b.engine.matches_emitted;
    const auto unanswered =
        std::count_if(ops_.begin(), ops_.end(), [](const PendingOp& p) { return !p.answered; });
    if (unanswered > 0) problem(std::to_string(unanswered) + " store operations never answered");
    for (const Tally* t : {&suggestions_, &pubs_, &gets_, &puts_}) {
      result_.attempted += t->expected;
      result_.failed += t->failed();
    }
    const Tally& primary = w_.primary == Primary::kSuggestion  ? suggestions_
                           : w_.primary == Primary::kPublication ? pubs_
                                                                 : gets_;
    result_.deliveries = primary.ok;
    if (primary.ok == 0) problem("no deliveries of the primary component");

    Counts& c = result_.counts;
    const double d = std::max<double>(1.0, static_cast<double>(primary.ok));
    auto delta = [](std::uint64_t a, std::uint64_t b0) { return static_cast<double>(a - b0); };
    c["deliveries"] = static_cast<double>(primary.ok);
    c["suggestions.expected"] = static_cast<double>(suggestions_.expected);
    c["suggestions.ok"] = static_cast<double>(suggestions_.ok);
    c["publications.expected"] = static_cast<double>(pubs_.expected);
    c["publications.ok"] = static_cast<double>(pubs_.ok);
    c["gets.ok"] = static_cast<double>(gets_.ok);
    c["puts.ok"] = static_cast<double>(puts_.ok);
    c["failed"] = static_cast<double>(result_.failed);

    const double messages = delta(after.net.messages_sent, b.net.messages_sent);
    const double frames = delta(after.net.frames_sent, b.net.frames_sent);
    c["packets_per_delivery"] = delta(after.net.packets_sent(), b.net.packets_sent()) / d;
    c["bytes_per_delivery"] = delta(after.net.bytes_sent, b.net.bytes_sent) / d;
    c["sim.tasks_per_delivery"] = delta(after.tasks, b.tasks) / d;
    c["sim.messages_per_delivery"] = messages / d;
    c["sim.batch_members_per_frame"] =
        frames > 0 ? delta(after.net.batched_messages, b.net.batched_messages) / frames : 0;
    c["wire.bytes_per_message"] =
        messages > 0 ? delta(after.net.bytes_sent, b.net.bytes_sent) / messages : 0;
    const double routed = delta(after.broker.publications_routed, b.broker.publications_routed);
    c["event.index_probes_per_publication"] =
        routed > 0 ? delta(after.broker.index_probes, b.broker.index_probes) / routed : 0;
    c["pubsub.routed_per_delivery"] = routed / d;
    c["pipeline.hops_per_delivery"] =
        (delta(after.pipeline.intra_node_hops, b.pipeline.intra_node_hops) +
         delta(after.pipeline.inter_node_hops, b.pipeline.inter_node_hops)) /
        d;
    const double events = delta(after.engine.events_processed, b.engine.events_processed);
    const double emitted = delta(after.engine.matches_emitted, b.engine.matches_emitted);
    const double suppressed =
        delta(after.engine.cooldown_suppressed, b.engine.cooldown_suppressed);
    c["match.events_per_delivery"] = events / d;
    c["match.bindings_per_event"] =
        events > 0 ? delta(after.engine.candidate_bindings, b.engine.candidate_bindings) / events
                   : 0;
    c["match.emit_ratio"] = emitted + suppressed > 0 ? emitted / (emitted + suppressed) : 0;
    c["match.replica_updates_applied"] = delta(after.replica_updates, b.replica_updates);
    const double gets = delta(after.store.gets, b.store.gets);
    c["overlay.routed_per_get"] =
        gets > 0 ? delta(after.overlay_routed, b.overlay_routed) / gets : 0;
    const std::vector<double>& hops = arch_->overlay().route_hops().values();
    std::vector<double> traffic_hops(hops.begin() + static_cast<std::ptrdiff_t>(b.overlay_hops),
                                     hops.end());
    std::sort(traffic_hops.begin(), traffic_hops.end());
    c["overlay.hops_p50"] = traffic_hops.empty() ? 0 : traffic_hops[traffic_hops.size() / 2];
    c["storage.local_hit_ratio"] =
        gets > 0 ? delta(after.store.local_hits, b.store.local_hits) / gets : 0;
    c["storage.intercept_hit_ratio"] =
        gets > 0 ? delta(after.store.intercept_hits, b.store.intercept_hits) / gets : 0;
    c["storage.timeouts"] = delta(after.store.timeouts, b.store.timeouts);
    c["deploy.evaluations"] = delta(after.evaluations, b.evaluations);
    c["sched.pending"] = static_cast<double>(arch_->scheduler().pending());

    std::sort(result_.latency_ms.begin(), result_.latency_ms.end());
    std::sort(deliveries_.begin(), deliveries_.end());
    Sha1 sha;
    for (const auto& [who, at] : deliveries_) {
      std::uint8_t buf[16];
      std::memcpy(buf, &who, 8);
      std::memcpy(buf + 8, &at, 8);
      sha.update(std::span<const std::uint8_t>(buf, 16));
    }
    result_.digest = Uid160(sha.finish()).to_hex();

    if (const obs::TraceCollector* tracer = arch_->network().tracer()) {
      const auto metrics = tracer->delivery_metrics();
      for (const auto& m : metrics) {
        result_.trace_wire_us += static_cast<double>(m.wire);
        result_.trace_hops += m.hops;
      }
      const double n = std::max<double>(1.0, static_cast<double>(metrics.size()));
      result_.trace_wire_us /= n;
      result_.trace_hops /= n;
    }
  }

  const Workload& w_;
  Inputs in_;
  const bool traced_;
  std::unique_ptr<gloss::ActiveArchitecture> arch_;
  std::size_t preloaded_ = 0;
  std::vector<match::FactId> fact_ids_;
  std::vector<std::uint64_t> subs_;
  std::vector<ObjectId> object_ids_;
  std::vector<match::Matchlet*> matchlets_;
  ZipfSampler zipf_topics_{kTopics, 1.0};
  ZipfSampler zipf_objects_{std::max<std::size_t>(1, in_.objects.size()), 0.9};
  std::vector<std::vector<std::uint64_t>> fanout_expected_;
  std::vector<PendingOp> ops_;
  std::vector<std::pair<std::uint64_t, SimTime>> deliveries_;
  Tally suggestions_, pubs_, gets_, puts_;
  SimTime start_ = 0;
  Snapshot before_;
  RoundResult result_;
};

// --- Layer probes ----------------------------------------------------------

struct ProbeResult {
  double ns = 0;
  double allocs = 0;
};

/// ns and allocations per call of `fn`, called in batches until at least
/// `min_ns` of wall time has passed.
template <typename Fn>
ProbeResult probe(std::size_t calls_per_batch, std::uint64_t min_ns, Fn&& fn) {
  std::uint64_t calls = 0;
  const std::uint64_t a0 = allocations();
  const std::uint64_t t0 = wall_ns();
  std::uint64_t elapsed = 0;
  do {
    for (std::size_t i = 0; i < calls_per_batch; ++i) fn(calls + i);
    calls += calls_per_batch;
    elapsed = wall_ns() - t0;
  } while (elapsed < min_ns);
  return {static_cast<double>(elapsed) / static_cast<double>(calls),
          static_cast<double>(allocations() - a0) / static_cast<double>(calls)};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void run_probes(const Workload& w, std::uint64_t seed, double pending, std::vector<Metric>& out) {
  constexpr std::uint64_t kProbeNs = 150'000'000;
  Inputs in(w, seed);
  auto add = [&out](const std::string& name, const ProbeResult& r) {
    out.push_back({"probe." + name + "_ns", r.ns, "ns"});
    out.push_back({"probe." + name + "_allocs", r.allocs, "count"});
  };

  // The workload's inputs: sensor reports (what the matchlets see) and
  // bus publications (hotspot readings where the workload publishes
  // them, sensor reports otherwise).
  std::vector<event::Event> sensor_events, bus_events;
  Rng gen = in.root.fork();
  ZipfSampler zipf(kTopics, 1.0);
  for (int i = 0; i < 512; ++i) {
    if (i % 8 == 7) {
      sensor_events.push_back(bench_e2e::weather_event(i % kWeatherSensors, gen));
    } else {
      sensor_events.push_back(bench_e2e::location_event(
          static_cast<int>(gen.below(static_cast<std::uint64_t>(w.users))), gen));
    }
    bus_events.push_back(w.fanout_subscribers > 0
                             ? fanout_event(zipf.sample(gen), static_cast<int>(gen.below(kValues)))
                             : sensor_events.back());
    bus_events.back().set_time(static_cast<SimTime>(i) * duration::seconds(1));
  }

  // FilterIndex::match over the workload's subscription set.
  event::FilterIndex index;
  std::uint64_t id = 1;
  for (int u = 0; u < w.users; ++u) index.add(id++, bench_e2e::suggestion_filter(u));
  for (const FanoutSub& s : in.subs) index.add(id++, fanout_filter(s));
  std::vector<std::uint64_t> matched;
  add("index_match", probe(256, kProbeNs, [&](std::uint64_t i) {
        matched.clear();
        index.match(bus_events[i % bus_events.size()], matched);
      }));

  // The bus codec: encode of a publication, and sizing of fresh events
  // (sizes are cached in the event payload, so each is sized once).
  const wire::Codec& codec =
      wire::codec(wire::codec_from_name(w.codec).value_or(wire::WireCodec::kXml));
  BufWriter writer;
  add("codec_encode", probe(256, kProbeNs, [&](std::uint64_t i) {
        writer = BufWriter();
        codec.encode(writer, pubsub::PublishMsg{bus_events[i % bus_events.size()], i});
      }));
  std::size_t sized = 0;
  {
    std::uint64_t calls = 0, timed = 0, allocs = 0;
    std::vector<pubsub::PublishMsg> fresh;
    while (timed < kProbeNs) {
      fresh.clear();
      for (std::size_t k = 0; k < bus_events.size(); ++k) {
        event::Event e = bus_events[k];
        e.set("seq", static_cast<std::int64_t>(calls + k));
        fresh.push_back({e, calls + k});
      }
      const std::uint64_t a0 = allocations();
      const std::uint64_t t0 = wall_ns();
      for (const pubsub::PublishMsg& m : fresh) sized += codec.size(m);
      timed += wall_ns() - t0;
      allocs += allocations() - a0;
      calls += fresh.size();
    }
    add("codec_size", {static_cast<double>(timed) / static_cast<double>(calls),
                       static_cast<double>(allocs) / static_cast<double>(calls)});
  }

  // MatchEngine::on_event over the workload's knowledge base, one sensor
  // report per virtual second (the timestamp stamp is part of the call).
  match::KnowledgeBase kb;
  for (const match::Fact& f : in.prefs) kb.add(f);
  match::MatchEngine engine(kb);
  engine.add_rule(bench_e2e::heat_rule());
  std::size_t emitted = 0;
  add("engine_event", probe(64, kProbeNs, [&](std::uint64_t i) {
        event::Event e = sensor_events[i % sensor_events.size()];
        const SimTime t = static_cast<SimTime>(i) * duration::seconds(1);
        e.set_time(t);
        engine.on_event(e, t, [&](const event::Event&) { ++emitted; });
      }));

  // KnowledgeBase::query with the engine's join-pushdown probe.
  std::vector<event::Filter> probes;
  for (int u = 0; u < w.users; ++u) {
    probes.push_back(bench_e2e::filt("kind = preference"));
    probes.back().where("user", event::Op::kEq, bench_e2e::user_name(u));
  }
  add("kb_query", probe(256, kProbeNs, [&](std::uint64_t i) {
        emitted += kb.query(probes[i % probes.size()]).size();
      }));

  // Scheduler schedule + step at the workload's queue depth.
  {
    sim::Scheduler sched;
    Rng r = in.root.fork();
    const auto depth = static_cast<std::size_t>(std::max(1.0, pending));
    for (std::size_t k = 0; k < depth; ++k) {
      sched.at(static_cast<SimTime>(r.below(1'000'000'000)), [] {});
    }
    add("sched_step", probe(256, kProbeNs, [&](std::uint64_t) {
          sched.after(static_cast<SimDuration>(r.below(1'000'000'000)), [] {});
          sched.step();
        }));
  }

  // One datagram between two hosts, sent and delivered.
  {
    sim::Scheduler sched;
    auto topo = std::make_shared<sim::TransitStubTopology>(2, sim::TransitStubTopology::Params{});
    sim::Network net(sched, topo);
    std::uint64_t delivered = 0;
    net.register_handler(1, "probe", [&delivered](const sim::Packet&) { ++delivered; });
    add("net_send_deliver", probe(256, kProbeNs, [&](std::uint64_t i) {
          net.send<std::uint64_t>(0, 1, "probe", i, 64);
          sched.run();
        }));
    emitted += delivered;
  }

  // Overlay maintenance alone on the workload's host count.
  {
    sim::Scheduler sched;
    sim::TransitStubTopology::Params tp;
    tp.regions = 4;
    tp.seed = 42;
    auto topo = std::make_shared<sim::TransitStubTopology>(w.hosts, tp);
    sim::Network net(sched, topo);
    overlay::OverlayNetwork overlay(net);
    std::vector<sim::HostId> hosts;
    for (sim::HostId h = 0; h < w.hosts; ++h) hosts.push_back(h);
    overlay.build_ring(hosts);
    sched.run_for(duration::seconds(30));
    const std::uint64_t t0 = wall_ns();
    sched.run_for(duration::minutes(1));
    out.push_back({"probe.overlay_idle_ns_per_vmin", static_cast<double>(wall_ns() - t0), "ns"});
  }
  // Keeps the probed calls' results observable.
  if (emitted + sized + matched.size() == 0) std::printf("probe: no work observed\n");
}

// --- Aggregation and output -----------------------------------------------

/// Mean of the `n` largest values of a sorted sample.  Virtual latencies
/// take few distinct values on the fixed topology, so a median or p99
/// usually lands on the same one whatever the seed; a mean over the
/// whole sample, or over its slowest tail, moves with every delivery.
/// The tail is the slowest 5%: at 2000 suggestions a 1% tail is 20
/// deliveries, and its mean swings with where a few devices sit.
double mean_of_slowest(const std::vector<double>& sorted, std::size_t n) {
  n = std::min(n, sorted.size());
  if (n == 0) return 0;
  double sum = 0;
  for (std::size_t i = sorted.size() - n; i < sorted.size(); ++i) sum += sorted[i];
  return sum / static_cast<double>(n);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string snapshot;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--snapshot" && has_value) {
      o.snapshot = argv[++i];
    } else {
      return false;
    }
  }
  return !o.workload.empty();
}

using Rounds = std::vector<const RoundResult*>;

template <typename Fn>
double median_of(const Rounds& rounds, Fn&& fn) {
  sim::Histogram h;
  for (const RoundResult* r : rounds) h.record(fn(*r));
  return h.median();
}

sim::Histogram latency_histogram(const RoundResult& r) {
  sim::Histogram h;
  for (double v : r.latency_ms) h.record(v);
  return h;
}

/// Rounds until the time budget is spent: at least three untraced
/// rounds, or with --trace 1 at least two untraced and two traced,
/// alternating.  The last round starts only if it should end in budget.
std::vector<RoundResult> run_rounds(const Workload& w, const Options& opt) {
  std::vector<RoundResult> rounds;
  const auto budget_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  const std::size_t min_rounds = opt.smoke ? 2 : (opt.trace ? 4 : 3);
  const std::uint64_t start = wall_ns();
  std::uint64_t longest = 0;
  do {
    const bool traced = opt.trace && rounds.size() % 2 == 1;
    const std::uint64_t r0 = wall_ns();
    rounds.push_back(Round(w, opt.seed, traced).run());
    longest = std::max(longest, wall_ns() - r0);
    RoundResult& r = rounds.back();
    // The process high-water mark, which later rounds can only raise by
    // allocator fragmentation; only the first round's is reported.
    r.peak_rss_mb = peak_rss_mb();
    std::printf("round %zu%s: setup %.3f s, traffic %.3f s, %llu deliveries, digest %s\n",
                rounds.size(), traced ? " (traced)" : "", r.setup_s, r.traffic_ns / 1e9,
                static_cast<unsigned long long>(r.deliveries), r.digest.c_str());
  } while (rounds.size() < min_rounds ||
           (!opt.smoke && wall_ns() - start + longest <= budget_ns));
  return rounds;
}

/// Every round must agree exactly with the first — traced or not — and
/// deliver everything it should.
std::vector<std::string> check_rounds(const std::vector<RoundResult>& rounds) {
  std::vector<std::string> problems;
  const RoundResult& first = rounds.front();
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    const std::string label = "round " + std::to_string(i + 1) + (r.traced ? " (traced)" : "");
    for (const std::string& p : r.problems) problems.push_back(label + ": " + p);
    if (r.failed > 0) problems.push_back(label + ": " + std::to_string(r.failed) + " failed");
    for (const auto& [k, v] : r.counts) {
      if (first.counts.at(k) != v) {
        problems.push_back(label + ": " + k + " = " + json_number(v) + ", round 1 had " +
                           json_number(first.counts.at(k)));
      }
    }
    if (r.digest != first.digest || r.latency_ms != first.latency_ms) {
      problems.push_back(label + ": deliveries differ from round 1 (digest " + r.digest + ")");
    }
  }
  return problems;
}

/// Wall times with machine noise filtered out.  Every round runs the same
/// steps on the same inputs, and interference only ever adds time, so the
/// fastest round is the best measure of the work: for the traffic phase,
/// per step, summed over its steps; for set-up, the fastest set-up.  On a
/// shared machine this keeps two sets of runs within a few percent where
/// medians over rounds drift by a quarter.
double fastest_steps_ns(const Rounds& rounds) {
  double total = 0;
  for (std::size_t k = 0; k < rounds.front()->step_ns.size(); ++k) {
    double fastest = rounds.front()->step_ns[k];
    for (const RoundResult* r : rounds) fastest = std::min(fastest, r->step_ns[k]);
    total += fastest;
  }
  return total;
}

double fastest_setup_s(const Rounds& rounds) {
  double fastest = rounds.front()->setup_s;
  for (const RoundResult* r : rounds) fastest = std::min(fastest, r->setup_s);
  return fastest;
}

std::vector<Metric> end_to_end_metrics(const Rounds& untraced) {
  const RoundResult& first = *untraced.front();
  const auto deliveries = static_cast<double>(first.deliveries);
  return {
      {"setup_s", fastest_setup_s(untraced), "s"},
      {"wall_ns_per_delivery", fastest_steps_ns(untraced) / deliveries, "ns"},
      {"allocs_per_delivery",
       median_of(untraced,
                 [&](const RoundResult& r) { return static_cast<double>(r.allocs) / deliveries; }),
       "count"},
      {"packets_per_delivery", first.counts.at("packets_per_delivery"), "count"},
      {"bytes_per_delivery", first.counts.at("bytes_per_delivery"), "B"},
      {"latency_mean_ms", mean_of_slowest(first.latency_ms, first.latency_ms.size()), "ms"},
      {"latency_slowest5pct_ms",
       mean_of_slowest(first.latency_ms, std::max<std::size_t>(10, first.latency_ms.size() / 20)),
       "ms"},
      {"peak_rss_mb", first.peak_rss_mb, "MB"},
  };
}

/// Work counts, the time ledger and trace-derived numbers.  Ledger rows
/// are totals over traced rounds per delivery; they partition the
/// traffic phase's wall time, which `problems` records if they do not.
std::vector<Metric> layer_metrics(const Rounds& untraced, const Rounds& traced,
                                  std::vector<std::string>& problems) {
  const RoundResult& first = *untraced.front();
  const auto deliveries = static_cast<double>(first.deliveries);
  std::vector<Metric> metrics;
  for (const char* k :
       {"sim.tasks_per_delivery", "sim.messages_per_delivery", "sim.batch_members_per_frame",
        "wire.bytes_per_message", "event.index_probes_per_publication",
        "pubsub.routed_per_delivery", "pubsub.subscriptions_forwarded",
        "pipeline.hops_per_delivery", "match.events_per_delivery", "match.bindings_per_event",
        "match.emit_ratio", "match.replica_updates_applied", "overlay.routed_per_get",
        "overlay.hops_p50", "storage.local_hit_ratio", "storage.intercept_hit_ratio",
        "storage.timeouts", "deploy.evaluations"}) {
    const std::string name = k;
    const char* unit = name.find("ratio") != std::string::npos ? "ratio"
                       : name == "wire.bytes_per_message"     ? "B"
                                                              : "count";
    metrics.push_back({name, first.counts.at(name), unit});
  }
  metrics.push_back({"sim.idle_ns_per_vmin",
                     median_of(untraced, [](const RoundResult& r) { return r.idle_ns_per_vmin; }),
                     "ns"});
  metrics.push_back(
      {"pubsub.install_ns_per_subscription",
       median_of(untraced, [](const RoundResult& r) { return r.install_ns_per_subscription; }),
       "ns"});

  double bucket[obs::kProfileBucketCount] = {};
  double generator = 0, gloss = 0, run = 0, busy = 0, wall = 0, wire = 0, hops = 0;
  for (const RoundResult* r : traced) {
    for (std::size_t b = 0; b < obs::kProfileBucketCount; ++b) bucket[b] += r->bucket_ns[b];
    generator += r->generator_ns;
    gloss += r->gloss_ns;
    run += r->run_ns;
    busy += r->busy_ns;
    wall += r->traffic_ns;
    wire += r->trace_wire_us;
    hops += r->trace_hops;
  }
  const double n = deliveries * static_cast<double>(traced.size());
  std::vector<Metric> ledger = {{"time.generator", generator / n, "ns"},
                                {"time.gloss_calls", gloss / n, "ns"},
                                {"time.sched_overhead", (run - busy) / n, "ns"}};
  double attributed = 0;
  for (std::size_t b = 0; b < obs::kProfileBucketCount; ++b) {
    const auto id = static_cast<obs::ProfileBucket>(b);
    // No span of the assembled facade is charged to these two buckets
    // (its reliable transports are off); anything that ever is stays
    // inside time.unattributed.
    if (id == obs::ProfileBucket::kTransport || id == obs::ProfileBucket::kOther) continue;
    attributed += bucket[b];
    ledger.push_back({"time." + std::string(obs::bucket_name(id)), bucket[b] / n, "ns"});
  }
  ledger.push_back({"time.unattributed", (busy - attributed) / n, "ns"});
  double rows = 0;
  for (const Metric& m : ledger) rows += m.value;
  const double total = wall / n;
  if (std::abs(rows - total) > 0.02 * total) {
    problems.push_back("ledger rows sum to " + json_number(rows) +
                       " ns per delivery, traffic wall is " + json_number(total));
  }
  ledger.push_back({"time.total", total, "ns"});
  metrics.insert(metrics.end(), ledger.begin(), ledger.end());

  auto traffic = [](const RoundResult& r) { return r.traffic_ns; };
  const double untraced_wall = median_of(untraced, traffic);
  const double traced_wall = median_of(traced, traffic);
  metrics.push_back({"time.tracing_overhead_ratio", traced_wall / untraced_wall - 1, "ratio"});
  const auto t = static_cast<double>(traced.size());
  metrics.push_back({"trace.wire_us_mean", wire / t, "us"});
  metrics.push_back({"trace.hops_mean", hops / t, "count"});
  return metrics;
}

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(1, attempted)
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << json_number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  return json.str();
}

/// --snapshot: the result, the digest, and the latency distribution in
/// the MetricsRegistry JSON shape.
bool write_snapshot(const std::string& path, const Workload& w, const Options& opt,
                    const RoundResult& first, const std::string& result) {
  sim::MetricsRegistry reg;
  reg.histogram("latency_ms") = latency_histogram(first);
  std::ofstream out(path);
  out << "{\"workload\": \"" << w.name << "\", \"seed\": " << opt.seed << ", \"digest\": \""
      << first.digest << "\", \"result\": " << result << ", \"metrics\": " << reg.to_json()
      << "}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload heat|churn|fanout|store [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--snapshot FILE]\n");
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : workloads()) {
    if (opt.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const Workload w = opt.smoke ? smoke_scaled(*found) : *found;
  const bool churn = w.update_share > 0 || w.move_share > 0;
  for (SimDuration period : {w.users > 0 ? kHeatTick : 0, churn ? kChurnOffset : 0,
                             w.fanout_subscribers > 0 ? kFanoutPeriod : 0,
                             w.store_ops > 0 ? w.store_period : 0}) {
    if (period % w.step != 0) {
      std::fprintf(stderr, "bench_e2e: step does not divide every period\n");
      return 2;
    }
  }
  std::printf("bench_e2e: workload=%s seed=%llu seconds=%g trace=%d%s\n", w.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.smoke ? " smoke" : "");

  const std::vector<RoundResult> rounds = run_rounds(w, opt);
  std::vector<std::string> problems = check_rounds(rounds);
  std::uint64_t attempted = 0, failed = 0;
  Rounds untraced, traced;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    (r.traced ? traced : untraced).push_back(&r);
  }
  const RoundResult& first = rounds.front();
  if (first.deliveries == 0) {
    problems.push_back("nothing delivered");
  }

  std::vector<Metric> metrics;
  if (first.deliveries > 0) {
    metrics = opt.trace ? layer_metrics(untraced, traced, problems) : end_to_end_metrics(untraced);
    if (opt.trace && !opt.smoke) run_probes(w, opt.seed, first.counts.at("sched.pending"), metrics);
  }

  std::printf("digest %s\n", first.digest.c_str());
  const sim::Histogram latency = latency_histogram(first);
  std::printf("latency_samples %zu p50 %s ms p99 %s ms\n", latency.count(),
              json_number(latency.percentile(50)).c_str(),
              json_number(latency.percentile(99)).c_str());
  std::printf("failed_ratio %s\n",
              json_number(static_cast<double>(failed) /
                          static_cast<double>(std::max<std::uint64_t>(1, attempted)))
                  .c_str());
  for (const auto& [k, v] : first.counts) {
    std::printf("count %s %s\n", k.c_str(), json_number(v).c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), json_number(m.value).c_str(), m.unit.c_str());
  }
  for (const std::string& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  const std::string result = result_json(problems.empty(), attempted, failed, metrics);
  if (!opt.snapshot.empty() && !write_snapshot(opt.snapshot, w, opt, first, result)) {
    std::printf("CHECK FAILED: cannot write %s\n", opt.snapshot.c_str());
    return 1;
  }
  std::printf("%s\n", result.c_str());
  return problems.empty() ? 0 : 1;
}
