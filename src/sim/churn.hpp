// Churn injection: drives node departures and (re)arrivals.
//
// §4.4 of the paper: "Nodes may disappear from the network either
// gracefully, in which case they will publish events warning of their
// imminent withdrawal, or without warning".  The injector models both:
// graceful departures fire the observer *before* the node goes down;
// crashes fire it after.  Layers whose state a crash loses (broker
// routing tables, the object store's journals) register recovery hooks
// that rebuild it on rejoin.  Overlay repair, the evolution engine and
// storage healing need no hook: their periodic sweeps notice a departed
// host (a failed keepalive, lapsed resource adverts, a missing replica).
// The observers serve experiments and tests that log churn events.
#pragma once

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "sim/network.hpp"

namespace aa::sim {

enum class ChurnEvent { kGracefulLeave, kCrash, kJoin };

class ChurnInjector {
 public:
  struct Params {
    /// Mean time between departures across the whole population; 0
    /// disables departures.
    SimDuration mean_departure_interval = 0;
    /// Fraction of departures that are graceful (vs. crashes).
    double graceful_fraction = 0.5;
    /// Mean downtime before a departed node rejoins; 0 = never rejoin.
    SimDuration mean_downtime = 0;
    std::uint64_t seed = 1;
  };

  using Observer = std::function<void(HostId, ChurnEvent)>;
  /// Recovery hook: runs on a host's rejoin, after the host is back up
  /// but *before* kJoin observers fire, so the recovered state (store
  /// replay, broker checkpoint restore) is in place by the time overlay
  /// repair and workloads react to the join.
  using RecoveryHook = std::function<void(HostId)>;

  ChurnInjector(Network& net, Params params);

  /// Starts injecting; hosts in `protected_hosts` are never taken down
  /// (e.g. the experiment's observation point).
  void start(std::vector<HostId> protected_hosts = {});
  void stop();

  void add_observer(Observer obs) { observers_.push_back(std::move(obs)); }

  /// Registers a recovery hook for one host (every rejoining layer on
  /// that host adds its own).  Hooks run in registration order.
  void add_recovery_hook(HostId host, RecoveryHook hook);

  /// Takes one specific host down immediately (for directed
  /// experiments).  Hosts protected via start() are never taken down,
  /// by kill() or by random departures.
  void kill(HostId host, bool graceful);
  /// Brings a host back immediately.
  void revive(HostId host);

  int departures() const { return departures_; }
  int joins() const { return joins_; }

 private:
  void schedule_next_departure();
  void notify(HostId host, ChurnEvent e);

  Network& net_;
  Params params_;
  Rng rng_;
  std::vector<HostId> protected_;
  std::vector<Observer> observers_;
  std::vector<std::vector<RecoveryHook>> recovery_hooks_;  // per host
  TaskId pending_ = kInvalidTask;
  bool running_ = false;
  int departures_ = 0;
  int joins_ = 0;
};

}  // namespace aa::sim
