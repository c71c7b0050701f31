// The evolution engine (§4.4): "All constraints will feed into an
// evolution engine ... that will dynamically evolve the contextual
// matching engine by manipulating the pipelines.  As events arise that
// cause a given constraint to be violated (such as the sudden
// unavailability of a particular node), it is the role of the
// monitoring engine to make appropriate adjustments to satisfy the
// constraint again."
//
// The engine consumes the ResourceView (fed by advert/withdraw events),
// evaluates every constraint on a control-loop tick and reactively on
// withdrawals, and converges by pushing bundle instances to qualifying
// hosts (or retiring surplus ones).  Per-constraint repair timestamps
// make time-to-repair measurable (bench C5).
#pragma once

#include <map>

#include "bundle/deployer.hpp"
#include "deploy/constraints.hpp"

namespace aa::deploy {

struct EvolutionStats {
  std::uint64_t evaluations = 0;
  std::uint64_t deployments_started = 0;
  std::uint64_t deployments_succeeded = 0;
  std::uint64_t deployments_failed = 0;
  std::uint64_t retirements = 0;
  std::uint64_t violations_observed = 0;
};

class EvolutionEngine {
 public:
  struct Params {
    sim::HostId engine_host = 0;
    SimDuration control_period = duration::seconds(10);
  };

  EvolutionEngine(sim::Network& net, pubsub::EventService& bus,
                  bundle::ThinServerRuntime& runtime, bundle::BundleDeployer& deployer,
                  Params params);
  ~EvolutionEngine();

  EvolutionEngine(const EvolutionEngine&) = delete;
  EvolutionEngine& operator=(const EvolutionEngine&) = delete;

  /// Adds a constraint; the engine starts converging toward it on the
  /// next tick (or call evaluate_now()).
  void add_constraint(PlacementConstraint constraint);
  bool remove_constraint(const std::string& id);

  /// Runs one control-loop evaluation immediately.
  void evaluate_now();

  /// Live instances of a constraint (on hosts the view believes alive).
  int live_instances(const std::string& constraint_id) const;
  bool satisfied(const std::string& constraint_id) const;
  /// Fraction of constraints currently satisfied [0,1].
  double satisfaction_fraction() const;

  const EvolutionStats& stats() const { return stats_; }
  ResourceView& view() { return view_; }

 private:
  struct Instance {
    sim::HostId host;
    std::string bundle_name;
    bool confirmed = false;  // ack received
  };

  void evaluate(const PlacementConstraint& constraint);

  sim::Network& net_;
  bundle::ThinServerRuntime& runtime_;
  bundle::BundleDeployer& deployer_;
  Params params_;
  ResourceView view_;
  ConstraintSet constraints_;
  std::map<std::string, std::vector<Instance>> instances_;  // constraint id -> placements
  sim::TaskId task_ = sim::kInvalidTask;
  EvolutionStats stats_;
};

}  // namespace aa::deploy
