// Declarative placement constraints, after the active-pipes approach
// (§4.4): "policies take the form of constraints over the placement of
// processing steps.  For example, a constraint might specify that at
// least 5 pipeline components providing a data replication service must
// be deployed in parallel within a given geographical region."
//
// A constraint names a component kind, a bundle prototype that can
// instantiate it, where instances must run (region, capabilities), and
// how many are required.  The evolution engine owns a ConstraintSet and
// keeps it satisfied.
#pragma once

#include <string>
#include <vector>

#include "bundle/bundle.hpp"
#include "deploy/resource.hpp"

namespace aa::deploy {

struct PlacementConstraint {
  std::string id;
  /// Human-readable service kind ("replication", "matchlet:weather").
  std::string kind;
  int min_instances = 1;
  /// "" = any region.
  std::string region;
  /// Capabilities a hosting node must advertise.
  std::vector<std::string> required_capabilities;
  /// Template bundle; the engine instantiates copies named
  /// "<bundle name>@<host>" so instances are distinguishable.
  bundle::CodeBundle prototype;
};

/// True if `host` is an acceptable home for an instance.
bool host_qualifies(const PlacementConstraint& constraint, const HostResources& host);

class ConstraintSet {
 public:
  void add(PlacementConstraint constraint);
  bool remove(const std::string& id);
  const PlacementConstraint* find(const std::string& id) const;
  const std::vector<PlacementConstraint>& all() const { return constraints_; }

 private:
  std::vector<PlacementConstraint> constraints_;
};

}  // namespace aa::deploy
