#include "deploy/constraints.hpp"

#include <algorithm>

namespace aa::deploy {

bool host_qualifies(const PlacementConstraint& constraint, const HostResources& host) {
  if (!constraint.region.empty() && host.region != constraint.region) return false;
  for (const std::string& cap : constraint.required_capabilities) {
    if (!host.capabilities.contains(cap)) return false;
  }
  return true;
}

void ConstraintSet::add(PlacementConstraint constraint) {
  constraints_.push_back(std::move(constraint));
}

bool ConstraintSet::remove(const std::string& id) {
  const auto before = constraints_.size();
  std::erase_if(constraints_, [&](const PlacementConstraint& c) { return c.id == id; });
  return constraints_.size() < before;
}

const PlacementConstraint* ConstraintSet::find(const std::string& id) const {
  for (const auto& c : constraints_) {
    if (c.id == id) return &c;
  }
  return nullptr;
}

}  // namespace aa::deploy
