#include "deploy/evolution.hpp"

#include <algorithm>

namespace aa::deploy {

EvolutionEngine::EvolutionEngine(sim::Network& net, pubsub::EventService& bus,
                                 bundle::ThinServerRuntime& runtime,
                                 bundle::BundleDeployer& deployer, Params params)
    : net_(net),
      runtime_(runtime),
      deployer_(deployer),
      params_(params),
      view_(bus, params.engine_host) {
  // Reactive repair: a withdrawal event triggers immediate evaluation
  // rather than waiting for the next control-loop tick.
  view_.on_withdraw = [this](sim::HostId) {
    ++stats_.violations_observed;
    evaluate_now();
  };
  task_ = net_.scheduler().every(params_.control_period, [this]() { evaluate_now(); });
}

EvolutionEngine::~EvolutionEngine() {
  if (task_ != sim::kInvalidTask) net_.scheduler().cancel(task_);
}

void EvolutionEngine::add_constraint(PlacementConstraint constraint) {
  constraints_.add(std::move(constraint));
  evaluate_now();
}

bool EvolutionEngine::remove_constraint(const std::string& id) {
  auto it = instances_.find(id);
  if (it != instances_.end()) {
    for (const Instance& inst : it->second) {
      if (runtime_.uninstall(inst.host, inst.bundle_name)) ++stats_.retirements;
    }
    instances_.erase(it);
  }
  return constraints_.remove(id);
}

void EvolutionEngine::evaluate_now() {
  // The control loop fires from a timer, so each sweep roots its own
  // (sampled) trace; deployment bundle sends it triggers nest under it.
  sim::Network::TraceScope root_trace(net_, net_.start_trace());
  sim::Network::SpanScope span(net_, params_.engine_host, "evolution", "evolve");
  if (span.active()) {
    span.annotate("constraints=" + std::to_string(constraints_.all().size()));
  }
  for (const PlacementConstraint& c : constraints_.all()) evaluate(c);
}

int EvolutionEngine::live_instances(const std::string& constraint_id) const {
  auto it = instances_.find(constraint_id);
  if (it == instances_.end()) return 0;
  const SimTime now = net_.scheduler().now();
  const auto live = view_.live(now);
  int count = 0;
  for (const Instance& inst : it->second) {
    if (!inst.confirmed) continue;
    for (const HostResources* r : live) {
      if (r->host == inst.host) {
        ++count;
        break;
      }
    }
  }
  return count;
}

bool EvolutionEngine::satisfied(const std::string& constraint_id) const {
  const PlacementConstraint* c = constraints_.find(constraint_id);
  return c != nullptr && live_instances(constraint_id) >= c->min_instances;
}

double EvolutionEngine::satisfaction_fraction() const {
  const auto& all = constraints_.all();
  if (all.empty()) return 1.0;
  int ok = 0;
  for (const auto& c : all) {
    if (satisfied(c.id)) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(all.size());
}

void EvolutionEngine::evaluate(const PlacementConstraint& constraint) {
  ++stats_.evaluations;
  const SimTime now = net_.scheduler().now();
  const auto live = view_.live(now);

  auto& placed = instances_[constraint.id];
  // Drop placements whose host the view no longer believes in.
  std::erase_if(placed, [&](const Instance& inst) {
    return std::none_of(live.begin(), live.end(),
                        [&](const HostResources* r) { return r->host == inst.host; });
  });

  const int have = static_cast<int>(placed.size());
  int need = constraint.min_instances - have;
  if (need <= 0) return;

  // Candidate hosts: qualified, live, not already hosting an instance
  // of this constraint; least-loaded (fewest instances overall) first.
  std::vector<const HostResources*> candidates;
  for (const HostResources* r : live) {
    if (!host_qualifies(constraint, *r)) continue;
    const bool already = std::any_of(placed.begin(), placed.end(), [&](const Instance& inst) {
      return inst.host == r->host;
    });
    if (!already) candidates.push_back(r);
  }
  auto load_of = [this](sim::HostId host) {
    int load = 0;
    for (const auto& [cid, insts] : instances_) {
      for (const Instance& inst : insts) {
        if (inst.host == host) ++load;
      }
    }
    return load;
  };
  std::sort(candidates.begin(), candidates.end(),
            [&](const HostResources* a, const HostResources* b) {
              const int la = load_of(a->host), lb = load_of(b->host);
              if (la != lb) return la < lb;
              return a->host < b->host;
            });

  for (const HostResources* candidate : candidates) {
    if (need <= 0) break;
    --need;
    const sim::HostId host = candidate->host;
    bundle::CodeBundle instance = constraint.prototype;
    instance.set_name(constraint.prototype.name() + "@" + std::to_string(host));
    placed.push_back(Instance{host, instance.name(), false});
    ++stats_.deployments_started;
    const std::string cid = constraint.id;
    deployer_.push(params_.engine_host, host, instance,
                   [this, cid, host](Result<bundle::DeployResult> r) {
                     auto& insts = instances_[cid];
                     auto inst = std::find_if(insts.begin(), insts.end(), [&](const Instance& i) {
                       return i.host == host;
                     });
                     const bool ok = r.is_ok() &&
                                     (r.value() == bundle::DeployResult::kInstalled ||
                                      r.value() == bundle::DeployResult::kReplaced);
                     if (ok) {
                       ++stats_.deployments_succeeded;
                       if (inst != insts.end()) inst->confirmed = true;
                     } else {
                       ++stats_.deployments_failed;
                       if (inst != insts.end()) insts.erase(inst);
                     }
                   });
  }
}

}  // namespace aa::deploy
