// Network latency models.
//
// Experiments need a realistic wide-area latency structure to reproduce
// the paper's claims about locality (promiscuous caching, proximity
// routing, regional placement constraints).  Three models are provided:
//   * UniformTopology      — every pair at the same latency (control).
//   * EuclideanTopology    — hosts embedded in a plane; latency is
//                            proportional to distance (proximity-aware
//                            neighbour selection becomes meaningful).
//   * TransitStubTopology  — hosts grouped into "stub" regions attached
//                            to a transit core: cheap intra-region hops,
//                            expensive inter-region hops.  This is the
//                            default model for the geographic-placement
//                            experiments (C5, C6).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace aa::sim {

/// Dense index of a simulated host (machine) in the network.
using HostId = std::uint32_t;
constexpr HostId kNoHost = UINT32_MAX;

/// Pairwise one-way propagation delay between hosts.
class Topology {
 public:
  virtual ~Topology() = default;

  /// One-way latency from a to b.  Symmetric in all provided models.
  virtual SimDuration latency(HostId a, HostId b) const = 0;

  /// Number of hosts the model was built for.
  virtual std::size_t size() const = 0;

  /// Region index of a host, or 0 if the model has no regions.
  virtual int region_of(HostId h) const {
    (void)h;
    return 0;
  }
};

/// All pairs at `rtt/2`; self-latency ~0 (local loopback cost).
class UniformTopology final : public Topology {
 public:
  UniformTopology(std::size_t hosts, SimDuration one_way)
      : hosts_(hosts), one_way_(one_way) {}

  SimDuration latency(HostId a, HostId b) const override {
    return a == b ? duration::micros(10) : one_way_;
  }
  std::size_t size() const override { return hosts_; }

 private:
  std::size_t hosts_;
  SimDuration one_way_;
};

/// Hosts placed uniformly at random on a square; latency = base +
/// distance * per_unit.  Deterministic given the seed.
class EuclideanTopology final : public Topology {
 public:
  EuclideanTopology(std::size_t hosts, double side, SimDuration base,
                    SimDuration per_unit, std::uint64_t seed);

  SimDuration latency(HostId a, HostId b) const override;
  std::size_t size() const override { return xs_.size(); }

  double x(HostId h) const { return xs_[h]; }
  double y(HostId h) const { return ys_[h]; }

 private:
  std::vector<double> xs_, ys_;
  SimDuration base_;
  SimDuration per_unit_;
};

/// Transit-stub model: `regions` stubs; hosts assigned round-robin.
/// Latency: intra-region = intra; inter-region = 2 * 5 ms of stub uplink
/// plus the core latency between the two region routers, drawn per pair
/// from [10 ms, 80 ms] (seeded, deterministic).
class TransitStubTopology final : public Topology {
 public:
  struct Params {
    int regions = 4;
    SimDuration intra = duration::millis(2);
    std::uint64_t seed = 42;
  };

  TransitStubTopology(std::size_t hosts, const Params& params);

  SimDuration latency(HostId a, HostId b) const override;
  std::size_t size() const override { return hosts_; }
  int region_of(HostId h) const override { return static_cast<int>(h % regions_); }

 private:
  std::size_t hosts_;
  int regions_;
  SimDuration intra_;
  std::vector<SimDuration> core_;  // regions x regions matrix
};

}  // namespace aa::sim
