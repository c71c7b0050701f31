#include "sim/topology.hpp"

#include <cmath>

namespace aa::sim {

namespace {
// Transit-stub latency terms: a hop inside one region, each stub's
// uplink to its region router, and the range the core latency between
// two routers is drawn from.
constexpr SimDuration kIntra = duration::millis(2);
constexpr SimDuration kUplink = duration::millis(5);
constexpr SimDuration kCoreMin = duration::millis(10);
constexpr SimDuration kCoreMax = duration::millis(80);
}  // namespace

EuclideanTopology::EuclideanTopology(std::size_t hosts, double side, SimDuration base,
                                     SimDuration per_unit, std::uint64_t seed)
    : base_(base), per_unit_(per_unit) {
  Rng rng(seed);
  xs_.reserve(hosts);
  ys_.reserve(hosts);
  for (std::size_t i = 0; i < hosts; ++i) {
    xs_.push_back(rng.uniform(0.0, side));
    ys_.push_back(rng.uniform(0.0, side));
  }
}

SimDuration EuclideanTopology::latency(HostId a, HostId b) const {
  if (a == b) return duration::micros(10);
  const double dx = xs_[a] - xs_[b];
  const double dy = ys_[a] - ys_[b];
  const double dist = std::sqrt(dx * dx + dy * dy);
  return base_ + static_cast<SimDuration>(dist * static_cast<double>(per_unit_));
}

TransitStubTopology::TransitStubTopology(std::size_t hosts, const Params& params)
    : hosts_(hosts), regions_(params.regions) {
  Rng rng(params.seed);
  core_.assign(static_cast<std::size_t>(regions_) * static_cast<std::size_t>(regions_), 0);
  for (int i = 0; i < regions_; ++i) {
    for (int j = i + 1; j < regions_; ++j) {
      const SimDuration d = rng.range(kCoreMin, kCoreMax);
      core_[static_cast<std::size_t>(i * regions_ + j)] = d;
      core_[static_cast<std::size_t>(j * regions_ + i)] = d;
    }
  }
}

SimDuration TransitStubTopology::latency(HostId a, HostId b) const {
  if (a == b) return duration::micros(10);
  const int ra = region_of(a);
  const int rb = region_of(b);
  if (ra == rb) return kIntra;
  return 2 * kUplink + core_[static_cast<std::size_t>(ra * regions_ + rb)];
}

}  // namespace aa::sim
