// Pipeline components and their wiring (§4.2, Figure 2).
//
// "Our approach is to implement a distributed contextual matching engine
// as XML pipelines, with XML events flowing between pipeline
// components, both intra-node and inter-node. ... Each pipeline
// provides a web service interface put(event), enabling remote pipeline
// components to push events into it."
//
// A Component consumes events through put() and emits derived events to
// its downstream links.  Links are managed by the PipelineNetwork: an
// intra-node link is a scheduler hop (processing cost only); an
// inter-node link crosses the simulated network, charged the event's XML
// length without rendering it — exactly the two arrows of Figure 2.
// Either way the event then waits out one processing delay parked in
// the fabric's hop slab (pipeline_network.hpp), so a hop puts nothing
// on the heap once the slab has grown to the traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "event/event.hpp"
#include "sim/topology.hpp"

namespace aa::pipeline {

/// Identifies a component instance: the host it runs on + its name.
struct ComponentRef {
  sim::HostId host = sim::kNoHost;
  std::string name;

  bool valid() const { return host != sim::kNoHost && !name.empty(); }
  auto operator<=>(const ComponentRef&) const = default;
};

struct ComponentStats {
  std::uint64_t received = 0;
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;  // consumed without emitting
};

class PipelineNetwork;

class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  const std::string& name() const { return name_; }
  const ComponentRef& ref() const { return ref_; }
  const ComponentStats& stats() const { return stats_; }

  /// The put(event) interface: called for every incoming event.
  void put(const event::Event& e) {
    ++stats_.received;
    on_event(e);
  }

 protected:
  /// Component logic: react to an incoming event, possibly emit().
  virtual void on_event(const event::Event& e) = 0;

  /// Pushes an event to every downstream link.
  void emit(const event::Event& e);
  /// Bookkeeping for components that consume events without emitting.
  void drop() { ++stats_.dropped; }

  /// Virtual time access for stateful components.
  SimTime now() const;

  /// The fabric this component is installed in (null before add()).
  PipelineNetwork* network() const { return network_; }

 private:
  friend class PipelineNetwork;
  std::string name_;
  ComponentRef ref_;
  PipelineNetwork* network_ = nullptr;
  ComponentStats stats_;
};

}  // namespace aa::pipeline
