// The pipeline fabric: hosts components, wires links, moves events.
//
// An inter-node hop is priced as XML on the wire: the packet carries the
// event's copy-on-write handle and is charged Event::wire_size(), the
// length of its XML rendering, which is never produced.  The byte counts
// therefore match the paper's XML-pipeline design (§4.2, §4.7 —
// "standardised and open interfaces and data formats wherever possible —
// thus XML-encoded events, web service interfaces").
//
// Every hop, intra-node or on arrival, waits out the component's
// processing delay parked in a slab the fabric owns, the way
// sim::Network parks packets in flight: the slot holds the target, the
// event handle and the trace context, and the scheduled closure holds
// only (fabric, slot), which fits std::function's inline buffer.  A
// freed slot keeps its target name's buffer, so a warmed-up hop
// allocates nothing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "pipeline/component.hpp"
#include "sim/network.hpp"

namespace aa::pipeline {

struct PipelineStats {
  std::uint64_t intra_node_hops = 0;
  std::uint64_t inter_node_hops = 0;
  std::uint64_t undeliverable = 0;  // link to missing/removed component
};

class PipelineNetwork {
 public:
  explicit PipelineNetwork(sim::Network& net);
  ~PipelineNetwork();

  PipelineNetwork(const PipelineNetwork&) = delete;
  PipelineNetwork& operator=(const PipelineNetwork&) = delete;

  /// Installs a component on a host.  Returns its reference.  A
  /// component with the same name on the same host is replaced (links
  /// to it are preserved — this is how bundles evolve a pipeline stage
  /// in place).
  ComponentRef add(sim::HostId host, std::unique_ptr<Component> component);

  /// Removes a component; inbound links to it start counting as
  /// undeliverable.
  bool remove(const ComponentRef& ref);

  Component* component(const ComponentRef& ref);
  const Component* component(const ComponentRef& ref) const;
  bool exists(const ComponentRef& ref) const { return component(ref) != nullptr; }

  /// Connects upstream -> downstream.  Duplicate links are ignored.
  Status connect(const ComponentRef& upstream, const ComponentRef& downstream);
  Status disconnect(const ComponentRef& upstream, const ComponentRef& downstream);

  /// External event injection (a device pushing into the pipeline).
  void inject(const ComponentRef& ref, const event::Event& e);

  const PipelineStats& stats() const { return stats_; }
  sim::Network& network() { return net_; }
  SimTime now() const { return net_.scheduler().now(); }

 private:
  friend class Component;
  /// A hop waiting out the processing delay before delivery.
  struct Hop {
    ComponentRef to;
    event::Event event;
    obs::TraceContext trace;
  };

  /// Called by Component::emit — fans out to downstream links.
  void dispatch(const ComponentRef& from, const event::Event& e);
  /// Parks a hop to component `name` on `host`, carrying the ambient
  /// trace context, and schedules its delivery after the processing
  /// delay.
  void park_hop(sim::HostId host, const std::string& name, const event::Event& e);
  /// Delivers the hop parked in `slot`, freeing the slot first.
  void run_hop(std::uint32_t slot);
  /// put()s `e` into `c`, or counts it undeliverable when `c` is null.
  void deliver(Component* c, const event::Event& e);
  void on_message(sim::HostId host, const sim::Packet& packet);
  void ensure_host(sim::HostId host);

  sim::Network& net_;
  std::map<ComponentRef, std::unique_ptr<Component>> components_;
  std::map<ComponentRef, std::vector<ComponentRef>> links_;
  std::map<sim::HostId, bool> handlers_;
  // Hops waiting out their processing delay; freed slots are reused.
  std::vector<Hop> hops_;
  std::vector<std::uint32_t> free_hops_;
  PipelineStats stats_;
};

}  // namespace aa::pipeline
