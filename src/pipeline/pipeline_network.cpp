#include "pipeline/pipeline_network.hpp"

#include <algorithm>

namespace aa::pipeline {

namespace {
constexpr const char* kPipeProto = "pipe";
/// CPU cost a component charges per event before downstream dispatch.
constexpr SimDuration kProcessingDelay = duration::micros(50);

/// Inter-node event: the destination component name plus the event,
/// a copy-on-write handle, charged as its XML rendering.
struct PipeMsg {
  std::string to_component;
  event::Event event;
};
}  // namespace

void Component::emit(const event::Event& e) {
  ++stats_.emitted;
  if (network_ != nullptr) network_->dispatch(ref_, e);
}

SimTime Component::now() const { return network_ != nullptr ? network_->now() : 0; }

PipelineNetwork::PipelineNetwork(sim::Network& net) : net_(net) {}

PipelineNetwork::~PipelineNetwork() {
  for (const auto& [h, on] : handlers_) {
    if (on) net_.unregister_handler(h, kPipeProto);
  }
}

void PipelineNetwork::ensure_host(sim::HostId host) {
  if (handlers_[host]) return;
  handlers_[host] = true;
  net_.register_handler(host, kPipeProto,
                        [this, host](const sim::Packet& p) { on_message(host, p); });
}

ComponentRef PipelineNetwork::add(sim::HostId host, std::unique_ptr<Component> component) {
  ensure_host(host);
  ComponentRef ref{host, component->name()};
  component->ref_ = ref;
  component->network_ = this;
  components_[ref] = std::move(component);
  return ref;
}

bool PipelineNetwork::remove(const ComponentRef& ref) {
  links_.erase(ref);
  return components_.erase(ref) > 0;
}

Component* PipelineNetwork::component(const ComponentRef& ref) {
  auto it = components_.find(ref);
  return it == components_.end() ? nullptr : it->second.get();
}

const Component* PipelineNetwork::component(const ComponentRef& ref) const {
  auto it = components_.find(ref);
  return it == components_.end() ? nullptr : it->second.get();
}

Status PipelineNetwork::connect(const ComponentRef& upstream, const ComponentRef& downstream) {
  if (!exists(upstream)) return Status(Code::kNotFound, "upstream component missing");
  if (!downstream.valid()) return Status(Code::kInvalidArgument, "bad downstream ref");
  auto& out = links_[upstream];
  if (std::find(out.begin(), out.end(), downstream) == out.end()) out.push_back(downstream);
  return Status::ok();
}

Status PipelineNetwork::disconnect(const ComponentRef& upstream,
                                   const ComponentRef& downstream) {
  auto it = links_.find(upstream);
  if (it == links_.end()) return Status(Code::kNotFound, "no such link");
  const auto before = it->second.size();
  std::erase(it->second, downstream);
  return it->second.size() < before ? Status::ok() : Status(Code::kNotFound, "no such link");
}

void PipelineNetwork::inject(const ComponentRef& ref, const event::Event& e) {
  deliver(component(ref), e);
}

void PipelineNetwork::dispatch(const ComponentRef& from, const event::Event& e) {
  auto it = links_.find(from);
  if (it == links_.end()) return;
  sim::Network::SpanScope span(net_, from.host, "pipeline", "emit");
  if (span.active()) span.annotate(from.name);
  for (const ComponentRef& to : it->second) {
    if (to.host == from.host) {
      // Intra-node hop: processing cost only, no serialisation.  The
      // parked event is a COW handle, so every queued hop shares one
      // payload.
      ++stats_.intra_node_hops;
      park_hop(to.host, to.name, e);
    } else {
      // Inter-node hop: the event crosses the wire priced as XML.
      ++stats_.inter_node_hops;
      const std::size_t size = e.wire_size() + to.name.size() + 8;
      net_.send(from.host, to.host, kPipeProto, PipeMsg{to.name, e}, size);
    }
  }
}

void PipelineNetwork::park_hop(sim::HostId host, const std::string& name,
                               const event::Event& e) {
  std::uint32_t slot;
  if (free_hops_.empty()) {
    slot = static_cast<std::uint32_t>(hops_.size());
    hops_.emplace_back();
  } else {
    slot = free_hops_.back();
    free_hops_.pop_back();
  }
  // Assigned field by field, so the slot's name keeps its buffer.  The
  // scheduler hop breaks the synchronous call chain, so the ambient
  // trace context rides in the slot.
  Hop& hop = hops_[slot];
  hop.to.host = host;
  hop.to.name = name;
  hop.event = e;
  hop.trace = net_.current_trace();
  net_.scheduler().after(kProcessingDelay, [this, slot]() { run_hop(slot); });
}

void PipelineNetwork::run_hop(std::uint32_t slot) {
  // Free the slot before delivering: put() may emit, and the new hops
  // reuse or grow the slab.
  Hop& hop = hops_[slot];
  Component* c = component(hop.to);
  const event::Event e = std::move(hop.event);
  const obs::TraceContext ctx = hop.trace;
  free_hops_.push_back(slot);
  sim::Network::TraceScope scope(net_, ctx);
  deliver(c, e);
}

void PipelineNetwork::deliver(Component* c, const event::Event& e) {
  if (c == nullptr) {
    ++stats_.undeliverable;
    return;
  }
  // Matchlets emit synchronously from put(), so downstream dispatch and
  // re-publishes nest under this span.
  sim::Network::SpanScope span(net_, c->ref().host, "pipeline", "put");
  if (span.active()) span.annotate(c->ref().name);
  c->put(e);
}

void PipelineNetwork::on_message(sim::HostId host, const sim::Packet& packet) {
  const auto* msg = sim::packet_body<PipeMsg>(packet);
  if (msg == nullptr) return;
  // Charge the receive-side processing cost, then deliver.
  park_hop(host, msg->to_component, msg->event);
}

}  // namespace aa::pipeline
