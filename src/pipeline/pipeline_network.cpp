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
  deliver_local(ref, e);
}

void PipelineNetwork::dispatch(const ComponentRef& from, const event::Event& e) {
  auto it = links_.find(from);
  if (it == links_.end()) return;
  sim::Network::SpanScope span(net_, from.host, "pipeline", "emit");
  if (span.active()) span.annotate(from.name);
  for (const ComponentRef& to : it->second) {
    if (to.host == from.host) {
      // Intra-node hop: processing cost only, no serialisation.  The
      // captured event is a COW handle, so every queued hop shares one
      // payload.  The scheduler hop breaks the synchronous call chain,
      // so carry the ambient trace context across it explicitly.
      ++stats_.intra_node_hops;
      net_.scheduler().after(kProcessingDelay,
                             [this, to, e, ctx = net_.current_trace()]() {
                               sim::Network::TraceScope scope(net_, ctx);
                               deliver_local(to, e);
                             });
    } else {
      // Inter-node hop: the event crosses the wire priced as XML.
      ++stats_.inter_node_hops;
      const std::size_t size = e.wire_size() + to.name.size() + 8;
      net_.send(from.host, to.host, kPipeProto, PipeMsg{to.name, e}, size);
    }
  }
}

void PipelineNetwork::deliver_local(const ComponentRef& to, const event::Event& e) {
  Component* c = component(to);
  if (c == nullptr) {
    ++stats_.undeliverable;
    return;
  }
  // Matchlets emit synchronously from put(), so downstream dispatch and
  // re-publishes nest under this span.
  sim::Network::SpanScope span(net_, to.host, "pipeline", "put");
  if (span.active()) span.annotate(to.name);
  c->put(e);
}

void PipelineNetwork::on_message(sim::HostId host, const sim::Packet& packet) {
  const auto* msg = sim::packet_body<PipeMsg>(packet);
  if (msg == nullptr) return;
  // Charge the receive-side processing cost, then deliver (carrying the
  // arrival's trace context across the scheduler hop).
  const ComponentRef to{host, msg->to_component};
  net_.scheduler().after(kProcessingDelay,
                         [this, to, e = msg->event, ctx = net_.current_trace()]() {
                           sim::Network::TraceScope scope(net_, ctx);
                           deliver_local(to, e);
                         });
}

}  // namespace aa::pipeline
