#include "sim/network.hpp"

#include <algorithm>
#include <ostream>

namespace aa::sim {

namespace {
// Link bandwidth: a packet's transmission time is wire_size / this.
constexpr double kBandwidthBytesPerUs = 100.0;
}  // namespace

Network::Network(Scheduler& sched, std::shared_ptr<const Topology> topo)
    : sched_(sched),
      topo_(std::move(topo)),
      link_clear_(topo_->size()),
      batch_(topo_->size()),
      up_(topo_->size(), true),
      incarnation_(topo_->size(), 0),
      delivered_per_host_(topo_->size(), 0),
      handlers_(topo_->size()) {
  sched_.bind_hosts(static_cast<std::uint32_t>(topo_->size()));
  reseed_fault_rngs(default_faults_.seed);
}

Network::~Network() {
  // The profiler dies with the network; detach it before the scheduler
  // (externally owned, destroyed after us) can dangle into it.
  if (profiler_ != nullptr) sched_.set_profiler(nullptr);
}

void Network::register_handler(HostId host, const std::string& protocol, Handler handler) {
  if (host >= handlers_.size()) return;
  handlers_[host][protocol] = std::move(handler);
}

void Network::unregister_handler(HostId host, const std::string& protocol) {
  if (host < handlers_.size()) handlers_[host].erase(protocol);
}

void Network::clear_handlers(HostId host) {
  if (host < handlers_.size()) handlers_[host].clear();
}

void Network::reseed_fault_rngs(std::uint64_t seed) {
  fault_rng_.clear();
  fault_rng_.reserve(topo_->size());
  for (HostId h = 0; h < topo_->size(); ++h) {
    // Distinct stream per source host (splitmix in Rng's constructor
    // decorrelates consecutive seeds); a source's draw sequence is then
    // a function of its own send history alone.
    fault_rng_.emplace_back(seed ^ (0x9E3779B97F4A7C15ULL * (h + 1)));
  }
}

void Network::set_link_faults(const LinkFaults& faults) {
  default_faults_ = faults;
  reseed_fault_rngs(faults.seed);
}

void Network::set_link_faults(HostId a, HostId b, const LinkFaults& faults) {
  link_fault_overrides_[{a, b}] = faults;
  link_fault_overrides_[{b, a}] = faults;
}

void Network::clear_link_faults() {
  default_faults_ = LinkFaults{};
  link_fault_overrides_.clear();
}

const LinkFaults* Network::faults_for(HostId src, HostId dst) const {
  auto it = link_fault_overrides_.find({src, dst});
  if (it != link_fault_overrides_.end()) {
    return it->second.any() ? &it->second : nullptr;
  }
  return default_faults_.any() ? &default_faults_ : nullptr;
}

void Network::partition(const std::string& name, const std::vector<HostId>& side_a,
                        const std::vector<HostId>& side_b) {
  heal(name);
  Partition p;
  p.name = name;
  p.a.insert(side_a.begin(), side_a.end());
  p.b.insert(side_b.begin(), side_b.end());
  partitions_.push_back(std::move(p));
}

void Network::heal(const std::string& name) {
  std::erase_if(partitions_, [&](const Partition& p) { return p.name == name; });
}

void Network::heal() { partitions_.clear(); }

bool Network::partitioned(HostId a, HostId b) const {
  for (const Partition& p : partitions_) {
    if ((p.a.contains(a) && p.b.contains(b)) || (p.a.contains(b) && p.b.contains(a))) {
      return true;
    }
  }
  return false;
}

void Network::enable_tracing(std::uint64_t sample_every) {
  if (tracer_ == nullptr) {
    tracer_ = std::make_unique<obs::TraceCollector>();
    tracer_->bind_task_keys([this] {
      const Scheduler::TaskKey k = sched_.current_task_key();
      return obs::TraceCollector::TaskKey{k.time, k.owner_rank, k.oseq};
    });
  }
  tracer_->set_sample_every(sample_every);
}

void Network::enable_profiling(std::size_t sample_retention) {
  if (profiler_ == nullptr) profiler_ = std::make_unique<obs::Profiler>();
  profiler_->set_sample_retention(sample_retention);
  sched_.set_profiler(profiler_.get());
}

void Network::export_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  if (tracer_ != nullptr) tracer_->write_chrome_events(out, first);
  if (profiler_ != nullptr) profiler_->write_chrome_events(out, first);
  out << "\n]}\n";
}

obs::TraceContext Network::start_trace() {
  return tracer_ != nullptr ? tracer_->start_trace() : obs::TraceContext{};
}

void Network::end_wire_span(const Packet& packet, const char* note) {
  if (tracer_ == nullptr || packet.trace.parent_span == 0 || !packet.trace.active()) return;
  if (note != nullptr) tracer_->annotate(packet.trace.parent_span, note);
  tracer_->end(packet.trace.parent_span, sched_.now());
}

void Network::enable_batching(SimDuration window, FrameSizer sizer) {
  batch_window_ = std::max<SimDuration>(window, 0);
  frame_sizer_ = std::move(sizer);
}

void Network::send(Packet packet) {
  // A packet refused at the source (host down, id out of range) never
  // reaches the wire: count it only as a drop, or bytes-per-delivery
  // metrics inflate under churn.
  if (packet.src >= up_.size() || packet.dst >= up_.size() || !up_[packet.src]) {
    ++stats_.messages_dropped;
    return;
  }
  // Adopt the ambient trace now (staged packets must remember the
  // causal chain that sent them, not the flush task's).
  if (tracer_ != nullptr && !packet.trace.active()) packet.trace = ambient_;
  ++stats_.messages_sent;
  // Loopback is exempt from batching, as from faults and FIFO: a host
  // talking to itself gains nothing from a frame.
  if (batch_window_ >= 0 && packet.src != packet.dst) {
    stage(std::move(packet));
    return;
  }
  transmit(std::move(packet), 1);
}

void Network::stage(Packet packet) {
  const HostId src = packet.src;
  const HostId dst = packet.dst;
  PendingBatch& pending = batch_[src][dst];
  pending.members.push_back(std::move(packet));
  if (!pending.flush_scheduled) {
    pending.flush_scheduled = true;
    // Posted as the source host, so the flush and its fault draws run
    // as the sender.  window = 0 lands at the current virtual time,
    // strictly after every already-queued task of this instant that
    // could still join the batch.
    sched_.post_to_host(src, sched_.now() + batch_window_,
                        [this, src, dst]() { flush_link(src, dst); });
  }
}

void Network::flush_link(HostId src, HostId dst) {
  auto it = batch_[src].find(dst);
  if (it == batch_[src].end() || it->second.members.empty()) {
    batch_[src].erase(dst);
    return;
  }
  PendingBatch pending = std::move(it->second);
  batch_[src].erase(it);
  ++stats_.batch_flushes;
  if (!up_[src]) {
    // The source crashed with the batch still in its egress queue.
    stats_.messages_dropped += pending.members.size();
    return;
  }
  if (pending.members.size() == 1) {
    // A lone packet needs no frame; batching must never inflate
    // unbatchable traffic.
    transmit(std::move(pending.members.front()), 1);
    return;
  }
  const std::size_t count = pending.members.size();
  std::vector<std::size_t> sizes;
  sizes.reserve(count);
  for (const Packet& m : pending.members) sizes.push_back(m.wire_size);
  Packet frame;
  frame.src = src;
  frame.dst = dst;
  frame.protocol = kFrameProto;
  frame.wire_size = frame_sizer_(sizes);
  // The frame's single wire span hangs off the first traced member's
  // chain; the other members keep their own (pre-wire) parents.
  for (const Packet& m : pending.members) {
    if (m.trace.active()) {
      frame.trace = m.trace;
      break;
    }
  }
  ++stats_.frames_sent;
  stats_.batched_messages += count;
  frame.body = BatchFrame{std::move(pending.members)};
  transmit(std::move(frame), count);
}

void Network::transmit(Packet packet, std::size_t member_count) {
  if (tracer_ != nullptr && packet.trace.active()) {
    // Receiver-side spans nest under the wire hop, so the hop becomes
    // the packet's parent for the rest of its flight.  One span per
    // physical packet: a frame's members share it.
    const std::uint64_t wire = tracer_->begin(packet.trace, packet.src, "net",
                                              "wire", sched_.now());
    tracer_->annotate(wire, packet.protocol + "->h" + std::to_string(packet.dst));
    if (member_count > 1) {
      tracer_->annotate(wire, "batch:" + std::to_string(member_count));
    }
    packet.trace.parent_span = wire;
  }
  stats_.bytes_sent += packet.wire_size;
  const bool loopback = packet.src == packet.dst;
  if (!loopback && partitioned(packet.src, packet.dst)) {
    stats_.dropped_by_fault += member_count;
    end_wire_span(packet, "dropped:partition");
    return;
  }
  // The source's own fault stream, so its draw sequence depends only on
  // this sender's traffic.  One draw per physical packet — a dropped
  // frame loses every member.
  Rng& frng = fault_rng_[packet.src];
  const LinkFaults* faults = loopback ? nullptr : faults_for(packet.src, packet.dst);
  if (faults != nullptr && faults->drop > 0 && frng.chance(faults->drop)) {
    stats_.dropped_by_fault += member_count;
    end_wire_span(packet, "dropped:fault");
    return;
  }
  const SimDuration latency = topo_->latency(packet.src, packet.dst);
  const SimDuration tx =
      static_cast<SimDuration>(static_cast<double>(packet.wire_size) / kBandwidthBytesPerUs);
  auto jitter_draw = [&]() -> SimDuration {
    if (faults == nullptr || faults->jitter <= 0) return 0;
    return static_cast<SimDuration>(
        frng.below(static_cast<std::uint64_t>(faults->jitter) + 1));
  };
  SimTime arrival;
  if (faults != nullptr && faults->reorder > 0 && frng.chance(faults->reorder)) {
    // Reordered: bypass the link FIFO entirely and take extra jitter,
    // so this packet can overtake (or be overtaken by) its neighbours.
    arrival = sched_.now() + latency + tx + jitter_draw();
  } else {
    // FIFO per link: arrival is after both this message's propagation +
    // transmission and every earlier message on the same (src,dst) link.
    SimTime& clear_at = link_clear_[packet.src][packet.dst];
    arrival = std::max(sched_.now() + latency, clear_at) + tx;
    clear_at = arrival;
  }
  const std::uint32_t incarnation = incarnation_[packet.dst];
  const HostId dst = packet.dst;
  if (faults != nullptr && faults->duplicate > 0 && frng.chance(faults->duplicate)) {
    stats_.duplicated += member_count;
    Packet copy = packet;
    sched_.post_to_host(dst, arrival + 1 + jitter_draw(),
                        [this, p = std::move(copy), incarnation]() { deliver(p, incarnation); });
  }
  // Delivery runs as the destination host.
  sched_.post_to_host(
      dst, arrival, [this, p = std::move(packet), incarnation]() { deliver(p, incarnation); });
}

void Network::deliver(const Packet& packet, std::uint32_t incarnation) {
  const bool is_frame = packet.protocol == kFrameProto;
  if (!up_[packet.dst] || incarnation_[packet.dst] != incarnation) {
    // Down, or it crashed after the packet was sent: the reincarnated
    // host is a fresh endpoint and must not receive stale traffic.  A
    // dead frame loses every member.
    const BatchFrame* frame = is_frame ? packet_body<BatchFrame>(packet) : nullptr;
    stats_.messages_dropped += frame != nullptr ? frame->members.size() : 1;
    end_wire_span(packet, "dropped:dead-host");
    return;
  }
  if (is_frame) {
    deliver_frame(packet);
    return;
  }
  auto& table = handlers_[packet.dst];
  auto it = table.find(packet.protocol);
  if (it == table.end() || !it->second) {
    ++stats_.messages_dropped;
    end_wire_span(packet, "dropped:no-handler");
    return;
  }
  ++stats_.messages_delivered;
  ++delivered_per_host_[packet.dst];
  // First arrival closes the wire span (idempotent, so a fault-model
  // duplicate of the same packet cannot stretch it); the handler then
  // runs with the packet's context ambient so its spans and sends nest
  // under this hop.  TraceScope is a no-op while tracing is off.
  end_wire_span(packet, nullptr);
  TraceScope scope(*this, packet.trace);
  it->second(packet);
}

void Network::deliver_frame(const Packet& packet) {
  const BatchFrame* frame = packet_body<BatchFrame>(packet);
  if (frame == nullptr) {
    ++stats_.messages_dropped;
    end_wire_span(packet, "dropped:bad-frame");
    return;
  }
  // One wire span covers the whole frame; each member then dispatches
  // under its own causal context, exactly as an unbatched delivery
  // would (a member without a handler is a drop, not a frame error).
  end_wire_span(packet, nullptr);
  auto& table = handlers_[packet.dst];
  for (const Packet& member : frame->members) {
    auto it = table.find(member.protocol);
    if (it == table.end() || !it->second) {
      ++stats_.messages_dropped;
      continue;
    }
    ++stats_.messages_delivered;
    ++delivered_per_host_[packet.dst];
    TraceScope scope(*this, member.trace);
    it->second(member);
  }
}

void Network::set_host_up(HostId host, bool up) {
  if (host >= up_.size()) return;
  if (up_[host] == up) return;
  if (up_[host] && !up) ++incarnation_[host];
  up_[host] = up;
  // Snapshot by value: a watcher may add/remove watchers while running.
  const auto watchers = host_watchers_;
  for (const auto& [id, watcher] : watchers) watcher(host, up);
}

std::uint64_t Network::add_host_watcher(HostWatcher watcher) {
  const std::uint64_t id = next_watcher_id_++;
  host_watchers_.emplace_back(id, std::move(watcher));
  return id;
}

void Network::remove_host_watcher(std::uint64_t id) {
  std::erase_if(host_watchers_, [id](const auto& entry) { return entry.first == id; });
}

bool Network::host_up(HostId host) const { return host < up_.size() && up_[host]; }

std::vector<HostId> Network::live_hosts() const {
  std::vector<HostId> out;
  for (HostId h = 0; h < up_.size(); ++h) {
    if (up_[h]) out.push_back(h);
  }
  return out;
}

std::uint64_t Network::delivered_to(HostId host) const {
  return host < delivered_per_host_.size() ? delivered_per_host_[host] : 0;
}

}  // namespace aa::sim
