#include "sim/reliable.hpp"

#include <algorithm>

namespace aa::sim {

namespace {
// Each retransmission multiplies the timer by this, up to max_rto.
constexpr double kBackoff = 2.0;
}  // namespace

ReliableTransport::ReliableTransport(Network& net, std::string protocol, ReliableParams params)
    : net_(net),
      protocol_(std::move(protocol)),
      params_(params),
      handlers_(net.host_count()),
      net_registered_(net.host_count(), 0),
      hosts_(net.host_count()) {}

ReliableTransport::~ReliableTransport() {
  for (HostState& hs : hosts_) {
    for (auto& [seq, pending] : hs.pending) {
      if (pending.timer != kInvalidTask) net_.scheduler().cancel(pending.timer);
    }
  }
  for (HostId h = 0; h < net_registered_.size(); ++h) {
    if (net_registered_[h]) net_.unregister_handler(h, protocol_);
  }
}

void ReliableTransport::register_handler(HostId host, Network::Handler handler) {
  if (host >= handlers_.size()) return;
  handlers_[host] = std::move(handler);
  ensure_net_handler(host);
}

void ReliableTransport::unregister_handler(HostId host) {
  // The network-level handler stays: the host may still send and must
  // keep receiving acks.
  if (host < handlers_.size()) handlers_[host] = nullptr;
}

void ReliableTransport::ensure_net_handler(HostId host) {
  if (host >= net_registered_.size() || net_registered_[host]) return;
  net_registered_[host] = 1;
  net_.register_handler(host, protocol_,
                        [this, host](const Packet& p) { on_network(host, p); });
}

void ReliableTransport::send(Packet packet) {
  packet.protocol = protocol_;
  ensure_net_handler(packet.src);
  // Adopt the ambient trace context now: retransmissions fire from a
  // timer, where the originating context is no longer ambient.
  if (net_.tracing_enabled() && !packet.trace.active()) {
    packet.trace = net_.current_trace();
  }
  HostState& hs = hosts_[packet.src];
  const std::uint64_t seq =
      ((static_cast<std::uint64_t>(packet.src) + 1) << 40) | hs.next_seq++;
  Pending pending;
  pending.dst_incarnation = net_.incarnation(packet.dst);
  pending.packet = std::move(packet);
  pending.rto = params_.initial_rto;
  hs.pending.emplace(seq, std::move(pending));
  ++stats_.data_sent;
  transmit(seq);
}

void ReliableTransport::transmit(std::uint64_t seq) {
  Pending& pending = hosts_[seq_source(seq)].pending.at(seq);
  const Packet& p = pending.packet;
  net_.send(Packet{p.src, p.dst, protocol_, std::any(DataMsg{seq, p.body, p.wire_size}),
                   p.wire_size + kHeaderBytes, p.trace});
  pending.timer = net_.scheduler().after(pending.rto, [this, seq]() { on_timeout(seq); });
}

void ReliableTransport::on_timeout(std::uint64_t seq) {
  HostState& hs = hosts_[seq_source(seq)];
  auto it = hs.pending.find(seq);
  if (it == hs.pending.end()) return;
  Pending& pending = it->second;
  pending.timer = kInvalidTask;
  const bool peer_reincarnated =
      net_.incarnation(pending.packet.dst) != pending.dst_incarnation;
  if (peer_reincarnated || pending.retries >= params_.max_retries) {
    if (peer_reincarnated) ++stats_.incarnation_give_ups;
    ++stats_.give_ups;
    Packet original = std::move(pending.packet);
    hs.pending.erase(it);
    if (give_up_) give_up_(original);
    return;
  }
  ++pending.retries;
  ++stats_.retransmits;
  net_.note_retransmit();
  if (auto* tracer = net_.tracer(); tracer != nullptr && pending.packet.trace.active()) {
    // Instant span marking the retry; the fresh wire span for the copy
    // is recorded by net_.send below as usual.
    const SimTime now = net_.scheduler().now();
    const std::uint64_t s = tracer->begin(pending.packet.trace, pending.packet.src,
                                          "transport", "retransmit", now);
    tracer->annotate(s, "seq=" + std::to_string(seq) +
                            ";try=" + std::to_string(pending.retries));
    tracer->end(s, now);
  }
  pending.rto = std::min(static_cast<SimDuration>(static_cast<double>(pending.rto) *
                                                  kBackoff),
                         params_.max_rto);
  transmit(seq);
}

void ReliableTransport::on_network(HostId host, const Packet& packet) {
  HostState& hs = hosts_[host];
  if (const auto* data = packet_body<DataMsg>(packet)) {
    // Ack every receipt — a duplicate usually means our previous ack
    // was lost, and only a fresh ack stops the sender's retry clock.
    net_.send(host, packet.src, protocol_, AckMsg{data->seq}, kHeaderBytes);
    if (!hs.delivered.insert(data->seq).second) {
      ++stats_.duplicates_suppressed;
      return;
    }
    if (host < handlers_.size() && handlers_[host]) {
      // The unwrapped packet keeps the arrival's trace context, so the
      // user handler's spans nest under the (single) delivering wire hop
      // even when earlier copies of this seq were dropped or suppressed.
      handlers_[host](
          Packet{packet.src, host, protocol_, data->body, data->body_wire, packet.trace});
    }
  } else if (const auto* ack = packet_body<AckMsg>(packet)) {
    // The ack arrives back at the original sender, so this host's own
    // pending table holds the entry.
    auto it = hs.pending.find(ack->seq);
    if (it == hs.pending.end()) return;  // stale ack for a retransmitted copy
    if (it->second.timer != kInvalidTask) net_.scheduler().cancel(it->second.timer);
    hs.pending.erase(it);
    ++stats_.acked;
  }
}

std::size_t ReliableTransport::in_flight() const {
  std::size_t total = 0;
  for (const HostState& hs : hosts_) total += hs.pending.size();
  return total;
}

}  // namespace aa::sim
