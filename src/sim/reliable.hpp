// Reliable transport over the (possibly faulty) simulated network.
//
// The link fault model (sim/network.hpp) drops, duplicates and reorders
// packets and cuts partitions; protocols that must survive that — the
// broker overlay's inter-broker forwarding, overlay routing-table
// maintenance, storage replica repair — send through a
// ReliableTransport instead of the raw network.  The transport gives
// each payload a sequence number, acks every receipt, retransmits on an
// exponential-backoff timer (initial_rto, doubling up to max_rto) and
// gives up after max_retries retransmissions, reporting the undeliverable
// packet to an optional give-up callback.  Receivers deduplicate by
// sequence number, so retransmissions and link-level duplication both
// collapse to exactly-once delivery to the registered handler; ordering
// is NOT preserved (a retransmitted packet arrives after younger
// traffic), which every wired protocol tolerates by design.
//
// One transport instance owns one network protocol name end-to-end: it
// registers the network-level handlers itself and hands unwrapped
// packets (original src/dst/body/wire_size) to per-host user handlers,
// so switching a layer between raw and reliable paths is a one-line
// change at the call site.  Retransmissions are also reported to
// Network::note_retransmit() so NetworkStats shows retry overhead next
// to the raw traffic counters.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/network.hpp"

namespace aa::sim {

struct ReliableParams {
  /// First retransmission timer; it doubles per retry up to max_rto.
  /// The default suits the transit-stub topology's worst inter-region
  /// RTT (~180 ms).
  SimDuration initial_rto = duration::millis(200);
  SimDuration max_rto = duration::seconds(5);
  /// Retransmissions after the initial send before giving up.
  int max_retries = 12;
};

struct ReliableStats {
  std::uint64_t data_sent = 0;
  std::uint64_t acked = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates_suppressed = 0;  // re-receipts dropped by dedup
  std::uint64_t give_ups = 0;
  /// give_ups fired early because the peer's incarnation changed (it
  /// crashed since the send) — retrying at the reincarnated endpoint
  /// can never be acked, so the transport reports the loss promptly.
  std::uint64_t incarnation_give_ups = 0;
};

class ReliableTransport {
 public:
  /// Called with the original packet after max_retries unacked
  /// retransmissions (e.g. the peer is down or permanently cut off).
  using GiveUp = std::function<void(const Packet&)>;

  /// Owns `protocol` on `net`: nothing else may register handlers for
  /// that protocol name.
  ReliableTransport(Network& net, std::string protocol, ReliableParams params = {});
  ~ReliableTransport();

  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  const std::string& protocol() const { return protocol_; }

  /// Registers the receive handler for `host`.  Delivered packets carry
  /// the original sender, body and wire size, exactly once per send().
  void register_handler(HostId host, Network::Handler handler);
  void unregister_handler(HostId host);

  void set_give_up(GiveUp give_up) { give_up_ = std::move(give_up); }

  /// Sends with ack + retry.  `packet.protocol` is overwritten with the
  /// transport's protocol.
  void send(Packet packet);

  template <typename T>
  void send(HostId src, HostId dst, T body, std::size_t wire_size) {
    send(Packet{src, dst, protocol_, std::any(std::move(body)), wire_size});
  }

  const ReliableStats& stats() const { return stats_; }
  /// Sends awaiting an ack (retransmission timers pending).
  std::size_t in_flight() const;

 private:
  /// Header bytes charged on top of the payload (seq + flags), and the
  /// full wire size of an ack.
  static constexpr std::size_t kHeaderBytes = 12;

  struct DataMsg {
    std::uint64_t seq = 0;
    std::any body;
    std::size_t body_wire = 0;
  };
  struct AckMsg {
    std::uint64_t seq = 0;
  };
  struct Pending {
    Packet packet;
    int retries = 0;
    SimDuration rto = 0;
    TaskId timer = kInvalidTask;
    /// Destination incarnation at send time; a mismatch at any retry
    /// means the peer crashed and the send can never succeed.
    std::uint32_t dst_incarnation = 0;
  };

  /// Per-host transport state: a sender's pending sends and sequence
  /// counter, a receiver's dedup set.
  struct HostState {
    std::unordered_map<std::uint64_t, Pending> pending;
    // Receiver-side dedup.  Sequence numbers carry their source host in
    // the top bits, so every sender's streams stay disjoint within one
    // receiver's set.
    std::unordered_set<std::uint64_t> delivered;
    std::uint64_t next_seq = 1;
  };

  /// Sequence numbers are (src + 1) << 40 | per-source counter:
  /// globally unique, and a function of the sender's own history (they
  /// appear in retransmit span annotations).
  static std::uint64_t seq_source(std::uint64_t seq) { return (seq >> 40) - 1; }

  /// Lazily registers this transport's network handler for `host` (both
  /// receivers and senders need one — acks come back to the sender).
  void ensure_net_handler(HostId host);
  void on_network(HostId host, const Packet& packet);
  void transmit(std::uint64_t seq);
  void on_timeout(std::uint64_t seq);

  Network& net_;
  std::string protocol_;
  ReliableParams params_;
  GiveUp give_up_;
  std::vector<Network::Handler> handlers_;  // per host
  std::vector<char> net_registered_;        // per host
  std::vector<HostState> hosts_;
  ReliableStats stats_;
};

}  // namespace aa::sim
