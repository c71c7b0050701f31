// Per-host durable storage that survives crashes.
//
// The paper's §4.6 "RAID analogy" promises context data outlives node
// failure, which requires state that outlives a host's *incarnation*:
// when churn takes a host down and brings it back, everything in its
// memory is gone, but files written to its DurableDisk remain.  The
// disk is the foundation the tiered object store (storage/durability.hpp)
// and broker checkpoints (pubsub/broker.hpp) build their write-ahead
// logs and snapshots on.
//
// I/O model: writes and appends are asynchronous — the data becomes
// durable only when the operation's fsync completes, after a latency of
// `fsync_latency + bytes / 200` µs (a 200 bytes/µs sequential write).
// Operations on one host are FIFO (one disk head): an op's fsync cannot
// complete before the previous op's.  Reads are synchronous and free —
// recovery code runs locally on the host and models its cost separately
// (read_latency()).
//
// Crash semantics (the part worth simulating): the disk watches host
// up/down transitions via Network::add_host_watcher.  When a host
// crashes with operations in flight, the operation currently being
// written (the FIFO head) is resolved by a seeded Rng draw:
//
//   * torn  — a random prefix of the data reached the platter.  For an
//             append this leaves a torn tail record the recovery replay
//             must detect and truncate; for a full-file write it leaves
//             a corrupt file the checkpoint checksum must reject.
//   * ghost — the data fully landed, though the completion callback
//             never ran (the ack raced the crash).  Recovery sees more
//             than the application ever had confirmed.
//   * lost  — nothing reached the platter.
//
// Every later queued operation is lost outright (it never started), and
// no completion callback of a crashed op ever fires.  All draws come
// from one seeded Rng, so a (workload seed, disk seed) pair replays a
// crash bit-for-bit — the property the torn-write fuzz suite pins.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "sim/network.hpp"

namespace aa::sim {

struct DiskParams {
  /// Fixed cost per durable operation (the fsync barrier).
  SimDuration fsync_latency = duration::micros(500);
  /// Given a crash with the head op mid-flush: probability a torn
  /// prefix landed, and probability the op fully landed unacked
  /// (ghost).  The remainder is lost outright.  torn + ghost <= 1.
  double torn_write_prob = 0.4;
  double ghost_write_prob = 0.2;
  std::uint64_t seed = 0xD15C;
};

struct DiskStats {
  std::uint64_t writes = 0;         // full-file writes made durable
  std::uint64_t appends = 0;        // log appends made durable
  std::uint64_t bytes_written = 0;  // physical bytes that reached the platter
  std::uint64_t removes = 0;
  std::uint64_t crashed_ops = 0;    // ops in flight at a crash
  std::uint64_t torn_ops = 0;       // ...head op landed a torn prefix
  std::uint64_t ghost_ops = 0;      // ...head op fully landed, unacked
  std::uint64_t lost_ops = 0;       // ...vanished entirely
};

class DurableDisk {
 public:
  /// Completion callback: runs when the op's fsync completes, with
  /// `durable == true`.  Never runs for ops in flight at a crash.
  using Done = std::function<void(bool durable)>;

  DurableDisk(Network& net, DiskParams params = {});
  ~DurableDisk();

  DurableDisk(const DurableDisk&) = delete;
  DurableDisk& operator=(const DurableDisk&) = delete;

  const DiskParams& params() const { return params_; }

  /// Replaces `file` with `data` once the fsync completes.  The replace
  /// is atomic *on completion* (readers see old-or-new), but a crash
  /// mid-flush can leave a torn prefix of the new data — checkpoint
  /// formats carry checksums precisely so recovery can tell.
  void write(HostId host, const std::string& file, Bytes data, Done done = nullptr);

  /// Appends `record` to `file` (creating it) once the fsync completes.
  /// A crash mid-flush can leave a torn prefix of the record appended —
  /// the torn tail a write-ahead log's replay must truncate.
  void append(HostId host, const std::string& file, Bytes record, Done done = nullptr);

  /// Deletes a file (immediate; modelled as a metadata op).
  bool remove(HostId host, const std::string& file);

  /// Current durable content, or nullptr when the file does not exist.
  const Bytes* read(HostId host, const std::string& file) const;

  bool exists(HostId host, const std::string& file) const;
  std::vector<std::string> files(HostId host) const;

  /// Modelled time to read `bytes` back during recovery at 400 bytes/µs;
  /// recovery code charges this to the virtual clock (or annotates its
  /// span with it).
  SimDuration read_latency(std::size_t bytes) const;

  /// Operations not yet durable for `host` (all hosts when kNoHost).
  std::size_t in_flight(HostId host = kNoHost) const;

  const DiskStats& stats() const { return stats_; }

 private:
  struct Op {
    std::uint64_t id = 0;
    HostId host = kNoHost;
    std::string file;
    Bytes data;
    bool is_append = false;
    Done done;
  };

  void on_host_transition(HostId host, bool up);
  void schedule_completion(HostId host);
  void complete_head(HostId host);
  /// Applies op data to the durable state; `physical_bytes` is what
  /// actually reached the platter (< data.size() for torn ops).
  void apply(const Op& op, std::size_t physical_bytes);

  Network& net_;
  DiskParams params_;
  Rng rng_;
  std::uint64_t watcher_id_ = 0;
  // One disk per host: every container below is indexed by host.
  std::vector<std::uint64_t> next_op_;
  // Per-host FIFO of in-flight ops; front is on the platter now.
  std::vector<std::deque<Op>> queues_;
  // Completion timer of each host's head op.
  std::vector<TaskId> head_timer_;
  std::vector<std::map<std::string, Bytes>> files_;
  DiskStats stats_;
};

// --- Crash-consistent ping-pong checkpoints ------------------------------
//
// A checkpoint overwrite that tears mid-flush must not destroy the
// previous good checkpoint, so writers alternate between `<base>.a` and
// `<base>.b` keyed by a monotonic sequence number.  Each file carries a
// magic, its sequence and a trailing checksum; readers pick the valid
// file with the highest sequence.  Shared by the store journal
// (storage/durability.cpp) and broker checkpoints (pubsub/broker.cpp).

/// Writes checkpoint `seq` (alternating file by parity).  `done` fires
/// when the write is durable.
void checkpoint_write(DurableDisk& disk, HostId host, const std::string& base,
                      std::uint64_t seq, Bytes payload,
                      DurableDisk::Done done = nullptr);

struct CheckpointRead {
  bool ok = false;         // some valid checkpoint was found
  std::uint64_t seq = 0;   // its sequence number
  Bytes payload;
  std::size_t bytes_scanned = 0;   // file bytes read across both halves
  std::uint32_t corrupt_files = 0;  // present but failed validation
};

/// Recovers the best valid checkpoint of the pair (ok=false if neither
/// half validates — e.g. first-ever write torn by a crash).
CheckpointRead checkpoint_read(const DurableDisk& disk, HostId host,
                               const std::string& base);

}  // namespace aa::sim
