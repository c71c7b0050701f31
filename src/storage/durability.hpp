// Crash durability for store nodes: tiered persistence over DurableDisk.
//
// §4.6's "RAID analogy" promises stored context outlives node failure.
// The store offers three tiers (the derecho ObjectStore taxonomy),
// chosen per ObjectStore via Params::tier:
//
//   kVolatile   — today's behaviour: a crash loses everything on the
//                 host; recovery is an empty node that refills from
//                 replica peers via the healing sweep.
//   kPersistent — checkpoint-on-write: every mutation serialises the
//                 node's full authoritative state to disk.  Simple and
//                 log-free, at brutal write amplification.
//   kLogged     — write-ahead log: each mutation appends one delta
//                 record; a full checkpoint every `checkpoint_every`
//                 records bounds replay time, after which older log
//                 segments are deleted.
//
// Crash-consistent formats (both persistent tiers):
//
//   * Checkpoints ping-pong between two files (store.ckpt.a / .b), each
//     carrying a monotonic sequence number and a trailing FNV-1a
//     checksum.  A crash mid-checkpoint tears the file being written;
//     the previous file still validates, so recovery never loses more
//     than one checkpoint interval.
//   * WAL records are length + checksum framed.  Records append to the
//     segment of the current checkpoint epoch (store.wal.<epoch>); a
//     checkpoint with sequence S covers every epoch < S, so recovery
//     replays only segments >= the recovered checkpoint's sequence —
//     stale records can never regress newer checkpointed state.
//   * Replay stops at the first record that fails its frame or
//     checksum (the torn tail of the crash), discards the rest, and
//     truncates the segment on disk so post-recovery records are never
//     stranded behind the bad frame.
//
// Recovery (StoreJournal::recover) rebuilds the StoreNode from the best
// valid checkpoint plus WAL replay and reports counts the obs layer
// turns into recovery spans.  The rejoined node then reconciles with
// replica peers through the existing repair path (ObjectStore re-runs
// its healing pass for the host).
#pragma once

#include <cstdint>
#include <string>

#include "sim/durable_disk.hpp"
#include "storage/store_node.hpp"

namespace aa::storage {

enum class StoreTier : std::uint8_t {
  kVolatile = 0,
  kPersistent = 1,
  kLogged = 2,
};

const char* tier_name(StoreTier tier);

struct DurabilityStats {
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_bytes = 0;         // WAL record bytes issued
  std::uint64_t checkpoints = 0;       // checkpoint writes issued
  std::uint64_t checkpoint_bytes = 0;  // checkpoint file bytes issued
  std::uint64_t logical_bytes = 0;     // application payload bytes mutated
  std::uint64_t recoveries = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t torn_records_discarded = 0;
  std::uint64_t corrupt_checkpoints = 0;  // checkpoint files failing validation
  std::uint64_t recovery_bytes_read = 0;
  std::uint64_t recovery_us_total = 0;  // modelled replay read time

  /// Physical bytes issued to disk per logical byte mutated — the tier
  /// comparison number the C4 bench plots.
  double write_amplification() const {
    return logical_bytes == 0
               ? 0.0
               : static_cast<double>(wal_bytes + checkpoint_bytes) /
                     static_cast<double>(logical_bytes);
  }
};

/// Per-host durability driver.  The StoreNode calls record_*() after
/// applying each authoritative mutation (caches are volatile by
/// design); the journal turns those into WAL appends and/or checkpoint
/// writes per its tier.  One journal owns one host's store files.
class StoreJournal {
 public:
  StoreJournal(sim::DurableDisk& disk, sim::HostId host, StoreTier tier,
               std::uint32_t checkpoint_every);

  StoreJournal(const StoreJournal&) = delete;
  StoreJournal& operator=(const StoreJournal&) = delete;

  /// The node whose state checkpoints serialise.  Must be set before
  /// the first mutation; the node's set_journal() points back here.
  void bind(StoreNode* node) { node_ = node; }

  StoreTier tier() const { return tier_; }

  // Mutation hooks (no-ops while recover() is replaying into the node).
  void record_replica_put(const ObjectId& id, const Bytes& data);
  void record_replica_drop(const ObjectId& id);
  void record_fragment_put(const ObjectId& id, const Fragment& fragment);
  void record_fragment_drop(const ObjectId& id);

  struct RecoveryResult {
    bool checkpoint_ok = false;        // a valid checkpoint was found
    std::uint64_t checkpoint_seq = 0;  // its sequence number
    std::uint64_t records_replayed = 0;
    std::uint64_t torn_discarded = 0;   // records dropped at torn tails
    std::size_t bytes_read = 0;         // checkpoint + WAL bytes scanned
    SimDuration modeled_latency = 0;  // disk read time for those bytes
  };

  /// Rebuilds `node` (cleared first) from durable state.  Safe to call
  /// with a stale WAL tail, torn records, or no files at all.
  RecoveryResult recover(StoreNode& node);

  /// Forces a checkpoint now (tests; graceful shutdown).
  void checkpoint_now();

  const DurabilityStats& stats() const { return stats_; }

 private:
  void log_record(Bytes payload);
  void initiate_checkpoint();
  Bytes serialize_checkpoint() const;
  void on_checkpoint_durable(std::uint64_t seq);
  std::string wal_file(std::uint64_t epoch) const;

  sim::DurableDisk& disk_;
  sim::HostId host_;
  StoreTier tier_;
  std::uint32_t checkpoint_every_;
  StoreNode* node_ = nullptr;
  bool replaying_ = false;
  std::uint64_t next_ckpt_seq_ = 1;     // sequence for the next checkpoint
  std::uint64_t current_epoch_ = 0;     // WAL segment new records go to
  std::uint64_t durable_ckpt_seq_ = 0;  // highest checkpoint known durable
  std::uint32_t records_since_ckpt_ = 0;
  DurabilityStats stats_;
};

}  // namespace aa::storage
