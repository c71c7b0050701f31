#include "storage/durability.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <vector>

#include "common/bytes.hpp"
#include "common/hash.hpp"

namespace aa::storage {

namespace {
constexpr const char* kCkptBase = "store.ckpt";
constexpr const char* kWalPrefix = "store.wal.";

enum class WalOp : std::uint8_t {
  kReplicaPut = 1,
  kReplicaDrop = 2,
  kFragmentPut = 3,
  kFragmentDrop = 4,
};

std::uint64_t checksum(std::span<const std::uint8_t> data) {
  return fnv1a(std::string_view(reinterpret_cast<const char*>(data.data()), data.size()));
}

/// Frames a WAL payload: length + checksum header, then the payload.
/// The frame is what lets replay detect a torn tail.
Bytes frame_record(const Bytes& payload) {
  BufWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(checksum(payload));
  w.bytes(payload);  // length-prefixed again, but keeps BufReader symmetric
  return std::move(w).take();
}
}  // namespace

const char* tier_name(StoreTier tier) {
  switch (tier) {
    case StoreTier::kVolatile:
      return "volatile";
    case StoreTier::kPersistent:
      return "persistent";
    case StoreTier::kLogged:
      return "logged";
  }
  return "unknown";
}

StoreJournal::StoreJournal(sim::DurableDisk& disk, sim::HostId host, StoreTier tier,
                           std::uint32_t checkpoint_every)
    : disk_(disk), host_(host), tier_(tier), checkpoint_every_(checkpoint_every) {}

std::string StoreJournal::wal_file(std::uint64_t epoch) const {
  return kWalPrefix + std::to_string(epoch);
}

void StoreJournal::record_replica_put(const ObjectId& id, const Bytes& data) {
  if (replaying_) return;
  stats_.logical_bytes += data.size() + 20;
  if (tier_ == StoreTier::kPersistent) {
    initiate_checkpoint();
    return;
  }
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(WalOp::kReplicaPut));
  w.uid(id);
  w.bytes(data);
  log_record(std::move(w).take());
}

void StoreJournal::record_replica_drop(const ObjectId& id) {
  if (replaying_) return;
  stats_.logical_bytes += 20;
  if (tier_ == StoreTier::kPersistent) {
    initiate_checkpoint();
    return;
  }
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(WalOp::kReplicaDrop));
  w.uid(id);
  log_record(std::move(w).take());
}

void StoreJournal::record_fragment_put(const ObjectId& id, const Fragment& fragment) {
  if (replaying_) return;
  stats_.logical_bytes += fragment.data.size() + 24;
  if (tier_ == StoreTier::kPersistent) {
    initiate_checkpoint();
    return;
  }
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(WalOp::kFragmentPut));
  w.uid(id);
  w.u32(static_cast<std::uint32_t>(fragment.index));
  w.bytes(fragment.data);
  log_record(std::move(w).take());
}

void StoreJournal::record_fragment_drop(const ObjectId& id) {
  if (replaying_) return;
  stats_.logical_bytes += 20;
  if (tier_ == StoreTier::kPersistent) {
    initiate_checkpoint();
    return;
  }
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(WalOp::kFragmentDrop));
  w.uid(id);
  log_record(std::move(w).take());
}

void StoreJournal::log_record(Bytes payload) {
  const Bytes framed = frame_record(payload);
  ++stats_.wal_appends;
  stats_.wal_bytes += framed.size();
  disk_.append(host_, wal_file(current_epoch_), framed);
  if (++records_since_ckpt_ >= checkpoint_every_) initiate_checkpoint();
}

void StoreJournal::checkpoint_now() { initiate_checkpoint(); }

void StoreJournal::initiate_checkpoint() {
  if (node_ == nullptr) return;
  const std::uint64_t seq = next_ckpt_seq_++;
  // New records belong to the new epoch: the checkpoint being written
  // covers every epoch below `seq`, and nothing after it.
  current_epoch_ = seq;
  records_since_ckpt_ = 0;
  Bytes data = serialize_checkpoint();  // seq rides in the ping-pong frame
  ++stats_.checkpoints;
  stats_.checkpoint_bytes += data.size() + 24;  // + ping-pong frame
  sim::checkpoint_write(disk_, host_, kCkptBase, seq, std::move(data),
                        [this, seq](bool durable) {
                          if (durable) on_checkpoint_durable(seq);
                        });
}

Bytes StoreJournal::serialize_checkpoint() const {
  BufWriter w;
  const auto replica_ids = node_->replica_ids();
  w.u32(static_cast<std::uint32_t>(replica_ids.size()));
  for (const ObjectId& id : replica_ids) {
    w.uid(id);
    w.bytes(*node_->replica(id));
  }
  const auto fragment_ids = node_->fragment_ids();
  w.u32(static_cast<std::uint32_t>(fragment_ids.size()));
  for (const ObjectId& id : fragment_ids) {
    const Fragment* f = node_->fragment(id);
    w.uid(id);
    w.u32(static_cast<std::uint32_t>(f->index));
    w.bytes(f->data);
  }
  return std::move(w).take();
}

void StoreJournal::on_checkpoint_durable(std::uint64_t seq) {
  if (seq <= durable_ckpt_seq_) return;  // an older write completing late
  durable_ckpt_seq_ = seq;
  // Every WAL epoch below the durable checkpoint is now garbage.
  for (const std::string& file : disk_.files(host_)) {
    if (!file.starts_with(kWalPrefix)) continue;
    std::uint64_t epoch = 0;
    const std::string_view digits = std::string_view(file).substr(std::strlen(kWalPrefix));
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), epoch);
    if (ec != std::errc{} || ptr != digits.data() + digits.size()) continue;
    if (epoch < seq) disk_.remove(host_, file);
  }
}

StoreJournal::RecoveryResult StoreJournal::recover(StoreNode& node) {
  RecoveryResult result;
  replaying_ = true;
  node.clear_all();

  // 1. Best valid checkpoint of the ping-pong pair wins.
  const sim::CheckpointRead ckpt = sim::checkpoint_read(disk_, host_, kCkptBase);
  result.bytes_read += ckpt.bytes_scanned;
  stats_.corrupt_checkpoints += ckpt.corrupt_files;
  const std::uint64_t best_seq = ckpt.ok ? ckpt.seq : 0;
  if (ckpt.ok) {
    BufReader r(ckpt.payload);
    const std::uint32_t n_replicas = r.u32();
    for (std::uint32_t i = 0; i < n_replicas && !r.failed(); ++i) {
      const ObjectId id = r.uid();
      Bytes data = r.bytes();
      if (!r.failed()) node.store_replica(id, std::move(data));
    }
    const std::uint32_t n_fragments = r.u32();
    for (std::uint32_t i = 0; i < n_fragments && !r.failed(); ++i) {
      const ObjectId id = r.uid();
      Fragment f;
      f.index = static_cast<int>(r.u32());
      f.data = r.bytes();
      if (!r.failed()) node.store_fragment(id, std::move(f));
    }
    result.checkpoint_ok = true;
    result.checkpoint_seq = ckpt.seq;
  }

  // 2. Replay WAL epochs the checkpoint does not cover, in order.
  std::vector<std::uint64_t> epochs;
  for (const std::string& file : disk_.files(host_)) {
    if (!file.starts_with(kWalPrefix)) continue;
    std::uint64_t epoch = 0;
    const std::string_view digits = std::string_view(file).substr(std::strlen(kWalPrefix));
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), epoch);
    if (ec != std::errc{} || ptr != digits.data() + digits.size()) continue;
    if (epoch >= best_seq) epochs.push_back(epoch);
  }
  std::sort(epochs.begin(), epochs.end());
  bool torn = false;
  std::uint64_t resume_epoch = best_seq;
  for (const std::uint64_t epoch : epochs) {
    if (torn) {
      // Nothing after a torn tail is trustworthy — and leaving it on
      // disk would let a later recovery replay records this one
      // discarded.
      disk_.remove(host_, wal_file(epoch));
      continue;
    }
    resume_epoch = epoch;
    const Bytes* segment = disk_.read(host_, wal_file(epoch));
    if (segment == nullptr) continue;
    result.bytes_read += segment->size();
    BufReader r(*segment);
    std::size_t good_end = 0;  // bytes up to the last fully-valid record
    while (!r.at_end()) {
      if (r.remaining() < 12) {
        torn = true;  // partial frame header at the tail
        break;
      }
      const std::uint32_t len = r.u32();
      const std::uint64_t sum = r.u64();
      const Bytes payload = r.bytes();
      if (r.failed() || payload.size() != len || checksum(payload) != sum) {
        torn = true;
        break;
      }
      BufReader p(payload);
      const auto op = static_cast<WalOp>(p.u8());
      const ObjectId id = p.uid();
      switch (op) {
        case WalOp::kReplicaPut:
          node.store_replica(id, p.bytes());
          break;
        case WalOp::kReplicaDrop:
          node.drop_replica(id);
          break;
        case WalOp::kFragmentPut: {
          Fragment f;
          f.index = static_cast<int>(p.u32());
          f.data = p.bytes();
          node.store_fragment(id, std::move(f));
          break;
        }
        case WalOp::kFragmentDrop:
          node.drop_fragment(id);
          break;
        default:
          torn = true;  // unknown op: treat like corruption, stop
          break;
      }
      if (p.failed() || torn) {
        torn = true;
        break;
      }
      ++result.records_replayed;
      good_end = segment->size() - r.remaining();
    }
    if (torn) {
      // Truncate the torn tail on disk, not just in memory: the journal
      // resumes appending to this segment, and a record written after a
      // bad frame would be stranded behind it at the next replay.
      if (good_end == 0) {
        disk_.remove(host_, wal_file(epoch));
      } else {
        disk_.write(host_, wal_file(epoch),
                    Bytes(segment->begin(),
                          segment->begin() + static_cast<std::ptrdiff_t>(good_end)));
      }
    }
  }
  if (torn) ++result.torn_discarded;

  result.modeled_latency = disk_.read_latency(result.bytes_read);
  ++stats_.recoveries;
  stats_.records_replayed += result.records_replayed;
  stats_.torn_records_discarded += result.torn_discarded;
  stats_.recovery_bytes_read += result.bytes_read;
  stats_.recovery_us_total += static_cast<std::uint64_t>(result.modeled_latency);

  // Resume journalling past every segment still on disk: checkpoints
  // initiated-but-not-durable before the crash left WAL epochs above
  // the recovered seq, and a new checkpoint sequence that reuses those
  // numbers would leave them alive past its cleanup — a second crash
  // would then replay the stale pre-crash records *after* the newer
  // checkpoint, regressing durable state.
  durable_ckpt_seq_ = best_seq;
  next_ckpt_seq_ = resume_epoch + 1;
  current_epoch_ = resume_epoch;
  records_since_ckpt_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(result.records_replayed, checkpoint_every_));
  replaying_ = false;
  return result;
}

}  // namespace aa::storage
