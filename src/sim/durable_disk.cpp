#include "sim/durable_disk.hpp"

#include <algorithm>
#include <utility>

#include "common/bytes.hpp"
#include "common/hash.hpp"

namespace aa::sim {

namespace {
// Sequential throughputs: writes scale the per-byte cost of an op;
// reads price read_latency(), the replay time recovery paths charge to
// the virtual clock.
constexpr double kWriteBytesPerUs = 200.0;
constexpr double kReadBytesPerUs = 400.0;
}  // namespace

DurableDisk::DurableDisk(Network& net, DiskParams params)
    : net_(net),
      params_(params),
      rng_(params.seed),
      next_op_(net.host_count(), 1),
      queues_(net.host_count()),
      head_timer_(net.host_count(), kInvalidTask),
      files_(net.host_count()) {
  watcher_id_ = net_.add_host_watcher(
      [this](HostId host, bool up) { on_host_transition(host, up); });
}

DurableDisk::~DurableDisk() { net_.remove_host_watcher(watcher_id_); }

void DurableDisk::write(HostId host, const std::string& file, Bytes data, Done done) {
  if (host >= queues_.size() || !net_.host_up(host)) {
    if (done) done(false);
    return;
  }
  Op op;
  op.id = next_op_[host]++;
  op.host = host;
  op.file = file;
  op.data = std::move(data);
  op.is_append = false;
  op.done = std::move(done);
  auto& q = queues_[host];
  q.push_back(std::move(op));
  if (q.size() == 1) schedule_completion(host);
}

void DurableDisk::append(HostId host, const std::string& file, Bytes record, Done done) {
  if (host >= queues_.size() || !net_.host_up(host)) {
    if (done) done(false);
    return;
  }
  Op op;
  op.id = next_op_[host]++;
  op.host = host;
  op.file = file;
  op.data = std::move(record);
  op.is_append = true;
  op.done = std::move(done);
  auto& q = queues_[host];
  q.push_back(std::move(op));
  if (q.size() == 1) schedule_completion(host);
}

bool DurableDisk::remove(HostId host, const std::string& file) {
  if (host >= files_.size()) return false;
  const bool existed = files_[host].erase(file) > 0;
  if (existed) ++stats_.removes;
  return existed;
}

const Bytes* DurableDisk::read(HostId host, const std::string& file) const {
  if (host >= files_.size()) return nullptr;
  auto it = files_[host].find(file);
  return it != files_[host].end() ? &it->second : nullptr;
}

bool DurableDisk::exists(HostId host, const std::string& file) const {
  return host < files_.size() && files_[host].contains(file);
}

std::vector<std::string> DurableDisk::files(HostId host) const {
  std::vector<std::string> out;
  if (host >= files_.size()) return out;
  for (const auto& [name, data] : files_[host]) out.push_back(name);
  return out;
}

SimDuration DurableDisk::read_latency(std::size_t bytes) const {
  return static_cast<SimDuration>(static_cast<double>(bytes) / kReadBytesPerUs);
}

std::size_t DurableDisk::in_flight(HostId host) const {
  if (host != kNoHost) {
    return host < queues_.size() ? queues_[host].size() : 0;
  }
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

void DurableDisk::schedule_completion(HostId host) {
  auto& q = queues_[host];
  if (q.empty()) return;
  const Op& head = q.front();
  const double tx_us = static_cast<double>(head.data.size()) / kWriteBytesPerUs;
  const SimDuration latency = params_.fsync_latency + static_cast<SimDuration>(tx_us);
  head_timer_[host] = net_.scheduler().after(latency, [this, host]() { complete_head(host); });
}

void DurableDisk::complete_head(HostId host) {
  auto& q = queues_[host];
  if (q.empty()) return;
  Op op = std::move(q.front());
  q.pop_front();
  head_timer_[host] = kInvalidTask;
  apply(op, op.data.size());
  if (op.is_append) {
    ++stats_.appends;
  } else {
    ++stats_.writes;
  }
  if (!q.empty()) schedule_completion(host);
  // Run the callback last: it may enqueue follow-up ops (checkpoint →
  // truncate-WAL chains) that must land behind the already-queued tail.
  if (op.done) op.done(true);
}

void DurableDisk::apply(const Op& op, std::size_t physical_bytes) {
  const std::size_t n = std::min(physical_bytes, op.data.size());
  stats_.bytes_written += n;
  if (op.is_append) {
    Bytes& f = files_[op.host][op.file];
    f.insert(f.end(), op.data.begin(), op.data.begin() + static_cast<std::ptrdiff_t>(n));
    return;
  }
  // Full-file write: atomic replace on fsync, torn prefix on crash.
  files_[op.host][op.file] = Bytes(op.data.begin(),
                                   op.data.begin() + static_cast<std::ptrdiff_t>(n));
}

void DurableDisk::on_host_transition(HostId host, bool up) {
  if (up) return;  // Rejoin: durable files are exactly what recovery reads.
  if (host >= queues_.size() || queues_[host].empty()) return;
  if (head_timer_[host] != kInvalidTask) {
    net_.scheduler().cancel(head_timer_[host]);
    head_timer_[host] = kInvalidTask;
  }
  std::deque<Op> pending = std::move(queues_[host]);
  queues_[host].clear();
  stats_.crashed_ops += pending.size();
  bool head = true;
  for (const Op& op : pending) {
    if (head && !op.data.empty()) {
      // Only the head op was mid-flush; a seeded draw decides how much
      // of it reached the platter.  Its Done callback never runs — the
      // application cannot distinguish ghost from lost, which is
      // exactly the ambiguity recovery replay must absorb.
      const double u = rng_.uniform();
      if (u < params_.torn_write_prob && op.data.size() > 1) {
        // A torn write lands a *strict* prefix — landing completely
        // would be a ghost, and a 1-byte op can only ghost or vanish
        // (it falls through to the ghost draw below).
        ++stats_.torn_ops;
        apply(op, 1 + rng_.below(op.data.size() - 1));
      } else if (u < params_.torn_write_prob + params_.ghost_write_prob) {
        ++stats_.ghost_ops;
        apply(op, op.data.size());
      } else {
        ++stats_.lost_ops;
      }
    } else {
      ++stats_.lost_ops;
    }
    head = false;
  }
}

namespace {
constexpr std::uint32_t kCheckpointMagic = 0x434B5054;  // "TPKC"

std::uint64_t file_checksum(std::span<const std::uint8_t> data) {
  return fnv1a(std::string_view(reinterpret_cast<const char*>(data.data()), data.size()));
}
}  // namespace

void checkpoint_write(DurableDisk& disk, HostId host, const std::string& base,
                      std::uint64_t seq, Bytes payload, DurableDisk::Done done) {
  BufWriter w;
  w.u32(kCheckpointMagic);
  w.u64(seq);
  w.bytes(payload);
  w.u64(file_checksum(w.data()));
  const std::string file = base + (seq % 2 == 1 ? ".a" : ".b");
  disk.write(host, file, std::move(w).take(), std::move(done));
}

CheckpointRead checkpoint_read(const DurableDisk& disk, HostId host,
                               const std::string& base) {
  CheckpointRead out;
  for (const char* suffix : {".a", ".b"}) {
    const Bytes* data = disk.read(host, base + suffix);
    if (data == nullptr) continue;
    out.bytes_scanned += data->size();
    if (data->size() < 24) {
      ++out.corrupt_files;
      continue;
    }
    const std::span<const std::uint8_t> body(data->data(), data->size() - 8);
    BufReader tail(std::span<const std::uint8_t>(data->data() + data->size() - 8, 8));
    if (tail.u64() != file_checksum(body)) {
      ++out.corrupt_files;  // the torn half of the pair
      continue;
    }
    BufReader r(body);
    if (r.u32() != kCheckpointMagic) {
      ++out.corrupt_files;
      continue;
    }
    const std::uint64_t seq = r.u64();
    Bytes payload = r.bytes();
    if (r.failed()) {
      ++out.corrupt_files;
      continue;
    }
    if (!out.ok || seq > out.seq) {
      out.ok = true;
      out.seq = seq;
      out.payload = std::move(payload);
    }
  }
  return out;
}

}  // namespace aa::sim
