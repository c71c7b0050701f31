// Crash-durability suite: the DurableDisk I/O model, the ping-pong
// checkpoint format, the store journal's WAL replay, a seeded torn-write
// fuzz loop, and the disk cost of the object store's healing sweeps.
//
// The fuzz loop is the load-bearing test: it crashes a journalled node
// mid-flush at a random point under every (workload, disk) seed pair
// and asserts the recovered state is *prefix-consistent* — exactly the
// state after some prefix of the mutation history, and that prefix
// contains at least every mutation whose disk op was durably acked.
// Torn tails, ghost writes and lost ops are all allowed to move the cut
// point; they are never allowed to produce a state that no prefix of
// the history ever had.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "overlay/overlay_network.hpp"
#include "sim/durable_disk.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/topology.hpp"
#include "storage/durability.hpp"
#include "storage/object_store.hpp"
#include "storage/store_node.hpp"

namespace aa {
namespace {

using sim::CheckpointRead;
using sim::DiskParams;
using sim::DurableDisk;
using storage::Fragment;
using storage::StoreJournal;
using storage::StoreNode;
using storage::StoreTier;

struct DiskFixture {
  sim::Scheduler sched;
  std::shared_ptr<sim::UniformTopology> topo =
      std::make_shared<sim::UniformTopology>(4, 1000);
  sim::Network net{sched, topo};
};

Bytes blob(std::size_t n, std::uint8_t fill) { return Bytes(n, fill); }

// --- DurableDisk I/O model ---

TEST(DurableDisk, WriteBecomesDurableAfterFsync) {
  DiskFixture f;
  DurableDisk disk(f.net);
  bool durable = false;
  disk.write(0, "a", blob(1000, 1), [&](bool ok) { durable = ok; });
  EXPECT_EQ(disk.in_flight(0), 1u);
  EXPECT_FALSE(durable);  // async: nothing durable before the fsync
  f.sched.run();
  EXPECT_TRUE(durable);
  ASSERT_NE(disk.read(0, "a"), nullptr);
  EXPECT_EQ(*disk.read(0, "a"), blob(1000, 1));
  EXPECT_EQ(disk.in_flight(0), 0u);
  // Completion charged fsync + bytes/throughput of virtual time.
  EXPECT_GE(f.sched.now(), disk.params().fsync_latency);
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().bytes_written, 1000u);
}

TEST(DurableDisk, OpsOnOneHostCompleteInFifoOrder) {
  DiskFixture f;
  DurableDisk disk(f.net);
  std::vector<int> order;
  disk.write(0, "a", blob(10, 1), [&](bool) { order.push_back(1); });
  disk.write(0, "b", blob(10, 2), [&](bool) { order.push_back(2); });
  disk.append(0, "log", blob(10, 3), [&](bool) { order.push_back(3); });
  f.sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(DurableDisk, WriteToDownHostFailsImmediately) {
  DiskFixture f;
  DurableDisk disk(f.net);
  f.net.set_host_up(1, false);
  bool called = false, result = true;
  disk.write(1, "a", blob(10, 1), [&](bool ok) {
    called = true;
    result = ok;
  });
  f.sched.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(result);
  EXPECT_FALSE(disk.exists(1, "a"));
}

TEST(DurableDisk, CrashTearsHeadOpAndLosesTheQueue) {
  DiskFixture f;
  DiskParams p;
  p.torn_write_prob = 1.0;  // head op always lands a torn prefix
  p.ghost_write_prob = 0.0;
  DurableDisk disk(f.net, p);
  bool head_done = false, tail_done = false;
  const Bytes data = blob(4000, 7);
  disk.write(0, "a", data, [&](bool) { head_done = true; });
  disk.write(0, "b", blob(100, 8), [&](bool) { tail_done = true; });
  f.net.set_host_up(0, false);  // crash with both ops in flight
  f.sched.run();
  // No completion callback of a crashed op ever fires.
  EXPECT_FALSE(head_done);
  EXPECT_FALSE(tail_done);
  // Head: a non-empty *strict* prefix reached the platter (a complete
  // landing would be a ghost write, not a torn one).
  ASSERT_NE(disk.read(0, "a"), nullptr);
  const Bytes& torn = *disk.read(0, "a");
  ASSERT_FALSE(torn.empty());
  ASSERT_LT(torn.size(), data.size());
  EXPECT_TRUE(std::equal(torn.begin(), torn.end(), data.begin()));
  // Queued op behind the head vanished outright.
  EXPECT_FALSE(disk.exists(0, "b"));
  EXPECT_EQ(disk.stats().crashed_ops, 2u);
  EXPECT_EQ(disk.stats().torn_ops, 1u);
  EXPECT_EQ(disk.stats().lost_ops, 1u);
  // The file survives the host's downtime: it is still there after the
  // host rejoins as a new incarnation.
  f.net.set_host_up(0, true);
  EXPECT_TRUE(disk.exists(0, "a"));
}

TEST(DurableDisk, GhostWriteLandsFullyButUnacked) {
  DiskFixture f;
  DiskParams p;
  p.torn_write_prob = 0.0;
  p.ghost_write_prob = 1.0;
  DurableDisk disk(f.net, p);
  bool done = false;
  disk.write(0, "a", blob(500, 9), [&](bool) { done = true; });
  f.net.set_host_up(0, false);
  f.sched.run();
  EXPECT_FALSE(done);  // the ack raced the crash and lost
  ASSERT_NE(disk.read(0, "a"), nullptr);
  EXPECT_EQ(*disk.read(0, "a"), blob(500, 9));  // ...but the data landed
  EXPECT_EQ(disk.stats().ghost_ops, 1u);
}

TEST(DurableDisk, LostWriteLeavesNoTrace) {
  DiskFixture f;
  DiskParams p;
  p.torn_write_prob = 0.0;
  p.ghost_write_prob = 0.0;  // remainder: always lost
  DurableDisk disk(f.net, p);
  disk.write(0, "a", blob(500, 9));
  f.net.set_host_up(0, false);
  f.sched.run();
  EXPECT_FALSE(disk.exists(0, "a"));
  EXPECT_EQ(disk.stats().lost_ops, 1u);
}

TEST(DurableDisk, CrashTearsAppendTailOnly) {
  DiskFixture f;
  DiskParams p;
  p.torn_write_prob = 1.0;
  p.ghost_write_prob = 0.0;
  DurableDisk disk(f.net, p);
  disk.append(0, "log", blob(100, 1));
  f.sched.run();  // first record durable
  disk.append(0, "log", blob(100, 2));
  f.net.set_host_up(0, false);  // crash mid-append
  f.sched.run();
  ASSERT_NE(disk.read(0, "log"), nullptr);
  const Bytes& log = *disk.read(0, "log");
  // The durable first record is intact; the second is a torn tail —
  // strictly shorter than the full record.
  ASSERT_GT(log.size(), 100u);
  ASSERT_LT(log.size(), 200u);
  EXPECT_TRUE(std::all_of(log.begin(), log.begin() + 100,
                          [](std::uint8_t b) { return b == 1; }));
  EXPECT_TRUE(std::all_of(log.begin() + 100, log.end(),
                          [](std::uint8_t b) { return b == 2; }));
}

TEST(DurableDisk, OneByteOpCannotTearItGhostsInstead) {
  // A torn write is a strict prefix; a 1-byte op has none, so the torn
  // draw reclassifies as a ghost (landed fully, never acked).
  DiskFixture f;
  DiskParams p;
  p.torn_write_prob = 1.0;
  p.ghost_write_prob = 0.0;
  DurableDisk disk(f.net, p);
  disk.write(0, "a", blob(1, 5));
  f.net.set_host_up(0, false);
  f.sched.run();
  EXPECT_EQ(disk.stats().torn_ops, 0u);
  EXPECT_EQ(disk.stats().ghost_ops, 1u);
  ASSERT_NE(disk.read(0, "a"), nullptr);
  EXPECT_EQ(*disk.read(0, "a"), blob(1, 5));
}

TEST(DurableDisk, CrashOutcomesAreDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    DiskFixture f;
    DiskParams p;
    p.seed = seed;
    DurableDisk disk(f.net, p);
    for (int i = 0; i < 6; ++i) {
      disk.append(0, "log", blob(64, static_cast<std::uint8_t>(i)));
    }
    f.sched.run_until(1200);  // some ops durable, some in flight
    f.net.set_host_up(0, false);
    f.sched.run();
    const Bytes* log = disk.read(0, "log");
    return log == nullptr ? Bytes{} : *log;
  };
  EXPECT_EQ(run(42), run(42));
}

// --- Ping-pong checkpoints ---

TEST(Checkpoint, WriteReadRoundTrip) {
  DiskFixture f;
  DurableDisk disk(f.net);
  sim::checkpoint_write(disk, 0, "ckpt", 1, blob(300, 5));
  f.sched.run();
  const CheckpointRead got = sim::checkpoint_read(disk, 0, "ckpt");
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.seq, 1u);
  EXPECT_EQ(got.payload, blob(300, 5));
  EXPECT_EQ(got.corrupt_files, 0u);
}

TEST(Checkpoint, HighestValidSequenceWins) {
  DiskFixture f;
  DurableDisk disk(f.net);
  sim::checkpoint_write(disk, 0, "ckpt", 1, blob(10, 1));
  sim::checkpoint_write(disk, 0, "ckpt", 2, blob(10, 2));
  f.sched.run();
  const CheckpointRead got = sim::checkpoint_read(disk, 0, "ckpt");
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.seq, 2u);
  EXPECT_EQ(got.payload, blob(10, 2));
}

TEST(Checkpoint, TornOverwriteKeepsPreviousCheckpoint) {
  // The reason the format ping-pongs at all: checkpoint 3 tears
  // mid-flush, and recovery must still find checkpoint 2 intact in the
  // other half of the pair.
  DiskFixture f;
  DiskParams p;
  p.torn_write_prob = 1.0;
  p.ghost_write_prob = 0.0;
  DurableDisk disk(f.net, p);
  sim::checkpoint_write(disk, 0, "ckpt", 2, blob(200, 2));
  f.sched.run();
  sim::checkpoint_write(disk, 0, "ckpt", 3, blob(200, 3));
  f.net.set_host_up(0, false);  // crash mid-overwrite
  f.sched.run();
  const CheckpointRead got = sim::checkpoint_read(disk, 0, "ckpt");
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.seq, 2u);
  EXPECT_EQ(got.payload, blob(200, 2));
  EXPECT_EQ(got.corrupt_files, 1u);  // the torn half failed validation
}

TEST(Checkpoint, MissingFilesReportNotOk) {
  DiskFixture f;
  DurableDisk disk(f.net);
  const CheckpointRead got = sim::checkpoint_read(disk, 0, "ckpt");
  EXPECT_FALSE(got.ok);
}

// --- StoreJournal: tiers, WAL replay, recovery ---

ObjectId oid(int i) { return Uid160::from_name("obj-" + std::to_string(i)); }

std::map<ObjectId, Bytes> replica_map(const StoreNode& node) {
  std::map<ObjectId, Bytes> out;
  for (const ObjectId& id : node.replica_ids()) out[id] = *node.replica(id);
  return out;
}

TEST(StoreJournal, PersistentTierRecoversCheckpointedState) {
  DiskFixture f;
  DurableDisk disk(f.net);
  StoreNode node(1 << 20);
  StoreJournal journal(disk, 0, StoreTier::kPersistent, 64);
  journal.bind(&node);
  node.set_journal(&journal);
  node.store_replica(oid(1), blob(100, 1));
  node.store_replica(oid(2), blob(100, 2));
  node.drop_replica(oid(1));
  f.sched.run();
  const auto expected = replica_map(node);

  const auto result = journal.recover(node);
  EXPECT_TRUE(result.checkpoint_ok);
  EXPECT_EQ(result.records_replayed, 0u);  // checkpoint-on-write: no WAL
  EXPECT_EQ(replica_map(node), expected);
  EXPECT_GT(result.modeled_latency, 0);
  EXPECT_GT(journal.stats().write_amplification(), 1.0);
}

TEST(StoreJournal, LoggedTierReplaysWalWithoutCheckpoint) {
  DiskFixture f;
  DurableDisk disk(f.net);
  StoreNode node(1 << 20);
  StoreJournal journal(disk, 0, StoreTier::kLogged, 1000);  // never checkpoints
  journal.bind(&node);
  node.set_journal(&journal);
  node.store_replica(oid(1), blob(100, 1));
  node.store_replica(oid(2), blob(100, 2));
  node.drop_replica(oid(1));
  Fragment frag;
  frag.index = 3;
  frag.data = blob(50, 9);
  node.store_fragment(oid(4), std::move(frag));
  f.sched.run();
  const auto expected = replica_map(node);

  const auto result = journal.recover(node);
  EXPECT_FALSE(result.checkpoint_ok);
  EXPECT_EQ(result.records_replayed, 4u);
  EXPECT_EQ(result.torn_discarded, 0u);
  EXPECT_EQ(replica_map(node), expected);
  const Fragment* rf = node.fragment(oid(4));
  ASSERT_NE(rf, nullptr);
  EXPECT_EQ(rf->index, 3);
  EXPECT_EQ(rf->data, blob(50, 9));
}

TEST(StoreJournal, ReplayTruncatesTornTailRecord) {
  DiskFixture f;
  DiskParams p;
  p.torn_write_prob = 1.0;
  p.ghost_write_prob = 0.0;
  DurableDisk disk(f.net, p);
  StoreNode node(1 << 20);
  StoreJournal journal(disk, 0, StoreTier::kLogged, 1000);
  journal.bind(&node);
  node.set_journal(&journal);
  node.store_replica(oid(1), blob(400, 1));
  node.store_replica(oid(2), blob(400, 2));
  f.sched.run();  // both records durable
  node.store_replica(oid(3), blob(400, 3));
  f.net.set_host_up(0, false);  // crash mid-append: record 3 tears
  f.sched.run();
  f.net.set_host_up(0, true);

  const auto result = journal.recover(node);
  EXPECT_EQ(result.records_replayed, 2u);
  EXPECT_EQ(result.torn_discarded, 1u);
  EXPECT_NE(node.replica(oid(1)), nullptr);
  EXPECT_NE(node.replica(oid(2)), nullptr);
  EXPECT_EQ(node.replica(oid(3)), nullptr);  // torn tail truncated
}

TEST(StoreJournal, CheckpointRetiresCoveredWalEpochs) {
  DiskFixture f;
  DurableDisk disk(f.net);
  StoreNode node(1 << 20);
  StoreJournal journal(disk, 0, StoreTier::kLogged, 3);  // checkpoint every 3
  journal.bind(&node);
  node.set_journal(&journal);
  for (int i = 0; i < 7; ++i) node.store_replica(oid(i), blob(80, static_cast<std::uint8_t>(i)));
  f.sched.run();
  const auto expected = replica_map(node);
  // Epochs covered by the durable checkpoints were deleted.
  std::size_t wal_files = 0;
  for (const std::string& file : disk.files(0)) {
    if (file.starts_with("store.wal.")) ++wal_files;
  }
  EXPECT_LE(wal_files, 1u);

  const auto result = journal.recover(node);
  EXPECT_TRUE(result.checkpoint_ok);
  EXPECT_EQ(replica_map(node), expected);
  // Journalling continues after recovery: a fresh mutation reaches disk
  // and survives a second recovery.
  node.store_replica(oid(100), blob(80, 42));
  f.sched.run();
  journal.recover(node);
  EXPECT_NE(node.replica(oid(100)), nullptr);
}

// Mints a standalone WAL segment on a scratch host: runs `mutate`
// against a throwaway journal whose epoch was advanced to 1 so the
// records land in a fresh segment, and returns that segment's bytes.
Bytes mint_wal_segment(DiskFixture& f, DurableDisk& disk, sim::HostId scratch_host,
                       const std::function<void(StoreNode&)>& mutate) {
  StoreNode scratch(1 << 20);
  StoreJournal mint(disk, scratch_host, StoreTier::kLogged, 1000);
  mint.bind(&scratch);
  scratch.set_journal(&mint);
  mint.checkpoint_now();  // epoch -> 1: the segment under mint is wal.1
  f.sched.run();
  mutate(scratch);
  f.sched.run();
  const Bytes* segment = disk.read(scratch_host, "store.wal.1");
  return segment != nullptr ? *segment : Bytes{};
}

TEST(StoreJournal, RecoveryResumesPastStalePreCrashWalEpochs) {
  // A checkpoint initiated-but-not-durable before a crash leaves a WAL
  // segment whose epoch is above the recovered checkpoint seq.
  // Recovery must resume sequence numbering past it: if it reused those
  // numbers, the stale segment would outlive the next checkpoint's
  // cleanup and a *second* recovery would replay the pre-crash records
  // on top of newer durable state.
  DiskFixture f;
  DurableDisk disk(f.net);
  const Bytes drop_x = mint_wal_segment(f, disk, 0, [](StoreNode& n) {
    n.store_replica(oid(1), blob(50, 1));  // drop of a missing id is a no-op
    n.drop_replica(oid(1));
  });
  ASSERT_FALSE(drop_x.empty());

  // Host 1's crashed state: checkpoint seq 1 durable with X present,
  // plus the epoch-2 segment of a checkpoint seq 2 that never landed,
  // holding `drop X`.
  StoreNode node(1 << 20);
  StoreJournal journal(disk, 1, StoreTier::kLogged, 1000);
  journal.bind(&node);
  node.set_journal(&journal);
  node.store_replica(oid(1), blob(50, 1));
  journal.checkpoint_now();
  f.sched.run();
  disk.write(1, "store.wal.2", drop_x);
  f.sched.run();

  // First recovery replays the stale segment once: X is dropped.
  journal.recover(node);
  EXPECT_EQ(node.replica(oid(1)), nullptr);

  // Post-recovery life re-puts X and checkpoints it durably...
  node.store_replica(oid(1), blob(50, 9));
  journal.checkpoint_now();
  f.sched.run();

  // ...so a second recovery must never replay the stale `drop X` over
  // the newer checkpoint.
  journal.recover(node);
  ASSERT_NE(node.replica(oid(1)), nullptr);
  EXPECT_EQ(*node.replica(oid(1)), blob(50, 9));
}

TEST(StoreJournal, TornTailRemovesUntrustedLaterEpochs) {
  // Epochs after a torn tail are skipped by replay; they must also be
  // removed from disk, or the next recovery (tail truncated by this
  // one) would replay records this recovery discarded.
  DiskFixture f;
  DurableDisk disk(f.net);
  const Bytes put_x = mint_wal_segment(
      f, disk, 0, [](StoreNode& n) { n.store_replica(oid(1), blob(60, 1)); });
  const Bytes put_y = mint_wal_segment(
      f, disk, 3, [](StoreNode& n) { n.store_replica(oid(2), blob(60, 2)); });
  ASSERT_FALSE(put_x.empty());
  ASSERT_FALSE(put_y.empty());

  disk.write(2, "store.wal.0", Bytes(put_x.begin(), put_x.end() - 1));  // torn
  disk.write(2, "store.wal.1", put_y);
  f.sched.run();

  StoreNode node(1 << 20);
  StoreJournal journal(disk, 2, StoreTier::kLogged, 1000);
  journal.bind(&node);
  node.set_journal(&journal);
  const auto result = journal.recover(node);
  EXPECT_EQ(result.records_replayed, 0u);
  EXPECT_EQ(result.torn_discarded, 1u);
  EXPECT_EQ(node.replica(oid(2)), nullptr);
  EXPECT_FALSE(disk.exists(2, "store.wal.1"));

  // Idempotent: a second recovery cannot resurrect the discarded put.
  journal.recover(node);
  EXPECT_EQ(node.replica(oid(2)), nullptr);
}

TEST(StoreJournal, LoggedAmplifiesLessThanPersistent) {
  // The taxonomy's reason to exist: same workload, an order-of-magnitude
  // gap in physical bytes per logical byte.
  auto amplification = [](StoreTier tier) {
    DiskFixture f;
    DurableDisk disk(f.net);
    StoreNode node(1 << 20);
    StoreJournal journal(disk, 0, tier, 64);
    journal.bind(&node);
    node.set_journal(&journal);
    for (int i = 0; i < 40; ++i) {
      node.store_replica(oid(i), blob(200, static_cast<std::uint8_t>(i)));
    }
    f.sched.run();
    return journal.stats().write_amplification();
  };
  const double logged = amplification(StoreTier::kLogged);
  const double persistent = amplification(StoreTier::kPersistent);
  EXPECT_GT(logged, 0.0);
  EXPECT_GT(persistent, 5.0 * logged);
}

// --- Healing sweeps in the durable tiers ---

/// What six fault-free healing sweeps over 16 hosts and 40 placed
/// objects (three copies each) write to disk: a sweep that finds every
/// replica in place must journal nothing.
struct SweepWrites {
  std::uint64_t wal_appends = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t disk_bytes = 0;
};

SweepWrites healing_sweep_writes(StoreTier tier) {
  sim::Scheduler sched;
  sim::Network net(sched, std::make_shared<sim::UniformTopology>(16, duration::millis(10)));
  overlay::OverlayNetwork::Params op;
  op.maintenance_period = 0;
  overlay::OverlayNetwork overlay(net, op);
  std::vector<sim::HostId> hosts;
  for (sim::HostId h = 0; h < 16; ++h) hosts.push_back(h);
  overlay.build_ring(hosts);
  DurableDisk disk(net);

  storage::ObjectStore::Params p;
  p.replicas = 3;
  p.healing_period = duration::seconds(5);
  p.tier = tier;
  p.checkpoint_every = 8;
  p.disk = &disk;
  storage::ObjectStore store(net, overlay, p);
  for (int i = 0; i < 40; ++i) {
    store.put(static_cast<sim::HostId>(i % 16),
              blob(200 + static_cast<std::size_t>(i), static_cast<std::uint8_t>(i)));
  }
  sched.run_for(duration::seconds(2));  // placed and durable before the first sweep
  const storage::DurabilityStats placed = store.durability_stats();
  const std::uint64_t placed_bytes = disk.stats().bytes_written;
  EXPECT_GT(placed.wal_appends + placed.checkpoints, 0u);

  sched.run_for(duration::seconds(30));  // six sweeps, one every 5 s
  const storage::DurabilityStats swept = store.durability_stats();
  EXPECT_EQ(store.stats().heal_pushes, 0u);
  return {swept.wal_appends - placed.wal_appends, swept.checkpoints - placed.checkpoints,
          disk.stats().bytes_written - placed_bytes};
}

TEST(HealingSweep, FaultFreeSweepsWriteNothingInDurableTiers) {
  for (const StoreTier tier : {StoreTier::kPersistent, StoreTier::kLogged}) {
    SCOPED_TRACE(storage::tier_name(tier));
    const SweepWrites writes = healing_sweep_writes(tier);
    EXPECT_EQ(writes.wal_appends, 0u);
    EXPECT_EQ(writes.checkpoints, 0u);
    EXPECT_EQ(writes.disk_bytes, 0u);
  }
}

// --- Seeded torn-write fuzz loop ---

// One fuzz round: N mutations spread over virtual time, a crash at a
// random instant with ops in flight, then recovery.  Returns via
// gtest assertions; `workload_seed` drives the mutation mix and crash
// time, `disk_seed` drives the torn/ghost/lost draws.
void fuzz_round(StoreTier tier, std::uint64_t workload_seed, std::uint64_t disk_seed) {
  SCOPED_TRACE("tier=" + std::string(storage::tier_name(tier)) +
               " workload_seed=" + std::to_string(workload_seed) +
               " disk_seed=" + std::to_string(disk_seed));
  DiskFixture f;
  DiskParams dp;
  dp.seed = disk_seed;
  DurableDisk disk(f.net, dp);
  StoreNode node(1 << 20);
  StoreJournal journal(disk, 0, tier, 5);  // checkpoints interleave with WAL
  journal.bind(&node);
  node.set_journal(&journal);

  Rng rng(workload_seed);
  // Reference history: snapshots[i] is the expected replica map after
  // the first i mutations.
  std::vector<std::map<ObjectId, Bytes>> snapshots{{}};
  constexpr int kMutations = 30;
  std::vector<ObjectId> live;
  for (int i = 0; i < kMutations; ++i) {
    auto next = snapshots.back();
    const bool drop = !live.empty() && rng.chance(0.25);
    if (drop) {
      const ObjectId victim = live[rng.below(live.size())];
      next.erase(victim);
      live.erase(std::find(live.begin(), live.end(), victim));
      f.sched.after(200 * (i + 1), [&node, victim] { node.drop_replica(victim); });
    } else {
      const ObjectId id = oid(static_cast<int>(workload_seed * 1000) + i);
      const Bytes data = blob(50 + rng.below(300), static_cast<std::uint8_t>(i));
      next[id] = data;
      live.push_back(id);
      f.sched.after(200 * (i + 1), [&node, id, data] { node.store_replica(id, data); });
    }
    snapshots.push_back(std::move(next));
  }
  // Crash somewhere inside the mutation window: the 200 us issue rate
  // against the ~500 us fsync keeps the disk queue non-empty.
  const SimTime crash_at = 500 + static_cast<SimTime>(rng.below(200 * kMutations));
  f.sched.after(crash_at, [&f] { f.net.set_host_up(0, false); });
  f.sched.run();
  f.net.set_host_up(0, true);

  // Durable lower bound: per-host FIFO means N durable ops imply the
  // first N mutations' journal ops all completed.
  const std::uint64_t durable_ops =
      tier == StoreTier::kPersistent ? disk.stats().writes : disk.stats().appends;

  journal.recover(node);
  const auto recovered = replica_map(node);
  bool prefix_found = false;
  for (std::size_t k = durable_ops; k < snapshots.size(); ++k) {
    if (snapshots[k] == recovered) {
      prefix_found = true;
      break;
    }
  }
  EXPECT_TRUE(prefix_found)
      << "recovered state matches no prefix >= the " << durable_ops
      << " durably acked mutations (" << recovered.size() << " replicas recovered)";
}

TEST(DurabilityFuzz, TornWriteRecoveryIsPrefixConsistent) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    fuzz_round(StoreTier::kLogged, seed, seed * 31);
    fuzz_round(StoreTier::kPersistent, seed, seed * 31);
  }
}

TEST(DurabilityFuzz, RepeatedCrashRecoverCyclesStayConsistent) {
  // Crash the same node three times in one life, recovering between
  // crashes: recovery must be idempotent over its own output (replayed
  // mutations are not re-journalled, epochs resume correctly).
  DiskFixture f;
  DiskParams dp;
  dp.seed = 99;
  DurableDisk disk(f.net, dp);
  StoreNode node(1 << 20);
  StoreJournal journal(disk, 0, StoreTier::kLogged, 4);
  journal.bind(&node);
  node.set_journal(&journal);

  std::map<ObjectId, Bytes> durable_floor;  // mutations known acked
  int next_obj = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    // A batch that fully settles (durable), then a batch in flight.
    for (int i = 0; i < 4; ++i) {
      const ObjectId id = oid(next_obj++);
      node.store_replica(id, blob(120, static_cast<std::uint8_t>(cycle)));
      durable_floor[id] = blob(120, static_cast<std::uint8_t>(cycle));
    }
    f.sched.run();
    for (int i = 0; i < 3; ++i) {
      node.store_replica(oid(next_obj++), blob(120, 200));
    }
    f.net.set_host_up(0, false);  // crash with the second batch in flight
    f.sched.run();
    f.net.set_host_up(0, true);
    journal.recover(node);
    const auto recovered = replica_map(node);
    // Everything acked before the crash is present with correct bytes.
    for (const auto& [id, data] : durable_floor) {
      auto it = recovered.find(id);
      ASSERT_NE(it, recovered.end()) << "cycle " << cycle;
      EXPECT_EQ(it->second, data) << "cycle " << cycle;
    }
    // The in-flight batch may be partially recovered; fold whatever
    // survived into the floor for the next cycle (it is durable now —
    // recovery itself re-checkpoints nothing, but the journal resumes
    // from the recovered horizon, so surviving state persists).
    durable_floor = recovered;
  }
  EXPECT_GE(journal.stats().recoveries, 3u);
}

}  // namespace
}  // namespace aa
