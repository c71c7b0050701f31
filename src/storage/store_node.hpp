// Per-host storage state: authoritative replicas / erasure fragments
// plus a promiscuous cache.
//
// §5: deployed computations "provide storage capacity for the storage
// architecture (storelets)".  A StoreNode is the storelet's state.  The
// promiscuous cache is a byte-bounded LRU: "data is free to be cached
// anywhere at any time.  This does not affect the correctness of the
// system ... and is crucial to the performance of the system" (§3).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "storage/erasure.hpp"

namespace aa::storage {

class StoreJournal;

struct StoreNodeStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
};

class StoreNode {
 public:
  explicit StoreNode(std::size_t cache_capacity_bytes)
      : cache_capacity_(cache_capacity_bytes) {}

  /// Journals every authoritative mutation (replicas and fragments —
  /// never the cache, which is volatile by design).  Nullptr for the
  /// volatile tier.
  void set_journal(StoreJournal* journal) { journal_ = journal; }

  /// Wipes all state (replicas, fragments, cache): what a crash does to
  /// the host's memory.  Recovery replay repopulates from disk.
  void clear_all();

  // --- Authoritative replicas ---
  void store_replica(const ObjectId& id, Bytes data);
  const Bytes* replica(const ObjectId& id) const;
  bool drop_replica(const ObjectId& id);
  std::vector<ObjectId> replica_ids() const;
  const std::map<ObjectId, Bytes>& replicas() const { return replicas_; }
  std::size_t replica_bytes() const { return replica_bytes_; }

  // --- Erasure fragments ---
  void store_fragment(const ObjectId& id, Fragment fragment);
  const Fragment* fragment(const ObjectId& id) const;
  bool drop_fragment(const ObjectId& id);
  std::vector<ObjectId> fragment_ids() const;

  // --- Promiscuous cache (LRU by bytes) ---
  void cache_put(const ObjectId& id, const Bytes& data);
  /// Refreshes recency on hit.
  const Bytes* cache_get(const ObjectId& id);
  std::size_t cache_bytes() const { return cache_bytes_; }

  const StoreNodeStats& stats() const { return stats_; }

 private:
  void evict_until_fits(std::size_t incoming);

  StoreJournal* journal_ = nullptr;
  std::map<ObjectId, Bytes> replicas_;
  std::map<ObjectId, Fragment> fragments_;
  std::size_t replica_bytes_ = 0;

  std::size_t cache_capacity_;
  std::size_t cache_bytes_ = 0;
  std::list<ObjectId> lru_;  // front = most recent
  struct CacheEntry {
    Bytes data;
    std::list<ObjectId>::iterator lru_pos;
  };
  std::map<ObjectId, CacheEntry> cache_;
  StoreNodeStats stats_;
};

}  // namespace aa::storage
