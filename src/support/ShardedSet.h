//===- support/ShardedSet.h - Sharded concurrent key set ---------*- C++ -*-===//
///
/// \file
/// A concurrent set of byte-string keys for the parallel exploration
/// engine's program-state collection (ParExploreOptions::
/// CollectProgramStates): workers insert the program-state projection of
/// each new state, and the engine drains the set after the join. The set
/// is split into a fixed 2^8 shards, each an independently locked hash
/// set; the shard of a key is chosen by the *high* bits of its 64-bit
/// FNV-1a hash so that shard selection and the per-shard bucket index
/// (which libstdc++ derives from the low bits) stay decorrelated.
///
/// The exact visited set itself is support/LockFreeVisited.h; this set
/// sees one insert per new state only when projections are requested, so
/// an uncontended mutex per shard is enough.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_SUPPORT_SHARDEDSET_H
#define ROCKER_SUPPORT_SHARDEDSET_H

#include "support/Hashing.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

namespace rocker {

/// A concurrent set of byte-string keys with striped locking.
class ShardedStateSet {
public:
  /// Inserts \p Key if absent; returns true iff the key was new. The key
  /// is consumed only on successful insertion.
  bool insert(std::string &&Key) {
    Shard &Sh = shardFor(Key);
    std::lock_guard<std::mutex> L(Sh.M);
    if (!Sh.Set.insert(std::move(Key)).second)
      return false;
    Count.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// True iff \p Key is present (no insertion).
  bool contains(const std::string &Key) {
    Shard &Sh = shardFor(Key);
    std::lock_guard<std::mutex> L(Sh.M);
    return Sh.Set.count(Key) != 0;
  }

  /// Exact element count. Safe to call concurrently (relaxed read: exact
  /// once all inserters have quiesced, e.g. after the worker join).
  uint64_t size() const { return Count.load(std::memory_order_relaxed); }

  /// Moves all keys into \p Out and empties the set. Not thread-safe
  /// against concurrent inserts; call after workers have joined.
  template <typename SetT> void drainInto(SetT &Out) {
    for (unsigned I = 0; I != NumShards; ++I) {
      Shard &Sh = Shards[I];
      std::lock_guard<std::mutex> L(Sh.M);
      for (auto It = Sh.Set.begin(); It != Sh.Set.end();)
        Out.insert(std::move(Sh.Set.extract(It++).value()));
    }
    Count.store(0, std::memory_order_relaxed);
  }

private:
  static constexpr unsigned NumShards = 256;

  /// Cache-line-sized shard so neighboring locks do not false-share.
  struct alignas(64) Shard {
    std::mutex M;
    std::unordered_set<std::string, StateKeyHash> Set;
  };

  Shard &shardFor(const std::string &Key) {
    uint64_t H = hashBytes(reinterpret_cast<const uint8_t *>(Key.data()),
                           Key.size());
    return Shards[(H >> 48) & (NumShards - 1)];
  }

  std::unique_ptr<Shard[]> Shards = std::make_unique<Shard[]>(NumShards);
  std::atomic<uint64_t> Count{0};
};

} // namespace rocker

#endif // ROCKER_SUPPORT_SHARDEDSET_H
