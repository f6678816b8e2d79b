// LRU checkpoint cache for the serving layer (DESIGN.md §12).
//
// Cluster and general-model engines are materialized on first use from
// serialized checkpoint blobs and kept under a byte budget, evicting the
// least-recently-used entry first. Entries are handed out as shared_ptrs so
// an in-flight batch keeps its engine alive even if the entry is evicted
// under it; eviction only drops the cache's reference.
//
// Degradation: a cluster whose blob is missing or fails its checkpoint CRC
// silently at this layer would be a correctness bug — instead the cache
// degrades it to the general fallback blob (recorded as a fallback entry and
// counted in stats) or throws an addressed error when no fallback exists.
//
// Calibration: an int8 engine's activation scales are a pure function of its
// base weights and the server's calibration maps, both fixed for the
// cache's life. So the cache keeps the scales of every int8 key it has built
// from that key's own blob, across evictions, and hands them to the builder
// on a rebuild instead of letting it calibrate again. A fallback build is
// never recorded: its scales belong to the general blob, not the key's own.
//
// The loaders and engine builder are injected as std::functions, so tests
// can exercise eviction order, byte accounting, and corrupt-blob fallback
// without training a model.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/batcher.hpp"

namespace clear::serve {

struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t fallbacks = 0;     ///< Entries built from the general blob.
  std::size_t bytes_in_use = 0;  ///< Sum of resident entries' engine bytes.
};

class CheckpointCache {
 public:
  /// Serialized checkpoint bytes for cluster k ("" = missing).
  using BlobLoader = std::function<std::string(std::size_t cluster)>;
  /// Serialized general-model bytes ("" = no fallback shipped).
  using GeneralLoader = std::function<std::string()>;
  /// Activation scales of an int8 engine (EdgeEngine::activation_params()).
  using Scales = std::vector<edge::QuantParams>;
  /// Build an inference engine from checkpoint bytes at a precision. Must
  /// throw clear::Error on corrupt bytes (the checkpoint CRC does this).
  /// Non-null `scales` were calibrated by an earlier build of the same blob
  /// at the same precision: install them instead of calibrating.
  using EngineBuilder = std::function<std::unique_ptr<edge::EdgeEngine>(
      const std::string& blob, edge::Precision precision,
      const Scales* scales)>;

  struct Entry {
    BatchKey key;
    std::unique_ptr<edge::EdgeEngine> engine;
    /// Resident engine bytes (EdgeEngine::resident_bytes()) — the unit of
    /// budget accounting. Deliberately NOT the on-disk blob size: a
    /// delta-stored checkpoint is tiny on disk but full-size in memory.
    std::size_t bytes = 0;
    bool fallback = false;  ///< Built from the general blob, not its own.
  };

  CheckpointCache(BlobLoader cluster_blob, GeneralLoader general_blob,
                  EngineBuilder builder, std::size_t budget_bytes);

  /// Resident entry for `key` (kGeneral or kCluster only — personal engines
  /// are session-owned), loading and possibly evicting on miss. Throws
  /// clear::Error when the key cannot be materialized at all.
  std::shared_ptr<Entry> acquire(const BatchKey& key);

  const CacheStats& stats() const { return stats_; }
  std::size_t budget_bytes() const { return budget_; }
  std::size_t size() const { return entries_.size(); }

  /// Resident keys from least- to most-recently used (tests/diagnostics).
  std::vector<BatchKey> resident_lru() const;

 private:
  /// Build `key`'s engine from its own blob, reusing or recording its
  /// int8 activation scales.
  std::unique_ptr<edge::EdgeEngine> build_own(const BatchKey& key,
                                              const std::string& blob);
  void touch(std::list<BatchKey>::iterator it);
  void evict_over_budget(const BatchKey& keep);

  BlobLoader cluster_blob_;
  GeneralLoader general_blob_;
  EngineBuilder builder_;
  std::size_t budget_;

  // lru_ front = least recently used, back = most recently used.
  std::list<BatchKey> lru_;
  struct Resident {
    std::shared_ptr<Entry> entry;
    std::list<BatchKey>::iterator lru_it;
  };
  std::map<BatchKey, Resident> entries_;
  /// Scales of int8 keys built from their own blob, kept across evictions.
  /// Outside the byte budget: one QuantParams per model stage per key.
  std::map<BatchKey, Scales> scales_;
  CacheStats stats_;
};

}  // namespace clear::serve
