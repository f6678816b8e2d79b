#include "serve/cache.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/obs.hpp"

namespace clear::serve {

CheckpointCache::CheckpointCache(BlobLoader cluster_blob,
                                 GeneralLoader general_blob,
                                 EngineBuilder builder,
                                 std::size_t budget_bytes)
    : cluster_blob_(std::move(cluster_blob)),
      general_blob_(std::move(general_blob)),
      builder_(std::move(builder)),
      budget_(budget_bytes) {
  CLEAR_CHECK_MSG(cluster_blob_ && general_blob_ && builder_,
                  "CheckpointCache requires all three loader hooks");
  CLEAR_CHECK_MSG(budget_ >= 1, "cache budget must be positive");
}

std::shared_ptr<CheckpointCache::Entry> CheckpointCache::acquire(
    const BatchKey& key) {
  CLEAR_CHECK_MSG(key.kind != BatchKey::Kind::kPersonal,
                  "personal engines are session-owned, not cached");
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    CLEAR_OBS_COUNT("serve.cache.hits", 1);
    touch(it->second.lru_it);
    return it->second.entry;
  }

  ++stats_.misses;
  CLEAR_OBS_COUNT("serve.cache.misses", 1);
  auto entry = std::make_shared<Entry>();
  entry->key = key;

  if (key.kind == BatchKey::Kind::kCluster) {
    const std::string blob = cluster_blob_(key.id);
    if (!blob.empty()) {
      try {
        entry->engine = build_own(key, blob);
        // Charge what the engine occupies resident, not the blob size: a
        // delta/compressed blob is small on disk but reconstructs to a
        // full-size model, and budgeting by disk bytes would let the cache
        // hold many times its nominal budget in memory.
        entry->bytes = entry->engine->resident_bytes();
      } catch (const Error& e) {
        CLEAR_WARN("cluster " << key.id << " checkpoint unusable ("
                              << e.what() << "); serving the general model");
      }
    }
    if (!entry->engine) {
      // Degrade to the general blob; never serve wrong weights silently.
      const std::string general = general_blob_();
      CLEAR_CHECK_MSG(!general.empty(),
                      "cluster " << key.id
                                 << " checkpoint missing/corrupt and no "
                                    "general fallback available");
      entry->engine = builder_(general, key.precision, nullptr);
      entry->bytes = entry->engine->resident_bytes();
      entry->fallback = true;
      ++stats_.fallbacks;
      CLEAR_OBS_COUNT("serve.cache.fallbacks", 1);
    }
  } else {
    const std::string general = general_blob_();
    CLEAR_CHECK_MSG(!general.empty(), "no general checkpoint to serve");
    entry->engine = build_own(key, general);
    entry->bytes = entry->engine->resident_bytes();
  }

  lru_.push_back(key);
  entries_[key] = Resident{entry, std::prev(lru_.end())};
  stats_.bytes_in_use += entry->bytes;
  evict_over_budget(key);
  return entry;
}

std::unique_ptr<edge::EdgeEngine> CheckpointCache::build_own(
    const BatchKey& key, const std::string& blob) {
  const auto known = scales_.find(key);
  if (known != scales_.end())
    return builder_(blob, key.precision, &known->second);
  auto engine = builder_(blob, key.precision, nullptr);
  if (engine->calibrated())  // int8 only: other tiers have no scales.
    scales_.emplace(key, engine->activation_params());
  return engine;
}

void CheckpointCache::touch(std::list<BatchKey>::iterator it) {
  lru_.splice(lru_.end(), lru_, it);  // Move to most-recently-used.
}

void CheckpointCache::evict_over_budget(const BatchKey& keep) {
  // Evict LRU-first until within budget. The just-inserted entry is never
  // evicted — a single blob larger than the budget still serves (the cache
  // simply holds that one entry over budget until the next insert).
  while (stats_.bytes_in_use > budget_ && !lru_.empty()) {
    const BatchKey victim = lru_.front();
    if (victim == keep) break;
    const auto it = entries_.find(victim);
    stats_.bytes_in_use -= it->second.entry->bytes;
    entries_.erase(it);
    lru_.pop_front();
    ++stats_.evictions;
    CLEAR_OBS_COUNT("serve.cache.evictions", 1);
  }
}

std::vector<BatchKey> CheckpointCache::resident_lru() const {
  return std::vector<BatchKey>(lru_.begin(), lru_.end());
}

}  // namespace clear::serve
