#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/model.hpp"

namespace clear::serve {
namespace {

// The loaders and engine builder are injected, so the cache's eviction
// order, byte accounting, and corrupt-blob fallback are all testable with a
// tiny throwaway model — no training involved. Blob *contents* encode the
// test scenario: "corrupt..." blobs make the builder throw (standing in for
// a CRC failure), anything else builds. The budget accounting sees the
// *materialized engine's* resident bytes, never the blob size — blobs may
// be delta-encoded and bear no relation to the memory the engine occupies.
// An int8 build stands in for calibration by installing scales derived from
// its blob's first byte, so a test can tell whose scales an engine carries.
nn::CnnLstmConfig tiny_config() {
  nn::CnnLstmConfig c;
  c.feature_dim = 8;
  c.window_count = 4;
  c.conv1_channels = 2;
  c.conv2_channels = 2;
  c.lstm_hidden = 3;
  c.dropout = 0.0;
  return c;
}

struct Harness {
  std::map<std::size_t, std::string> cluster_blobs;
  std::string general_blob = std::string(100, 'g');
  std::size_t builds = 0;
  /// Per successful build: the blob and the scales the cache handed over.
  std::vector<std::pair<std::string, std::optional<CheckpointCache::Scales>>>
      handed;

  /// The scales an int8 build of `blob` "calibrates".
  static CheckpointCache::Scales scales_of(const std::string& blob,
                                           std::size_t stages) {
    return CheckpointCache::Scales(
        stages, edge::QuantParams{static_cast<float>(blob.front())});
  }

  /// Resident size of the (identical) engine every build produces — the
  /// unit all byte-accounting expectations are phrased in.
  static std::size_t engine_bytes() {
    Rng rng(1);
    edge::EdgeEngine e(nn::build_cnn_lstm(tiny_config(), rng),
                       edge::EngineConfig{});
    return e.resident_bytes();
  }

  CheckpointCache make(std::size_t budget) {
    return CheckpointCache(
        [this](std::size_t k) {
          const auto it = cluster_blobs.find(k);
          return it == cluster_blobs.end() ? std::string() : it->second;
        },
        [this]() { return general_blob; },
        [this](const std::string& blob, edge::Precision p,
               const CheckpointCache::Scales* scales) {
          CLEAR_CHECK_MSG(blob.rfind("corrupt", 0) != 0,
                          "synthetic checkpoint CRC mismatch");
          ++builds;
          handed.emplace_back(blob, scales ? std::optional(*scales)
                                           : std::nullopt);
          Rng rng(1);
          edge::EngineConfig ec;
          ec.precision = p;
          auto engine = std::make_unique<edge::EdgeEngine>(
              nn::build_cnn_lstm(tiny_config(), rng), ec);
          if (p == edge::Precision::kInt8)
            engine->set_activation_params(
                scales ? *scales
                       : scales_of(blob, engine->model().size() + 1));
          return engine;
        },
        budget);
  }
};

BatchKey cluster(std::size_t id) {
  BatchKey k;
  k.kind = BatchKey::Kind::kCluster;
  k.id = id;
  return k;
}

BatchKey general() { return BatchKey{}; }

BatchKey int8(BatchKey key) {
  key.precision = edge::Precision::kInt8;
  return key;
}

float first_scale(const CheckpointCache::Entry& e) {
  return e.engine->activation_params().front().scale;
}

TEST(CheckpointCache, MissBuildsThenHitReuses) {
  Harness h;
  h.cluster_blobs[0] = std::string(40, 'a');
  CheckpointCache cache = h.make(1 << 20);
  const auto first = cache.acquire(cluster(0));
  EXPECT_EQ(h.builds, 1u);
  EXPECT_EQ(first->bytes, Harness::engine_bytes());
  EXPECT_FALSE(first->fallback);
  const auto second = cache.acquire(cluster(0));
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(h.builds, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().bytes_in_use, Harness::engine_bytes());
}

TEST(CheckpointCache, EvictsLeastRecentlyUsedFirst) {
  Harness h;
  h.cluster_blobs[0] = std::string(40, 'a');
  h.cluster_blobs[1] = std::string(40, 'b');
  h.cluster_blobs[2] = std::string(40, 'c');
  // Room for exactly two resident engines.
  CheckpointCache cache = h.make(2 * Harness::engine_bytes());
  cache.acquire(cluster(0));
  cache.acquire(cluster(1));
  // Touch 0 so 1 becomes the eviction victim.
  cache.acquire(cluster(0));
  cache.acquire(cluster(2));
  EXPECT_EQ(cache.stats().evictions, 1u);
  const std::vector<BatchKey> lru = cache.resident_lru();
  ASSERT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru[0], cluster(0));
  EXPECT_EQ(lru[1], cluster(2));
  EXPECT_EQ(cache.stats().bytes_in_use, 2 * Harness::engine_bytes());
  // Re-acquiring the victim is a fresh miss.
  cache.acquire(cluster(1));
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(CheckpointCache, ByteAccountingTracksResidentEngineSizes) {
  Harness h;
  h.cluster_blobs[0] = std::string(30, 'a');
  h.cluster_blobs[1] = std::string(50, 'b');
  CheckpointCache cache = h.make(1 << 20);
  cache.acquire(cluster(0));
  cache.acquire(cluster(1));
  cache.acquire(general());
  // Three different blob sizes, one engine architecture: the budget charges
  // what is resident, so all three entries cost the same.
  EXPECT_EQ(cache.stats().bytes_in_use, 3 * Harness::engine_bytes());
  EXPECT_EQ(cache.size(), 3u);
}

// Regression: the cache used to charge the on-disk blob size. A delta
// checkpoint is ~40x smaller than the model it reconstructs, so blob-size
// accounting would quietly hold ~40x the configured budget in memory.
TEST(CheckpointCache, TinyBlobsAreChargedAtResidentSize) {
  Harness h;
  h.cluster_blobs[0] = std::string(10, 'a');  // Delta-sized blob.
  h.cluster_blobs[1] = std::string(10, 'b');
  h.cluster_blobs[2] = std::string(10, 'c');
  CheckpointCache cache = h.make(2 * Harness::engine_bytes());
  const auto e = cache.acquire(cluster(0));
  EXPECT_GT(e->bytes, 10u) << "charged the blob size, not the engine size";
  EXPECT_EQ(e->bytes, Harness::engine_bytes());
  cache.acquire(cluster(1));
  cache.acquire(cluster(2));
  // Under blob-size accounting 30 bytes would all fit; under resident
  // accounting only two engines do.
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(cache.stats().bytes_in_use, 2 * Harness::engine_bytes());
}

TEST(CheckpointCache, SingleOverBudgetEntryStillServes) {
  Harness h;
  h.cluster_blobs[0] = std::string(500, 'a');
  h.cluster_blobs[1] = std::string(500, 'b');
  CheckpointCache cache = h.make(1);
  const auto a = cache.acquire(cluster(0));
  ASSERT_TRUE(a->engine);
  EXPECT_EQ(cache.stats().bytes_in_use, Harness::engine_bytes());
  // The next insert evicts the previous over-budget tenant, never itself.
  const auto b = cache.acquire(cluster(1));
  ASSERT_TRUE(b->engine);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().bytes_in_use, Harness::engine_bytes());
  // The in-flight shared_ptr keeps the evicted engine alive for its batch.
  EXPECT_TRUE(a->engine);
  EXPECT_EQ(a->key, cluster(0));
}

TEST(CheckpointCache, CorruptClusterBlobFallsBackToGeneral) {
  Harness h;
  h.cluster_blobs[0] = "corrupt-checkpoint-bytes";
  CheckpointCache cache = h.make(1 << 20);
  const auto e = cache.acquire(cluster(0));
  ASSERT_TRUE(e->engine);
  EXPECT_TRUE(e->fallback);
  // Accounting still charges the materialized engine.
  EXPECT_EQ(e->bytes, Harness::engine_bytes());
  EXPECT_EQ(cache.stats().fallbacks, 1u);
}

TEST(CheckpointCache, MissingClusterBlobFallsBackToGeneral) {
  Harness h;  // No cluster blobs registered at all.
  CheckpointCache cache = h.make(1 << 20);
  const auto e = cache.acquire(cluster(7));
  EXPECT_TRUE(e->fallback);
  EXPECT_EQ(cache.stats().fallbacks, 1u);
}

TEST(CheckpointCache, NoFallbackAvailableIsAnAddressedError) {
  Harness h;
  h.general_blob.clear();
  CheckpointCache cache = h.make(1 << 20);
  try {
    cache.acquire(cluster(3));
    FAIL() << "expected acquire to refuse";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cluster 3"), std::string::npos)
        << "actual error: " << e.what();
    EXPECT_NE(std::string(e.what()).find("no general fallback"),
              std::string::npos)
        << "actual error: " << e.what();
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CheckpointCache, MissingGeneralBlobRejected) {
  Harness h;
  h.general_blob.clear();
  CheckpointCache cache = h.make(1 << 20);
  EXPECT_THROW(cache.acquire(general()), Error);
}

TEST(CheckpointCache, PersonalKeysAreSessionOwned) {
  Harness h;
  CheckpointCache cache = h.make(1 << 20);
  BatchKey k;
  k.kind = BatchKey::Kind::kPersonal;
  k.id = 9;
  EXPECT_THROW(cache.acquire(k), Error);
}

TEST(CheckpointCache, PrecisionIsPartOfTheKey) {
  Harness h;
  h.cluster_blobs[0] = std::string(40, 'a');
  CheckpointCache cache = h.make(1 << 20);
  BatchKey fp32 = cluster(0);
  BatchKey fp16 = cluster(0);
  fp16.precision = edge::Precision::kFp16;
  cache.acquire(fp32);
  cache.acquire(fp16);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CheckpointCache, Int8RebuildReusesTheScalesOfItsFirstBuild) {
  Harness h;
  h.cluster_blobs[0] = std::string(40, 'a');
  CheckpointCache cache = h.make(1);  // Holds only the entry just built.
  const float a = static_cast<float>('a');
  const float g = static_cast<float>('g');
  EXPECT_EQ(first_scale(*cache.acquire(int8(cluster(0)))), a);
  EXPECT_EQ(first_scale(*cache.acquire(int8(general()))), g);
  cache.acquire(general());
  EXPECT_EQ(first_scale(*cache.acquire(int8(cluster(0)))), a);
  EXPECT_EQ(first_scale(*cache.acquire(int8(general()))), g);
  cache.acquire(general());
  EXPECT_EQ(cache.stats().misses, 6u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // First builds calibrate; rebuilds get the scales the first build made.
  // fp32 keys have no scales to keep.
  ASSERT_EQ(h.handed.size(), 6u);
  EXPECT_FALSE(h.handed[0].second);
  EXPECT_FALSE(h.handed[1].second);
  EXPECT_FALSE(h.handed[2].second);
  ASSERT_TRUE(h.handed[3].second);
  EXPECT_EQ(h.handed[3].second->front().scale, a);
  ASSERT_TRUE(h.handed[4].second);
  EXPECT_EQ(h.handed[4].second->front().scale, g);
  EXPECT_FALSE(h.handed[5].second);
}

TEST(CheckpointCache, FallbackScalesAreNeverHandedToTheOwnBlob) {
  Harness h;
  h.cluster_blobs[0] = "corrupt-checkpoint-bytes";
  CheckpointCache cache = h.make(1);
  const auto degraded = cache.acquire(int8(cluster(0)));
  ASSERT_TRUE(degraded->fallback);
  EXPECT_EQ(first_scale(*degraded), static_cast<float>('g'));
  cache.acquire(general());  // Evicts the fallback entry.
  // The cluster's own blob is readable again. Its first own build must
  // calibrate rather than take the general blob's scales, and its rebuild
  // reuses what that own build calibrated.
  h.cluster_blobs[0] = std::string(40, 'a');
  EXPECT_EQ(first_scale(*cache.acquire(int8(cluster(0)))),
            static_cast<float>('a'));
  cache.acquire(general());
  EXPECT_EQ(first_scale(*cache.acquire(int8(cluster(0)))),
            static_cast<float>('a'));
  ASSERT_EQ(h.handed.size(), 5u);
  EXPECT_EQ(h.handed[0].first, h.general_blob);
  EXPECT_FALSE(h.handed[0].second);
  EXPECT_EQ(h.handed[2].first, h.cluster_blobs[0]);
  EXPECT_FALSE(h.handed[2].second) << "fallback scales handed to own blob";
  ASSERT_TRUE(h.handed[4].second);
  EXPECT_EQ(h.handed[4].second->front().scale, static_cast<float>('a'));
  EXPECT_EQ(cache.stats().fallbacks, 1u);
}

TEST(CheckpointCache, RejectsZeroBudgetAndNullHooks) {
  Harness h;
  EXPECT_THROW(h.make(0), Error);
  EXPECT_THROW(CheckpointCache(nullptr, nullptr, nullptr, 1), Error);
}

}  // namespace
}  // namespace clear::serve
