#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "clear/artifacts.hpp"
#include "common/error.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "serve/workload.hpp"

namespace clear::serve {
namespace {

core::ClearConfig serve_config() {
  core::ClearConfig c = core::smoke_config();
  c.data.seed = 77;
  c.data.n_volunteers = 8;
  c.data.trials_per_volunteer = 5;
  c.train.epochs = 2;
  c.finetune.epochs = 1;
  c.finalize();
  return c;
}

// One fitted pipeline shared by every test: the server consumes a copy of
// the captured ModelSource, so tests never mutate shared state.
struct SharedFixture {
  wemac::WemacDataset dataset;
  core::ClearPipeline pipeline;
  ModelSource source;

  SharedFixture()
      : dataset(wemac::generate_wemac(serve_config().data)),
        pipeline(serve_config()) {
    std::vector<std::size_t> users;
    for (std::size_t u = 0; u + 2 < dataset.n_volunteers(); ++u)
      users.push_back(u);
    pipeline.fit(dataset, users);
    source = ModelSource::from_pipeline(pipeline);
  }
};

SharedFixture& fixture() {
  static SharedFixture f;
  return f;
}

/// A request carrying one of the held-out volunteer's raw feature maps.
ServeRequest req(std::uint64_t user, std::uint64_t id, std::uint64_t t,
                 std::optional<int> label = std::nullopt,
                 double quality = 1.0) {
  auto& f = fixture();
  const auto& samples = f.dataset.samples_of(f.dataset.n_volunteers() - 1);
  const std::size_t s = samples[id % samples.size()];
  ServeRequest r;
  r.user_id = user;
  r.request_id = id;
  r.arrival_us = t;
  r.map = f.dataset.samples()[s].feature_map;
  r.quality = quality;
  r.label = label;
  return r;
}

void expect_identical(const std::vector<ServeResult>& a,
                      const std::vector<ServeResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user_id, b[i].user_id) << "result " << i;
    EXPECT_EQ(a[i].request_id, b[i].request_id) << "result " << i;
    EXPECT_EQ(a[i].status, b[i].status) << "result " << i;
    EXPECT_EQ(a[i].error, b[i].error) << "result " << i;
    EXPECT_EQ(a[i].predicted, b[i].predicted) << "result " << i;
    // Bit-identical, not approximately equal — the determinism contract.
    EXPECT_EQ(a[i].fear_probability, b[i].fear_probability) << "result " << i;
    EXPECT_EQ(a[i].route, b[i].route) << "result " << i;
    EXPECT_EQ(a[i].session_state, b[i].session_state) << "result " << i;
    EXPECT_EQ(a[i].batch_rows, b[i].batch_rows) << "result " << i;
    EXPECT_EQ(a[i].exec_us, b[i].exec_us) << "result " << i;
  }
}

WorkloadConfig small_workload() {
  WorkloadConfig wc;
  wc.n_users = 8;
  wc.requests_per_user = 12;
  wc.seed = 7;
  return wc;
}

ServeConfig quick_serve_config() {
  ServeConfig sc;
  sc.session.ca_windows = 3;
  sc.session.ft_maps = 2;
  return sc;
}

/// quick_serve_config() with int8 calibration maps (volunteer 0's
/// normalized maps, as `clear-cli serve` uses) and a cache budget below one
/// engine's size: the cache keeps only the entry it just built, so every
/// switch of batch key evicts and later rebuilds an engine.
ServeConfig one_engine_cache_config(std::vector<edge::Precision> precisions) {
  auto& f = fixture();
  ServeConfig sc = quick_serve_config();
  sc.precisions = std::move(precisions);
  sc.cache_budget_bytes = 1;
  for (const std::size_t s : f.dataset.samples_of(0)) {
    Tensor m = f.dataset.samples()[s].feature_map;
    f.source.normalizer.apply_map(m);
    sc.calibration_maps.push_back(std::move(m));
  }
  return sc;
}

/// FNV-1a-64 over (user, request, predicted, probability bits, route) of
/// every result, in order.
std::uint64_t results_digest(const std::vector<ServeResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  };
  for (const ServeResult& r : results) {
    mix(r.user_id, 8);
    mix(r.request_id, 8);
    mix(static_cast<std::uint32_t>(r.predicted), 4);
    std::uint32_t bits = 0;
    std::memcpy(&bits, &r.fear_probability, sizeof bits);
    mix(bits, 4);
    mix(static_cast<std::uint64_t>(r.route.kind), 1);
    mix(r.route.id, 8);
    mix(static_cast<std::uint64_t>(r.route.precision), 1);
  }
  return h;
}

TEST(Server, WorkloadIsBitIdenticalAcrossThreadCounts) {
  auto& f = fixture();
  std::vector<ServeResult> base;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const NumThreadsGuard guard(threads);
    Server server(f.source, quick_serve_config());
    std::vector<ServeResult> out =
        server.run(make_workload(f.dataset, small_workload()));
    EXPECT_EQ(server.counters().requests, 8u * 12u);
    EXPECT_GT(server.counters().ok, 0u);
    if (base.empty()) {
      base = std::move(out);
    } else {
      expect_identical(base, out);
    }
  }
}

TEST(Server, ResultsUnchangedWithMetricsEnabled) {
  auto& f = fixture();
  Server plain(f.source, quick_serve_config());
  const std::vector<ServeResult> base =
      plain.run(make_workload(f.dataset, small_workload()));

  obs::set_enabled(true);
  Server observed(f.source, quick_serve_config());
  const std::vector<ServeResult> traced =
      observed.run(make_workload(f.dataset, small_workload()));
  obs::set_enabled(false);
  expect_identical(base, traced);
}

// Pins what the server answers at every tier, int8 included, across
// commits: fine-tuning is on and the cache holds one engine, so the int8
// cluster engines are evicted and rebuilt throughout the run. A change that
// moves any prediction, probability bit or route fails here.
TEST(Server, Int8OutputsArePinnedAcrossRebuilds) {
  auto& f = fixture();
  Server server(f.source,
                one_engine_cache_config({edge::Precision::kFp32,
                                         edge::Precision::kFp16,
                                         edge::Precision::kInt8}));
  WorkloadConfig wc = small_workload();
  wc.n_users = 12;
  wc.requests_per_user = 16;
  const std::vector<ServeResult> out =
      server.run(make_workload(f.dataset, wc));
  // The scenario is what the pin claims: more misses than the 15 (model,
  // tier) keys there are, so engines were rebuilt, and int8 sessions were
  // personalized.
  EXPECT_GT(server.cache().stats().misses, 15u);
  std::size_t int8_personal = 0;
  for (const ServeResult& r : out)
    int8_personal += r.route.kind == BatchKey::Kind::kPersonal &&
                     r.route.precision == edge::Precision::kInt8;
  EXPECT_GT(int8_personal, 0u);

  EXPECT_EQ(out.size(), 192u);
  EXPECT_EQ(results_digest(out), 0x85c68913e8ad7009ull)
      << "digest 0x" << std::hex << results_digest(out);
}

// An evicted int8 base engine rebuilds with the activation scales its first
// build calibrated: `edge.calibrations` counts the distinct int8 bases, not
// the cache misses, and the answers match a cache that never evicts.
TEST(Server, Int8BasesCalibrateOncePerServer) {
#ifdef CLEAR_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (CLEAR_OBS=OFF)";
#endif
  auto& f = fixture();
  ServeConfig sc = one_engine_cache_config({edge::Precision::kInt8});
  sc.session.enable_finetune = false;
  WorkloadConfig wc = small_workload();
  wc.n_users = 12;
  wc.requests_per_user = 16;

  obs::set_enabled(true);
  obs::reset();
  Server evicting(f.source, sc);
  const std::vector<ServeResult> out =
      evicting.run(make_workload(f.dataset, wc));
  const std::uint64_t calibrations = obs::counter("edge.calibrations").value();
  obs::set_enabled(false);

  std::set<BatchKey> bases;
  for (const ServeResult& r : out)
    if (r.status == ServeResult::Status::kOk) bases.insert(r.route);
  EXPECT_EQ(evicting.cache().stats().fallbacks, 0u);
  EXPECT_GT(evicting.cache().stats().misses, bases.size())
      << "no int8 engine was rebuilt";
  EXPECT_EQ(calibrations, bases.size());

  // Rebuilt engines answer bit for bit like engines built once.
  sc.cache_budget_bytes = ServeConfig{}.cache_budget_bytes;
  Server roomy(f.source, sc);
  expect_identical(out, roomy.run(make_workload(f.dataset, wc)));
  EXPECT_EQ(roomy.cache().stats().evictions, 0u);
}

// A fine-tune trains an uncalibrated engine and calibrates it once, on the
// fine-tuned weights. It runs on the trainer thread, so the count is taken
// across its commit.
TEST(Server, Int8PersonalizationCalibratesOnce) {
#ifdef CLEAR_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (CLEAR_OBS=OFF)";
#endif
  ServeConfig sc = one_engine_cache_config({edge::Precision::kInt8});
  sc.session.ca_windows = 2;
  obs::set_enabled(true);
  Server server(fixture().source, sc);
  server.submit(req(1, 0, 0));
  server.submit(req(1, 1, 1000));
  server.submit(req(1, 2, 2000, 0));
  server.drain();
  const std::uint64_t before = obs::counter("edge.calibrations").value();
  server.submit(req(1, 3, 3000, 1));  // Second label: starts the fine-tune.
  server.drain();                     // Commits it.
  const std::uint64_t after = obs::counter("edge.calibrations").value();
  obs::set_enabled(false);
  server.submit(req(1, 4, 4000));
  server.drain();
  EXPECT_EQ(server.counters().finetunes, 1u);
  EXPECT_EQ(after - before, 1u);
  const std::vector<ServeResult> out = server.take_results();
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[3].route.kind, BatchKey::Kind::kCluster);
  EXPECT_EQ(out[4].route.kind, BatchKey::Kind::kPersonal);
}

// What a row is answered must not depend on which rows share its batch: a
// device serves one window at a time, and on the wire batch composition
// depends on timing. The max_batch = 1 run is pinned, so any change to what
// a row alone is answered shows here.
TEST(Server, Int8AnswersDoNotDependOnBatching) {
  auto& f = fixture();
  ServeConfig sc = one_engine_cache_config(
      {edge::Precision::kFp32, edge::Precision::kFp16, edge::Precision::kInt8});
  sc.cache_budget_bytes = ServeConfig{}.cache_budget_bytes;
  sc.session.enable_finetune = false;
  WorkloadConfig wc = small_workload();
  wc.n_users = 12;
  wc.requests_per_user = 16;

  sc.batch.max_batch = 1;
  Server alone(f.source, sc);
  const std::vector<ServeResult> one =
      alone.run(make_workload(f.dataset, wc));
  EXPECT_EQ(alone.counters().shed, 0u);
  EXPECT_EQ(alone.counters().max_batch_rows, 1u);
  EXPECT_EQ(results_digest(one), 0x9935126dcdd0b73dull)
      << "digest 0x" << std::hex << results_digest(one);

  sc.batch.max_batch = BatchPolicy{}.max_batch;
  Server batched(f.source, sc);
  const std::vector<ServeResult> many =
      batched.run(make_workload(f.dataset, wc));
  EXPECT_EQ(batched.counters().shed, 0u);
  std::size_t shared_int8_rows = 0;
  for (const ServeResult& r : many)
    shared_int8_rows +=
        r.route.precision == edge::Precision::kInt8 && r.batch_rows > 1;
  EXPECT_GT(shared_int8_rows, 0u) << "no int8 batch had more than one row";
  EXPECT_EQ(results_digest(many), results_digest(one));
}

TEST(Server, ServingFromArtifactsMatchesServingFromPipeline) {
  auto& f = fixture();
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "clear_serve_artifacts";
  fs::remove_all(dir);
  core::save_pipeline(f.pipeline, dir.string());

  Server live(f.source, quick_serve_config());
  const std::vector<ServeResult> a =
      live.run(make_workload(f.dataset, small_workload()));
  Server restored(ModelSource::from_artifacts(dir.string()),
                  quick_serve_config());
  const std::vector<ServeResult> b =
      restored.run(make_workload(f.dataset, small_workload()));
  expect_identical(a, b);
  fs::remove_all(dir);
}

TEST(Server, ColdStartLifecycleReachesPersonalized) {
  auto& f = fixture();
  ServeConfig sc;
  sc.session.ca_windows = 2;
  sc.session.ft_maps = 2;
  Server server(f.source, sc);

  std::vector<ServeRequest> stream;
  stream.push_back(req(1, 0, 0));
  stream.push_back(req(1, 1, 1000));
  stream.push_back(req(1, 2, 2000, 0));
  stream.push_back(req(1, 3, 3000, 1));
  stream.push_back(req(1, 4, 4000));
  const std::vector<ServeResult> out = server.run(std::move(stream));

  ASSERT_EQ(out.size(), 5u);
  for (const ServeResult& r : out)
    EXPECT_EQ(r.status, ServeResult::Status::kOk);
  // Request 0 rides the general model (still cold); request 1 completes the
  // CA buffer, so from then on the cluster model serves...
  EXPECT_EQ(out[0].route.kind, BatchKey::Kind::kGeneral);
  EXPECT_EQ(out[1].route.kind, BatchKey::Kind::kCluster);
  EXPECT_EQ(out[2].route.kind, BatchKey::Kind::kCluster);
  // ...including the second labelled map, which starts the fine-tune. The
  // user's next request commits it: from then on the session owns a
  // personal engine.
  EXPECT_EQ(out[3].route.kind, BatchKey::Kind::kCluster);
  EXPECT_EQ(out[4].route.kind, BatchKey::Kind::kPersonal);
  EXPECT_EQ(out[4].session_state, SessionState::kPersonalized);
  EXPECT_EQ(server.counters().assignments, 1u);
  EXPECT_EQ(server.counters().finetunes, 1u);
  EXPECT_EQ(server.counters().finetune_failures, 0u);
  for (const ServeResult& r : out) {
    EXPECT_GE(r.fear_probability, 0.0f);
    EXPECT_LE(r.fear_probability, 1.0f);
  }

  const Session* session = server.sessions().sessions().at(0);
  EXPECT_EQ(session->state(), SessionState::kPersonalized);
  ASSERT_TRUE(session->first_prediction_us.has_value());
  EXPECT_GE(*session->first_prediction_us, session->first_arrival_us);

  // A stream that ends on the trigger: run()'s drain commits the fine-tune.
  Server ending(f.source, sc);
  std::vector<ServeRequest> to_trigger;
  to_trigger.push_back(req(1, 0, 0));
  to_trigger.push_back(req(1, 1, 1000));
  to_trigger.push_back(req(1, 2, 2000, 0));
  to_trigger.push_back(req(1, 3, 3000, 1));
  const std::vector<ServeResult> cut = ending.run(std::move(to_trigger));
  ASSERT_EQ(cut.size(), 4u);
  EXPECT_EQ(cut[3].route.kind, BatchKey::Kind::kCluster);
  EXPECT_EQ(ending.counters().finetunes, 1u);
  EXPECT_EQ(ending.sessions().sessions().at(0)->state(),
            SessionState::kPersonalized);
}

TEST(Server, SustainedBadQualityDegradesToGeneralThenRecovers) {
  auto& f = fixture();
  ServeConfig sc;
  sc.session.ca_windows = 2;
  sc.session.enable_finetune = false;
  sc.session.degrade_after = 2;
  sc.session.recover_after = 2;
  Server server(f.source, sc);

  std::vector<ServeRequest> stream;
  stream.push_back(req(5, 0, 0));
  stream.push_back(req(5, 1, 1000));  // Assigned after this one.
  stream.push_back(req(5, 2, 2000, std::nullopt, 0.1));
  stream.push_back(req(5, 3, 3000, std::nullopt, 0.1));  // Degrades here.
  stream.push_back(req(5, 4, 4000, std::nullopt, 0.1));
  stream.push_back(req(5, 5, 5000));
  stream.push_back(req(5, 6, 6000));  // Recovers here.
  const std::vector<ServeResult> out = server.run(std::move(stream));

  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[2].route.kind, BatchKey::Kind::kCluster);
  // A cluster model fed garbage is worse than the population prior: the
  // degraded span is parked on the general model.
  EXPECT_EQ(out[3].route.kind, BatchKey::Kind::kGeneral);
  EXPECT_TRUE(out[3].degraded);
  EXPECT_EQ(out[4].route.kind, BatchKey::Kind::kGeneral);
  EXPECT_EQ(out[5].route.kind, BatchKey::Kind::kGeneral);
  // Recovery restores the pre-degradation assignment.
  EXPECT_EQ(out[6].route.kind, BatchKey::Kind::kCluster);
  EXPECT_FALSE(out[6].degraded);
  EXPECT_EQ(server.counters().degraded, 1u);
  EXPECT_EQ(server.counters().recovered, 1u);
}

TEST(Server, NonFiniteSamplesAreSanitizedAndCountAgainstQuality) {
  auto& f = fixture();
  ServeConfig sc = quick_serve_config();
  Server server(f.source, sc);
  ServeRequest r = req(2, 0, 0);
  const std::size_t w = r.map.extent(1);
  for (std::size_t j = 1; j < w; ++j)
    r.map.at2(0, j) = std::numeric_limits<float>::quiet_NaN();
  std::vector<ServeRequest> stream;
  stream.push_back(std::move(r));
  const std::vector<ServeResult> out = server.run(std::move(stream));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status, ServeResult::Status::kOk);
  EXPECT_TRUE(std::isfinite(out[0].fear_probability));
  EXPECT_EQ(server.counters().sanitized, 1u);
}

TEST(Server, BurstsShedWithAddressedErrors) {
  auto& f = fixture();
  ServeConfig sc;
  sc.batch.max_batch = 2;
  sc.batch.queue_capacity = 2;
  sc.batch.max_pending = 64;
  Server server(f.source, sc);
  // Five cold users in the same virtual instant all route general/fp32; the
  // per-key queue holds two, so the rest shed with the key named.
  std::vector<ServeRequest> stream;
  for (std::uint64_t u = 0; u < 5; ++u) stream.push_back(req(u, 0, 100));
  const std::vector<ServeResult> out = server.run(std::move(stream));
  std::size_t ok = 0, shed = 0;
  for (const ServeResult& r : out) {
    if (r.status == ServeResult::Status::kOk) {
      ++ok;
    } else {
      ++shed;
      EXPECT_NE(r.error.find("queue full for general/fp32"),
                std::string::npos)
          << "actual error: " << r.error;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, 3u);
  EXPECT_EQ(server.counters().shed, 3u);
}

TEST(Server, GlobalOverloadShedsAcrossKeys) {
  auto& f = fixture();
  ServeConfig sc;
  sc.batch.max_batch = 2;
  sc.batch.queue_capacity = 2;
  sc.batch.max_pending = 3;
  sc.precisions = {edge::Precision::kFp32, edge::Precision::kFp16};
  Server server(f.source, sc);
  // Users alternate precisions, so the burst spreads over two keys and trips
  // the global cap before any single queue fills.
  std::vector<ServeRequest> stream;
  for (std::uint64_t u = 0; u < 5; ++u) stream.push_back(req(u, 0, 100));
  const std::vector<ServeResult> out = server.run(std::move(stream));
  std::size_t overloaded = 0;
  for (const ServeResult& r : out)
    if (r.status == ServeResult::Status::kShed) {
      EXPECT_NE(r.error.find("server overloaded"), std::string::npos)
          << "actual error: " << r.error;
      ++overloaded;
    }
  EXPECT_EQ(overloaded, 2u);
}

TEST(Server, SessionTableFullShedsNewUsers) {
  auto& f = fixture();
  ServeConfig sc = quick_serve_config();
  sc.max_sessions = 1;
  Server server(f.source, sc);
  std::vector<ServeRequest> stream;
  stream.push_back(req(1, 0, 0));
  stream.push_back(req(2, 0, 0));
  stream.push_back(req(1, 1, 1000));  // Existing user still served.
  const std::vector<ServeResult> out = server.run(std::move(stream));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].status, ServeResult::Status::kOk);
  EXPECT_EQ(out[1].status, ServeResult::Status::kOk);
  EXPECT_EQ(out[2].status, ServeResult::Status::kShed);
  EXPECT_NE(out[2].error.find("session table full"), std::string::npos)
      << "actual error: " << out[2].error;
}

TEST(Server, CorruptClusterCheckpointsDegradeToGeneral) {
  auto& f = fixture();
  ModelSource source = f.source;
  const auto intact = source.cluster_blob;
  source.cluster_blob = [intact](std::size_t k) {
    std::string blob = intact(k);
    if (!blob.empty()) blob[blob.size() / 2] ^= 0x40;  // Break the CRC.
    return blob;
  };
  ServeConfig sc = quick_serve_config();
  Server server(std::move(source), sc);
  const std::vector<ServeResult> out =
      server.run(make_workload(f.dataset, small_workload()));
  for (const ServeResult& r : out) {
    if (r.status == ServeResult::Status::kOk) {
      EXPECT_NE(r.route.kind, BatchKey::Kind::kCluster)
          << "corrupt cluster checkpoint served as " << r.route.str();
    }
  }
  EXPECT_GT(server.cache().stats().fallbacks, 0u);
  // Fine-tunes start from the general weights instead of failing outright.
  EXPECT_EQ(server.counters().finetune_failures, 0u);
}

TEST(Server, DrainCompletesEveryAdmittedRequest) {
  auto& f = fixture();
  ServeConfig sc = quick_serve_config();
  sc.batch.max_wait_us = 2000;  // A deadline distinct from the arrivals.
  Server server(f.source, sc);
  server.submit(req(3, 0, 0));
  server.submit(req(4, 0, 0));
  EXPECT_TRUE(server.take_results().empty());  // Nothing due yet.
  server.drain();
  const std::vector<ServeResult> out = server.take_results();
  ASSERT_EQ(out.size(), 2u);
  // Neither hit max_batch, so both execute at the shared oldest deadline.
  EXPECT_EQ(out[0].exec_us, sc.batch.max_wait_us);
  EXPECT_EQ(out[0].batch_rows, 2u);
  EXPECT_EQ(server.counters().ok + server.counters().shed,
            server.counters().requests);
}

TEST(Server, ArrivalsMustBeNondecreasing) {
  auto& f = fixture();
  Server server(f.source, quick_serve_config());
  server.submit(req(1, 0, 1000));
  EXPECT_THROW(server.submit(req(1, 1, 500)), Error);
}

}  // namespace
}  // namespace clear::serve
