// Byte-identity oracle for every format the repository sends or stores:
// each test encodes one fixed input per format through its public writer
// and pins the encoded length and an FNV-1a-64 digest. A refactor of any
// codec must leave every pin unchanged; a changed pin means a format
// changed, which needs a version bump and a docs/FORMATS.md update, never a
// silent golden edit.
//
// FNV, not CRC-32: a checkpoint or meta blob ends in its own CRC-32, and
// the whole-blob CRC-32 of such a blob depends only on its length (see
// "Identity digest caveat" in docs/FORMATS.md), so it would pin nothing.
//
// Inputs avoid libm and training: weights, maps and statistics are small
// dyadic fractions written directly, so the encodings are identical on
// every IEEE-754 little-endian target.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "artifact/store.hpp"
#include "clear/artifacts.hpp"
#include "clear/config.hpp"
#include "clear/pipeline.hpp"
#include "common/rng.hpp"
#include "edge/quantize.hpp"
#include "net/protocol.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "serve/delta.hpp"
#include "serve/journal.hpp"
#include "wemac/dataset.hpp"

namespace clear {
namespace {

namespace fs = std::filesystem;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Pins one encoding; on mismatch the message carries the actual pin.
void expect_golden(const std::string& name, const std::string& bytes,
                   std::size_t size, std::uint64_t digest) {
  EXPECT_EQ(bytes.size(), size) << name;
  EXPECT_EQ(fnv1a64(bytes), digest)
      << name << ": actual {" << bytes.size() << ", 0x" << std::hex
      << fnv1a64(bytes) << "ull}";
}

std::string file_bytes(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

/// Fresh scratch directory per test, removed on teardown.
struct FormatGolden : ::testing::Test {
  fs::path dir;
  void SetUp() override {
    dir = fs::temp_directory_path() /
          ("clear_golden_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  void TearDown() override { fs::remove_all(dir); }
};

Tensor fixed_map(std::size_t rows, std::size_t cols, int salt) {
  Tensor t({rows, cols});
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(static_cast<int>(i % 13) - 6 + salt) * 0.0625f;
  return t;
}

nn::CnnLstmConfig tiny_model_config() {
  nn::CnnLstmConfig c;
  c.feature_dim = 16;
  c.window_count = 8;
  c.conv1_channels = 2;
  c.conv2_channels = 3;
  c.lstm_hidden = 4;
  return c;
}

/// A tiny model whose every weight is a fixed dyadic fraction.
std::unique_ptr<nn::Sequential> fixed_model(
    const nn::CnnLstmConfig& config = tiny_model_config()) {
  Rng rng(1);
  auto model = nn::build_cnn_lstm(config, rng);
  std::size_t k = 0;
  for (nn::Param* p : model->parameters()) {
    ++k;
    for (std::size_t j = 0; j < p->value.numel(); ++j)
      p->value[j] =
          static_cast<float>(static_cast<int>((j * 7 + k * 3) % 23) - 11) *
          0.03125f;
  }
  model->freeze_below(nn::fine_tune_boundary());
  return model;
}

std::string checkpoint_of(nn::Sequential& model) {
  std::ostringstream os(std::ios::binary);
  nn::save_checkpoint(os, model);
  return os.str();
}

// -- Wire frames ------------------------------------------------------------

TEST_F(FormatGolden, EveryWireFrameType) {
  net::WireRequest request;
  request.request_id = 7;
  request.user_id = 42;
  request.arrival_us = 1000;
  request.quality = 0.875;
  request.label = 1;
  request.map = fixed_map(3, 2, 0);
  net::WireResponse response;
  response.request_id = 7;
  response.user_id = 42;
  response.shed = true;
  response.predicted = 1;
  response.fear_probability = 0.75f;
  response.session_state = 3;
  response.degraded = true;
  response.route_kind = 2;
  response.route_id = 5;
  response.batch_rows = 4;
  response.arrival_us = 1000;
  response.exec_us = 1250;
  response.error = "queue full for general/fp32";
  net::WireSessionImage image;
  image.user_id = 42;
  image.found = true;
  image.image = "session-image-bytes";
  image.checkpoint = "checkpoint-bytes";
  net::WireImportAck import_ack;
  import_ack.user_id = 42;
  import_ack.ok = false;
  import_ack.error = "duplicate session";

  expect_golden("request", net::encode_request(request), 84,
                0xfeaf81c05de3ba79ull);
  expect_golden("response", net::encode_response(response), 115,
                0xecff604e66544cf0ull);
  expect_golden("drain", net::encode_drain(), 16, 0xcece692d5ee9583dull);
  expect_golden("drain-ack", net::encode_drain_ack({10, 8, 2}), 40,
                0xec707e697deacc13ull);
  expect_golden("shutdown", net::encode_shutdown(), 16, 0xaa761d5c97ebcbfbull);
  expect_golden("ping", net::encode_ping(0x1234), 24, 0x9f6f19d40b896ab4ull);
  expect_golden("pong", net::encode_pong({0x1234, 5}), 32,
                0x6f0a4e1a2063e5caull);
  expect_golden("export", net::encode_export(42), 24, 0x2b80e323e50eae19ull);
  expect_golden("session-image", net::encode_session_image(image), 71,
                0x5b495c2952fbc40bull);
  expect_golden("import-ack", net::encode_import_ack(import_ack), 49,
                0xe91e72ef1e82d166ull);
  expect_golden("adopt", net::encode_adopt("/var/clear/shard-1"), 38,
                0x12db76f63fb3ab43ull);
  expect_golden("adopt-ack", net::encode_adopt_ack({3, 1, 0}), 40,
                0x4e7b8c5220b98aa1ull);
  expect_golden("metrics-pull", net::encode_metrics_pull(), 16,
                0x30412d1da13ddc53ull);
  expect_golden("metrics-json",
                net::encode_metrics_json("{\"counters\": {}}"), 32,
                0x3e5025a0dcf49c05ull);
}

// -- Journal, snapshot, CTSR tensor ------------------------------------------

serve::JournalRecord record(serve::RecordType type, std::uint64_t user) {
  serve::JournalRecord r;
  r.type = type;
  r.user_id = user;
  return r;
}

TEST_F(FormatGolden, JournalLogWithOneRecordOfEachKind) {
  using serve::RecordType;
  std::vector<serve::JournalRecord> records;
  records.push_back(record(RecordType::kRequest, 7));
  records.back().time_us = 1000;
  records.back().quality = 0.8125;
  records.push_back(record(RecordType::kObservation, 7));
  records.back().point = {0.25, -1.5, 3.0};
  records.push_back(record(RecordType::kAssign, 7));
  records.back().cluster = 2;
  records.push_back(record(RecordType::kLabelled, 7));
  records.back().label = 1;
  records.back().map = fixed_map(2, 3, 1);
  records.push_back(record(RecordType::kFinetune, 7));
  records.back().ckpt_bytes = 12345;
  records.back().ckpt_crc = 0xDEADBEEF;
  records.push_back(record(RecordType::kFinetuneAbort, 9));
  records.push_back(record(RecordType::kShed, 9));
  records.back().shed_charged = true;
  records.back().shed_unadmitted = true;
  records.push_back(record(RecordType::kPredict, 7));
  records.back().time_us = 4000;
  records.push_back(record(RecordType::kDriftTick, 7));
  records.back().drifting = true;
  records.push_back(record(RecordType::kReassessObs, 7));
  records.back().point = {1.25, -0.5};
  records.push_back(record(RecordType::kReassign, 7));
  records.back().cluster = 3;
  records.push_back(record(RecordType::kShadowTick, 7));
  records.back().shadow_won = true;
  records.push_back(record(RecordType::kPromote, 7));
  records.back().cluster = 3;
  records.push_back(record(RecordType::kDemote, 9));
  ASSERT_EQ(records.size(), 14u);
  {
    serve::Journal journal({dir.string()});
    for (const serve::JournalRecord& r : records) journal.append(r);
  }
  expect_golden("journal.log",
                file_bytes(serve::journal_log_path(dir.string())), 672,
                0xd3397879028106d3ull);
}

TEST_F(FormatGolden, CtsrTensor) {
  // The journal embeds a kLabelled record's map as one CTSR tensor after
  // the fixed 32-byte prefix (seq, kind, user_id, label); the log header
  // is 16 bytes and the record frame header 8.
  serve::JournalRecord r = record(serve::RecordType::kLabelled, 7);
  r.label = 0;
  r.map = fixed_map(3, 4, 2);
  {
    serve::Journal journal({dir.string()});
    journal.append(r);
  }
  const std::string log = file_bytes(serve::journal_log_path(dir.string()));
  ASSERT_GT(log.size(), 16u + 8u + 32u);
  expect_golden("CTSR tensor", log.substr(16 + 8 + 32), 80,
                0x1c590713f6cfff9ull);
}

TEST_F(FormatGolden, Snapshot) {
  serve::SnapshotData snap;
  snap.last_seq = 42;
  snap.last_arrival_us = 99000;
  snap.counters.requests = 10;
  snap.counters.ok = 8;
  snap.counters.shed = 2;
  snap.counters.assignments = 1;
  snap.counters.finetunes = 1;
  snap.counters.drift_ticks = 40;
  snap.counters.promotions = 1;
  serve::SessionImage a;
  a.user_id = 3;
  a.state = serve::SessionState::kShadowing;
  a.saved_state = serve::SessionState::kShadowing;
  a.cluster = 1;
  a.observations = {{0.5, 1.5}, {-2.0, 0.25}};
  a.labelled.push_back({fixed_map(2, 2, 3), 1});
  a.requests = 10;
  a.predictions = 8;
  a.first_arrival_us = 1000;
  a.first_prediction_us = 3000;
  a.has_personal = true;
  a.reassess_from = serve::SessionState::kPersonalized;
  a.candidate_cluster = 2;
  a.shadow_wins = 3;
  a.shadow_seen = 5;
  serve::SessionImage b;
  b.user_id = 4;
  b.state = serve::SessionState::kDegraded;
  b.saved_state = serve::SessionState::kAssigned;
  b.bad_streak = 2;
  b.finetune_enabled = false;
  b.shed = 1;
  snap.sessions = {a, b};
  serve::write_snapshot_file(dir.string(), snap, false);
  expect_golden("snapshot.snap",
                file_bytes(serve::snapshot_path(dir.string())), 612,
                0xf929752b4b19bd0cull);
}

// -- Checkpoints, pipeline.meta, delta artifacts, container ------------------

TEST_F(FormatGolden, CheckpointV2) {
  auto model = fixed_model();
  expect_golden("checkpoint", checkpoint_of(*model), 1886,
                0xb765c989a963dd5full);
}

TEST_F(FormatGolden, PipelineMeta) {
  // The pipeline pins feature_dim to the feature extractor's 123 rows and
  // window_count to the data config; the rest stays tiny.
  core::ClearConfig config = core::smoke_config();
  config.model = tiny_model_config();
  config.finalize();
  core::ClearPipeline::State state;
  state.users = {0, 1, 2, 3};
  std::vector<double> mean, stddev;
  for (int i = 0; i < 6; ++i) {
    mean.push_back(0.5 * i - 1.0);
    stddev.push_back(0.25 * (i + 1));
  }
  state.normalizer =
      features::FeatureNormalizer::from_moments(mean, stddev);
  state.clustering.user_cluster = {0, 1, 0, 1};
  for (std::size_t k = 0; k < 2; ++k) {
    cluster::ClusterModel c;
    c.centroid = {0.5 * k, -0.25, 1.0};
    c.sub_centroids = {{1.0, 2.0, 0.5 * k}, {-1.0, 0.0, 0.125}};
    c.members = {k, k + 2};
    state.clustering.clusters.push_back(c);
  }
  state.clustering.rounds_run = 3;
  state.clustering.converged = true;
  auto model = fixed_model(config.model);
  state.checkpoints = {checkpoint_of(*model), checkpoint_of(*model)};
  core::ClearPipeline pipeline(config);
  pipeline.import_state(std::move(state));
  core::save_pipeline(pipeline, dir.string());
  expect_golden("pipeline.meta", file_bytes(dir / "pipeline.meta"), 624,
                0x2892b06e12c7f1cfull);
}

void perturb_unfrozen(nn::Sequential& model) {
  for (nn::Param* p : model.parameters()) {
    if (p->frozen) continue;
    for (std::size_t j = 0; j < p->value.numel(); ++j)
      p->value[j] += p->value[j] * (static_cast<float>(j % 5) - 2.0f) * 1e-3f;
  }
}

TEST_F(FormatGolden, DeltaArtifactsPerTier) {
  auto base = fixed_model();
  const std::string base_blob = checkpoint_of(*base);
  const serve::delta::BaseRef ref{serve::delta::BaseRef::Kind::kCluster, 1};

  auto fp32 = fixed_model();
  perturb_unfrozen(*fp32);
  serve::delta::EncodeStats stats;
  const auto d32 =
      serve::delta::encode(base_blob, ref, checkpoint_of(*fp32), &stats);
  ASSERT_TRUE(d32.has_value());
  EXPECT_GT(stats.ulp, 0u);
  expect_golden("delta fp32", *d32, 1191, 0x91b2fee2ff4ebd46ull);

  auto fp16 = fixed_model();
  perturb_unfrozen(*fp16);
  for (nn::Param* p : fp16->parameters())
    for (float& v : p->value.flat()) v = edge::round_fp16(v);
  const auto d16 =
      serve::delta::encode(base_blob, ref, checkpoint_of(*fp16), &stats);
  ASSERT_TRUE(d16.has_value());
  EXPECT_GT(stats.half, 0u);
  expect_golden("delta fp16", *d16, 761, 0xcb1f3de09a77a276ull);

  auto int8 = fixed_model();
  perturb_unfrozen(*int8);
  for (nn::Param* p : int8->parameters()) {
    const edge::QuantParams qp = edge::calibrate_max_abs(p->value.flat());
    for (float& v : p->value.flat())
      v = edge::dequantize_value(edge::quantize_value(v, qp), qp);
  }
  const auto d8 =
      serve::delta::encode(base_blob, ref, checkpoint_of(*int8), &stats);
  ASSERT_TRUE(d8.has_value());
  EXPECT_GT(stats.grid8, 0u);
  expect_golden("delta int8", *d8, 619, 0xb2b75637a67e6e9aull);
}

TEST_F(FormatGolden, ArtifactContainer) {
  artifact::Writer writer;
  writer.add_block("alpha", "hello");
  writer.add_block("beta", std::string(1, '\0') + "binary\xff");
  writer.add_block("gamma", "");
  writer.add_block("delta", std::string(37, 'd'));
  expect_golden("CLRART01", writer.finish(), 212, 0x77012830d0c6d34bull);
}

// -- Dataset cache -----------------------------------------------------------

TEST_F(FormatGolden, DatasetCache) {
  wemac::WemacConfig config;
  config.seed = 5;
  config.n_volunteers = 2;
  config.trials_per_volunteer = 2;
  config.windows_per_trial = 3;
  config.window_seconds = 8.0;
  std::vector<wemac::VolunteerMeta> volunteers(2);
  for (std::size_t v = 0; v < 2; ++v) {
    volunteers[v].id = v;
    volunteers[v].archetype_id = 3 - v;
    volunteers[v].profile.volunteer_id = v;
    volunteers[v].profile.archetype_id = 3 - v;
    volunteers[v].profile.hr_base = 70.0 + 2.5 * static_cast<double>(v);
  }
  std::vector<wemac::Sample> samples;
  for (std::size_t i = 0; i < 4; ++i) {
    wemac::Sample s;
    s.volunteer_id = i / 2;
    s.trial_id = i % 2;
    s.emotion = static_cast<wemac::Emotion>(i % 3);
    s.label = static_cast<int>(i % 2);
    s.feature_map = fixed_map(4, 3, static_cast<int>(i));
    samples.push_back(std::move(s));
  }
  const wemac::WemacDataset dataset(config, volunteers, samples);
  const fs::path path = dir / "dataset.bin";
  wemac::save_dataset(dataset, path.string());
  expect_golden("dataset cache", file_bytes(path), 1002,
                0xe03e5b033b9f96e4ull);
}

}  // namespace
}  // namespace clear
