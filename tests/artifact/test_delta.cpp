// Property tests for the CLRART01 artifact container and the delta
// checkpoint codec: byte-identical reconstruction for every unfrozen-layer
// shape and serving tier, addressed rejection of damaged containers, and
// fallbacks to full storage.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "artifact/store.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "edge/quantize.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "nn/sequential.hpp"
#include "serve/delta.hpp"

namespace clear {
namespace {

using serve::delta::BaseRef;
using serve::delta::EncodeStats;

nn::CnnLstmConfig small_config() {
  nn::CnnLstmConfig config;
  config.feature_dim = 20;
  config.window_count = 4;
  config.conv1_channels = 3;
  config.conv2_channels = 4;
  config.lstm_hidden = 8;
  return config;
}

std::unique_ptr<nn::Sequential> make_model(std::uint64_t seed) {
  Rng rng(seed);
  auto model = nn::build_cnn_lstm(small_config(), rng);
  model->freeze_below(nn::fine_tune_boundary());
  return model;
}

std::string blob_of(nn::Sequential& model) {
  return nn::encode_checkpoint(model);
}

/// Nudge every unfrozen weight by a small relative step — the shape of an
/// fp32 fine-tune (nearly every weight changes, each by a few ULPs).
void perturb_unfrozen_fp32(nn::Sequential& model, std::uint64_t seed) {
  Rng rng(seed);
  for (nn::Param* p : model.parameters()) {
    if (p->frozen) continue;
    for (float& v : p->value.flat())
      v += v * static_cast<float>(rng.uniform(-3e-3, 3e-3)) +
           static_cast<float>(rng.normal(0.0, 1e-7));
  }
}

/// Project every parameter through the fp16 grid (the NCS2 serving tier
/// stores fp16-representable values in the personal checkpoint).
void project_fp16(nn::Sequential& model) {
  for (nn::Param* p : model.parameters())
    for (float& v : p->value.flat()) v = edge::round_fp16(v);
}

/// Project every parameter onto its own symmetric int8 grid (the Edge-TPU
/// serving tier: values are exactly scale * q after fake quantization).
void project_int8(nn::Sequential& model) {
  for (nn::Param* p : model.parameters()) {
    const edge::QuantParams qp = edge::calibrate_max_abs(p->value.flat());
    for (float& v : p->value.flat())
      v = edge::dequantize_value(edge::quantize_value(v, qp), qp);
  }
}

// ---------------------------------------------------------------------------
// Artifact container
// ---------------------------------------------------------------------------

TEST(ArtifactStore, RoundTripsBlocksWithAlignment) {
  artifact::Writer writer;
  writer.add_block("alpha", "hello");
  writer.add_block("beta", std::string(1, '\0') + "binary\xff");
  writer.add_block("gamma", "");
  const std::string bytes = writer.finish();

  ASSERT_TRUE(artifact::Reader::is_artifact(bytes));
  const artifact::Reader reader(bytes);
  ASSERT_EQ(reader.block_count(), 3u);
  EXPECT_EQ(reader.block("alpha"), "hello");
  EXPECT_EQ(reader.block(1), std::string(1, '\0') + "binary\xff");
  EXPECT_EQ(reader.block("gamma"), "");
  EXPECT_EQ(reader.info(0).name, "alpha");
  EXPECT_EQ(reader.info(1).offset % 8, 0u) << "blocks must be 8-byte aligned";
  EXPECT_EQ(reader.find("delta"), nullptr);
  EXPECT_THROW(reader.block("delta"), Error);
}

TEST(ArtifactStore, RejectsBitFlipsWithAddressedErrors) {
  artifact::Writer writer;
  writer.add_block("payload", std::string(300, 'x'));
  const std::string good = writer.finish();
  const artifact::Reader good_reader(good);
  const std::size_t block_off =
      static_cast<std::size_t>(good_reader.info(0).offset);

  std::string bad = good;
  bad[block_off + 7] ^= 0x40;  // inside block 0
  const artifact::Reader reader(bad);  // index still intact
  try {
    (void)reader.block(0);
    FAIL() << "corrupt block accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("block 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("payload"), std::string::npos) << msg;
    EXPECT_NE(msg.find("CRC mismatch"), std::string::npos) << msg;
  }
}

TEST(ArtifactStore, RejectsTruncation) {
  artifact::Writer writer;
  writer.add_block("payload", std::string(100, 'y'));
  const std::string good = writer.finish();
  for (const std::size_t keep :
       {good.size() - 1, good.size() - 20, std::size_t{40}, std::size_t{0}}) {
    EXPECT_THROW(artifact::Reader r(good.substr(0, keep)), Error)
        << "accepted truncation to " << keep << " bytes";
  }
}

TEST(ArtifactStore, FuzzNeverCrashes) {
  artifact::Writer writer;
  writer.add_block("a", std::string(64, 'a'));
  writer.add_block("b", std::string(17, 'b'));
  const std::string good = writer.finish();
  Rng rng(0xA27Full);
  for (int iter = 0; iter < 400; ++iter) {
    std::string bytes = good;
    const int mutations = 1 + static_cast<int>(rng.uniform_index(4));
    for (int m = 0; m < mutations; ++m)
      bytes[rng.uniform_index(bytes.size())] ^=
          static_cast<char>(1u << rng.uniform_index(8));
    try {
      const artifact::Reader reader(bytes);
      for (std::size_t i = 0; i < reader.block_count(); ++i)
        (void)reader.block(i);
    } catch (const Error&) {
      // Rejection is the expected outcome; crashing or UB is the bug.
    }
  }
  // Pure garbage, arbitrary lengths.
  for (int iter = 0; iter < 400; ++iter) {
    std::string bytes(rng.uniform_index(200), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.next_u64());
    try {
      const artifact::Reader reader(bytes);
      for (std::size_t i = 0; i < reader.block_count(); ++i)
        (void)reader.block(i);
    } catch (const Error&) {
    }
  }
}

// ---------------------------------------------------------------------------
// Delta codec: bit-identical round-trips
// ---------------------------------------------------------------------------

TEST(DeltaCodec, RoundTripsFp32FineTune) {
  auto base = make_model(11);
  auto ft = make_model(11);
  perturb_unfrozen_fp32(*ft, 99);
  const std::string base_blob = blob_of(*base);
  const std::string ft_blob = blob_of(*ft);

  EncodeStats stats;
  const auto delta =
      serve::delta::encode(base_blob, BaseRef{BaseRef::Kind::kCluster, 3},
                           ft_blob, &stats);
  ASSERT_TRUE(delta.has_value());
  EXPECT_LT(delta->size(), ft_blob.size());
  EXPECT_GT(stats.same, 0u) << "frozen conv tensors should encode as kSame";
  EXPECT_GT(stats.ulp, 0u) << "small fp32 steps should pick kUlpDelta";
  EXPECT_TRUE(serve::delta::is_delta(*delta));
  EXPECT_FALSE(serve::delta::is_delta(ft_blob));

  const BaseRef ref = serve::delta::base_of(*delta);
  EXPECT_EQ(ref.kind, BaseRef::Kind::kCluster);
  EXPECT_EQ(ref.id, 3u);

  EXPECT_EQ(serve::delta::decode(*delta, base_blob), ft_blob);
}

TEST(DeltaCodec, RoundTripsFp16Tier) {
  auto base = make_model(21);
  auto ft = make_model(21);
  perturb_unfrozen_fp32(*ft, 7);
  project_fp16(*ft);
  const std::string base_blob = blob_of(*base);
  const std::string ft_blob = blob_of(*ft);

  EncodeStats stats;
  const auto delta = serve::delta::encode(
      base_blob, BaseRef{BaseRef::Kind::kGeneral, 0}, ft_blob, &stats);
  ASSERT_TRUE(delta.has_value());
  EXPECT_GT(stats.half, 0u) << "fp16-projected tensors should pick kHalf";
  EXPECT_LT(delta->size() * 2, ft_blob.size())
      << "fp16 tier should compress at least 2x";
  EXPECT_EQ(serve::delta::decode(*delta, base_blob), ft_blob);
}

TEST(DeltaCodec, RoundTripsInt8Tier) {
  auto base = make_model(31);
  auto ft = make_model(31);
  perturb_unfrozen_fp32(*ft, 8);
  project_int8(*ft);
  const std::string base_blob = blob_of(*base);
  const std::string ft_blob = blob_of(*ft);

  EncodeStats stats;
  const auto delta = serve::delta::encode(
      base_blob, BaseRef{BaseRef::Kind::kCluster, 0}, ft_blob, &stats);
  ASSERT_TRUE(delta.has_value());
  EXPECT_GT(stats.grid8, 0u) << "int8-projected tensors should pick kGrid8";
  EXPECT_LT(delta->size() * 3, ft_blob.size())
      << "int8 tier should compress at least 3x";
  EXPECT_EQ(serve::delta::decode(*delta, base_blob), ft_blob);
}

TEST(DeltaCodec, RoundTripsEveryUnfrozenTensorShape) {
  // Perturb one unfrozen tensor at a time: every parameter shape in the
  // fine-tunable head must reconstruct bit-identically on its own.
  auto base = make_model(41);
  const std::string base_blob = blob_of(*base);
  const std::vector<nn::Param*> params = base->parameters();
  std::size_t unfrozen = 0;
  for (std::size_t target = 0; target < params.size(); ++target) {
    if (params[target]->frozen) continue;
    ++unfrozen;
    auto ft = make_model(41);
    nn::Param* p = ft->parameters()[target];
    Rng rng(1000 + target);
    for (float& v : p->value.flat())
      v += static_cast<float>(rng.normal(0.0, 1e-4));
    const std::string ft_blob = blob_of(*ft);
    const auto delta = serve::delta::encode(
        base_blob, BaseRef{BaseRef::Kind::kCluster, 0}, ft_blob, nullptr);
    ASSERT_TRUE(delta.has_value()) << "param " << target;
    EXPECT_EQ(serve::delta::decode(*delta, base_blob), ft_blob)
        << "param " << target << " (" << p->name << ")";
  }
  EXPECT_GT(unfrozen, 0u);
}

// ---------------------------------------------------------------------------
// Delta codec: fallbacks
// ---------------------------------------------------------------------------

TEST(DeltaCodec, FallsBackOnMismatchedArchitectures) {
  auto base = make_model(51);
  Rng rng(52);
  nn::CnnLstmConfig other = small_config();
  other.lstm_hidden = 16;
  auto ft = nn::build_cnn_lstm(other, rng);
  EXPECT_FALSE(serve::delta::encode(blob_of(*base),
                                    BaseRef{BaseRef::Kind::kCluster, 0},
                                    blob_of(*ft), nullptr)
                   .has_value());
}

TEST(DeltaCodec, FallsBackOnNonCanonicalInput) {
  // A fine-tune blob that is not exactly a checkpoint encoding (here: a
  // trailing byte) cannot be reconstructed byte-identically, so the encoder
  // must decline rather than mangle it.
  auto base = make_model(61);
  auto ft = make_model(61);
  perturb_unfrozen_fp32(*ft, 62);
  const auto delta = serve::delta::encode(
      blob_of(*base), BaseRef{BaseRef::Kind::kCluster, 0},
      blob_of(*ft) + '\0', nullptr);
  EXPECT_FALSE(delta.has_value());
}

TEST(DeltaCodec, FallsBackOnLegacyV1Input) {
  // A retired v1 blob ("CLEARCKP", then the bare v2 payload: no version,
  // length or CRC) no longer parses, so the encoder must decline rather than
  // throw or mangle it.
  auto base = make_model(61);
  auto ft = make_model(61);
  perturb_unfrozen_fp32(*ft, 62);
  const std::string v2 = blob_of(*ft);
  bytes::Writer v1;
  v1.u64(0x434C454152434B50ull);  // "CLEARCKP"
  v1.raw(std::string_view(v2).substr(24, v2.size() - 32));
  const auto delta = serve::delta::encode(
      blob_of(*base), BaseRef{BaseRef::Kind::kCluster, 0}, v1.take(), nullptr);
  EXPECT_FALSE(delta.has_value());
}

TEST(DeltaCodec, LegacyBlobsAreNotDeltas) {
  auto model = make_model(71);
  EXPECT_FALSE(serve::delta::is_delta(blob_of(*model)));
  EXPECT_FALSE(serve::delta::is_delta(""));
}

TEST(DeltaCodec, RejectsWrongBaseWithAddressedError) {
  auto base = make_model(81);
  auto ft = make_model(81);
  perturb_unfrozen_fp32(*ft, 82);
  const std::string base_blob = blob_of(*base);
  const std::string ft_blob = blob_of(*ft);
  const auto delta = serve::delta::encode(
      base_blob, BaseRef{BaseRef::Kind::kCluster, 5}, ft_blob, nullptr);
  ASSERT_TRUE(delta.has_value());

  auto drifted = make_model(83);  // different weights: CRC cannot match
  try {
    (void)serve::delta::decode(*delta, blob_of(*drifted));
    FAIL() << "drifted base accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("delta base mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cluster 5"), std::string::npos) << msg;
  }
}

TEST(DeltaCodec, RejectsCorruptionOrReconstructsExactly) {
  auto base = make_model(91);
  auto ft = make_model(91);
  perturb_unfrozen_fp32(*ft, 92);
  const std::string base_blob = blob_of(*base);
  const std::string ft_blob = blob_of(*ft);
  const auto delta = serve::delta::encode(
      base_blob, BaseRef{BaseRef::Kind::kCluster, 0}, ft_blob, nullptr);
  ASSERT_TRUE(delta.has_value());

  // Truncations are always rejected.
  for (const std::size_t keep : {delta->size() - 1, delta->size() / 2}) {
    EXPECT_THROW((void)serve::delta::decode(delta->substr(0, keep), base_blob),
                 Error);
  }

  // Random bit flips: every outcome must be either an addressed rejection
  // or (when the flip lands in alignment padding) the exact original blob.
  Rng rng(0xDE17Aull);
  int rejected = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::string bytes = *delta;
    bytes[rng.uniform_index(bytes.size())] ^=
        static_cast<char>(1u << rng.uniform_index(8));
    try {
      EXPECT_EQ(serve::delta::decode(bytes, base_blob), ft_blob);
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace clear
