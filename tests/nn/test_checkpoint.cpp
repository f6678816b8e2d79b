#include "nn/checkpoint.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "nn/model.hpp"

namespace clear::nn {
namespace {

CnnLstmConfig tiny_model_config() {
  CnnLstmConfig c;
  c.feature_dim = 16;
  c.window_count = 8;
  c.conv1_channels = 2;
  c.conv2_channels = 3;
  c.lstm_hidden = 4;
  return c;
}

TEST(Checkpoint, StreamRoundTripRestoresWeights) {
  Rng r1(1), r2(2);
  auto a = build_cnn_lstm(tiny_model_config(), r1);
  auto b = build_cnn_lstm(tiny_model_config(), r2);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  save_checkpoint(ss, *a);
  load_checkpoint(ss, *b);
  const auto pa = a->parameters();
  const auto pb = b->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j)
      EXPECT_EQ(pa[i]->value[j], pb[i]->value[j]);
}

TEST(Checkpoint, RestoredModelGivesIdenticalOutputs) {
  Rng r1(3), r2(4), rx(5);
  auto a = build_cnn_lstm(tiny_model_config(), r1);
  auto b = build_cnn_lstm(tiny_model_config(), r2);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  save_checkpoint(ss, *a);
  load_checkpoint(ss, *b);
  a->set_training(false);
  b->set_training(false);
  Tensor x({2, 1, 16, 8});
  x.fill_normal(rx, 0.0f, 1.0f);
  const Tensor ya = a->forward(x);
  const Tensor yb = b->forward(x);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

/// Checkpoint files go through the one atomic writer (fault sites
/// "checkpoint write" then "checkpoint rename").
void save_checkpoint_file(const std::string& path, Sequential& model) {
  bytes::write_file_atomic(path, encode_checkpoint(model), "checkpoint");
}

void load_checkpoint_file(const std::string& path, Sequential& model) {
  load_checkpoint(bytes::read_file(path), model);
}

TEST(Checkpoint, FileRoundTrip) {
  namespace fs = std::filesystem;
  Rng r1(6), r2(7);
  auto a = build_cnn_lstm(tiny_model_config(), r1);
  auto b = build_cnn_lstm(tiny_model_config(), r2);
  const std::string path =
      (fs::temp_directory_path() / "clear_ckpt_test.bin").string();
  save_checkpoint_file(path, *a);
  load_checkpoint_file(path, *b);
  EXPECT_EQ(a->parameters()[0]->value[0], b->parameters()[0]->value[0]);
  fs::remove(path);
}

TEST(Checkpoint, ArchitectureMismatchRejected) {
  Rng r1(8), r2(9);
  auto a = build_cnn_lstm(tiny_model_config(), r1);
  CnnLstmConfig other = tiny_model_config();
  other.lstm_hidden = 5;  // Different shape.
  auto b = build_cnn_lstm(other, r2);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  save_checkpoint(ss, *a);
  EXPECT_THROW(load_checkpoint(ss, *b), Error);
}

TEST(Checkpoint, GarbageStreamRejected) {
  Rng rng(10);
  auto m = build_cnn_lstm(tiny_model_config(), rng);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ss << "definitely not a checkpoint";
  EXPECT_THROW(load_checkpoint(ss, *m), Error);
}

TEST(Checkpoint, MissingFileThrows) {
  Rng rng(11);
  auto m = build_cnn_lstm(tiny_model_config(), rng);
  EXPECT_THROW(load_checkpoint_file("/nonexistent/ckpt.bin", *m), Error);
}

// ---------------------------------------------------------------------------
// Corruption taxonomy: every way a checkpoint file can rot must produce a
// distinct, descriptive error — never silently wrong weights.

std::string serialized_checkpoint(Sequential& model) {
  return encode_checkpoint(model);
}

void expect_load_error(const std::string& bytes, Sequential& model,
                       const std::string& needle) {
  try {
    load_checkpoint(bytes, model);
    FAIL() << "expected error containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(CheckpointIntegrity, EveryFlippedByteIsCaught) {
  Rng r1(22), r2(23);
  auto a = build_cnn_lstm(tiny_model_config(), r1);
  auto b = build_cnn_lstm(tiny_model_config(), r2);
  const std::string bytes =
      serialized_checkpoint(*a);
  // Flipping any byte anywhere in the file must throw — magic, version,
  // length, payload, or CRC footer. Stride keeps the test fast while still
  // covering every region, and the first 32 header bytes are covered densely.
  for (std::size_t i = 0; i < bytes.size();
       i += (i < 32 ? 1 : std::max<std::size_t>(1, bytes.size() / 97))) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_THROW(load_checkpoint(bad, *b), Error) << "flip at byte " << i;
  }
  // And the undamaged bytes still load (the model was never half-written).
  load_checkpoint(bytes, *b);
  EXPECT_EQ(a->parameters()[0]->value[0], b->parameters()[0]->value[0]);
}

TEST(CheckpointIntegrity, PayloadBitFlipReportsCrcMismatch) {
  Rng r1(24), r2(25);
  auto a = build_cnn_lstm(tiny_model_config(), r1);
  auto b = build_cnn_lstm(tiny_model_config(), r2);
  std::string bytes = serialized_checkpoint(*a);
  bytes[bytes.size() / 2] ^= 0x01;  // Single bit, middle of the weights.
  expect_load_error(bytes, *b, "CRC mismatch");
}

TEST(CheckpointIntegrity, TruncationReportsTruncation) {
  Rng r1(26), r2(27);
  auto a = build_cnn_lstm(tiny_model_config(), r1);
  auto b = build_cnn_lstm(tiny_model_config(), r2);
  const std::string bytes =
      serialized_checkpoint(*a);
  // Cut inside the payload.
  expect_load_error(bytes.substr(0, bytes.size() / 2), *b,
                    "truncated checkpoint");
  // Cut inside the CRC footer.
  expect_load_error(bytes.substr(0, bytes.size() - 3), *b,
                    "missing CRC footer");
}

TEST(CheckpointIntegrity, WrongVersionReportsVersion) {
  Rng r1(28), r2(29);
  auto a = build_cnn_lstm(tiny_model_config(), r1);
  auto b = build_cnn_lstm(tiny_model_config(), r2);
  std::string bytes = serialized_checkpoint(*a);
  bytes[8] = 99;  // Version field follows the 8-byte magic.
  expect_load_error(bytes, *b, "unsupported checkpoint version");
}

TEST(CheckpointIntegrity, CorruptLengthIsTruncationNotAnAllocation) {
  // A flipped length byte once asked for up to 4 GiB before any read: the
  // reader must check the declared length against the bytes present first,
  // so a bit-rotted checkpoint is a clean "truncated" error on a device
  // with little memory, not an out-of-memory kill.
  Rng r1(34), r2(35);
  auto a = build_cnn_lstm(tiny_model_config(), r1);
  auto b = build_cnn_lstm(tiny_model_config(), r2);
  std::string bytes = serialized_checkpoint(*a);
  for (int i = 0; i < 4; ++i) bytes[16 + i] = static_cast<char>(0xFF);
  for (int i = 4; i < 8; ++i) bytes[16 + i] = 0;  // length = 2^32 - 1
  expect_load_error(bytes, *b, "truncated checkpoint");
  rusage usage{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  EXPECT_LT(usage.ru_maxrss, 256L * 1024) << "peak RSS in KiB";
}

TEST(CheckpointIntegrity, InjectedCrashLeavesOnlyStaleTempFile) {
  namespace fs = std::filesystem;
  Rng r1(30), r2(31);
  auto a = build_cnn_lstm(tiny_model_config(), r1);
  auto b = build_cnn_lstm(tiny_model_config(), r2);
  const std::string path =
      (fs::temp_directory_path() / "clear_ckpt_crash.bin").string();
  fs::remove(path);
  fs::remove(path + ".tmp");
  // Crash at the commit point: temp file written, rename never happens.
  fault::arm_io_failure(2);  // 1 = write guard, 2 = rename guard.
  EXPECT_THROW(save_checkpoint_file(path, *a), Error);
  fault::disarm_io_failure();
  EXPECT_FALSE(fs::exists(path));  // Never committed...
  ASSERT_TRUE(fs::exists(path + ".tmp"));  // ...but the temp file remains.
  // The stale temp file itself is a complete v2 blob, so a recovery tool
  // may load it; the *final* path simply does not exist.
  EXPECT_THROW(load_checkpoint_file(path, *b), Error);
  load_checkpoint_file(path + ".tmp", *b);
  EXPECT_EQ(a->parameters()[0]->value[0], b->parameters()[0]->value[0]);
  fs::remove(path + ".tmp");
}

TEST(CheckpointIntegrity, SaveRetriesCleanlyAfterInjectedFailure) {
  namespace fs = std::filesystem;
  Rng r1(32), r2(33);
  auto a = build_cnn_lstm(tiny_model_config(), r1);
  auto b = build_cnn_lstm(tiny_model_config(), r2);
  const std::string path =
      (fs::temp_directory_path() / "clear_ckpt_retry.bin").string();
  fault::arm_io_failure(1);  // Fail before the temp file is written.
  EXPECT_THROW(save_checkpoint_file(path, *a), Error);
  fault::disarm_io_failure();
  save_checkpoint_file(path, *a);  // Retry succeeds.
  load_checkpoint_file(path, *b);
  EXPECT_EQ(a->parameters()[0]->value[0], b->parameters()[0]->value[0]);
  fs::remove(path);
}

TEST(Snapshot, RestoreBringsWeightsBack) {
  Rng rng(12);
  auto m = build_cnn_lstm(tiny_model_config(), rng);
  const std::vector<Tensor> snap = snapshot_parameters(*m);
  // Clobber all weights.
  for (Param* p : m->parameters()) p->value.fill(9.0f);
  restore_parameters(*m, snap);
  const auto params = m->parameters();
  for (std::size_t i = 0; i < params.size(); ++i)
    for (std::size_t j = 0; j < params[i]->value.numel(); ++j)
      EXPECT_EQ(params[i]->value[j], snap[i][j]);
}

TEST(Snapshot, SizeMismatchRejected) {
  Rng rng(13);
  auto m = build_cnn_lstm(tiny_model_config(), rng);
  EXPECT_THROW(restore_parameters(*m, {}), Error);
}

}  // namespace
}  // namespace clear::nn
