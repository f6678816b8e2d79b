// Each reader accepts exactly the version its writer emits. Files of the
// retired first versions — a "CLEARCKP" checkpoint, a v1 pipeline.meta, a
// "CLRWAL01" journal and a "CLRSNP01" snapshot — are refused with an error
// that names the version found.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "clear/artifacts.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "serve/journal.hpp"

namespace clear {
namespace {

namespace fs = std::filesystem;

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "(no error)";
}

/// A v1-style file: 8-byte magic, u32 version, then one CRC-framed record.
std::string v1_journal_file(const char* magic, std::uint32_t reserved_word) {
  bytes::Writer w;
  w.raw(magic);
  w.u32(1);
  if (reserved_word) w.u32(0);
  const std::size_t at = bytes::begin_record(w);
  for (const std::uint64_t v : {1, 1, 7, 1000}) w.u64(v);
  w.f64(1.0);
  bytes::end_record(w, at);
  return w.take();
}

TEST(FormatVersions, RefusesEveryV1FileNamingItsVersion) {
  const fs::path dir = fs::temp_directory_path() / "clear_format_v1";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Checkpoint v1: "CLEARCKP", then the raw payload (no length, no CRC).
  bytes::Writer ckpt;
  ckpt.u64(0x434C454152434B50ull);
  ckpt.u64(0);
  const std::string ckpt_v1 = ckpt.take();
  Rng rng(1);
  nn::CnnLstmConfig config;
  config.feature_dim = 16;
  config.window_count = 8;
  auto model = nn::build_cnn_lstm(config, rng);
  const std::string ckpt_error =
      error_of([&] { nn::load_checkpoint(ckpt_v1, *model); });
  EXPECT_NE(ckpt_error.find("\"CLEARCKP\""), std::string::npos) << ckpt_error;

  // pipeline.meta v1: "CLEARMET", version 1, raw fields.
  bytes::Writer meta;
  meta.u64(0x434C4541524D4554ull);
  meta.u64(1);
  meta.u64(123);
  write_bytes(dir / "pipeline.meta", meta.take());
  const std::string meta_error =
      error_of([&] { core::load_artifact_meta(dir.string()); });
  EXPECT_NE(meta_error.find("pipeline.meta version 1"), std::string::npos)
      << meta_error;

  // Journal v1: refused at the header, every byte dropped.
  write_bytes(serve::journal_log_path(dir.string()),
              v1_journal_file("CLRWAL01", /*reserved_word=*/1));
  const serve::JournalReadResult read = serve::read_journal(dir.string());
  EXPECT_TRUE(read.records.empty());
  EXPECT_EQ(read.tail_bytes_dropped,
            fs::file_size(serve::journal_log_path(dir.string())));
  EXPECT_NE(read.header_error.find("format version 1"), std::string::npos)
      << read.header_error;

  // Snapshot v1.
  write_bytes(serve::snapshot_path(dir.string()),
              v1_journal_file("CLRSNP01", /*reserved_word=*/0));
  const std::string snap_error =
      error_of([&] { serve::read_snapshot(dir.string()); });
  EXPECT_NE(snap_error.find("format version 1"), std::string::npos)
      << snap_error;

  fs::remove_all(dir);
}

}  // namespace
}  // namespace clear
