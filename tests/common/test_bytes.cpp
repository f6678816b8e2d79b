// The shared byte codec (src/common/bytes): little-endian scalars, checked
// reads with addressed errors, record framing, the sealed envelope, and the
// atomic file writer's fault sites.
#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"

namespace clear::bytes {
namespace {

namespace fs = std::filesystem;

/// Expect `f` to throw clear::Error whose message contains `needle`.
template <typename F>
void expect_error(F f, const std::string& needle) {
  try {
    f();
    FAIL() << "expected an error containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(Bytes, ScalarsAreLittleEndianAndRoundTrip) {
  Writer w;
  w.u8(0x01);
  w.u16(0x0302);
  w.u32(0x07060504u);
  w.u64(0x0F0E0D0C0B0A0908ull);
  w.i32(-2);
  w.f64(0.5);
  const std::string b = w.take();
  ASSERT_EQ(b.size(), 1u + 2 + 4 + 8 + 4 + 8);
  for (int i = 0; i < 15; ++i)
    EXPECT_EQ(static_cast<unsigned char>(b[i]), i + 1) << "byte " << i;
  Reader r(b);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u16(), 0x0302);
  EXPECT_EQ(r.u32(), 0x07060504u);
  EXPECT_EQ(r.u64(), 0x0F0E0D0C0B0A0908ull);
  EXPECT_EQ(r.i32(), -2);
  EXPECT_EQ(r.f64(), 0.5);
  r.expect_end();
}

TEST(Bytes, FloatArraysMoveAsBitPatterns) {
  const std::vector<float> in = {-0.0f, std::numeric_limits<float>::quiet_NaN(),
                                 1.5f, -std::numeric_limits<float>::infinity()};
  Writer w;
  w.f32s(in);
  w.f32(in[0]);
  const std::string b = w.take();
  ASSERT_EQ(b.size(), 5 * sizeof(float));
  Reader r(b);
  std::vector<float> out(in.size());
  r.f32s(out);
  EXPECT_EQ(std::memcmp(out.data(), in.data(), 4 * sizeof(float)), 0);
  EXPECT_TRUE(std::signbit(r.f32()));
}

TEST(Bytes, VarintsRoundTripAndRejectDamage) {
  Writer w;
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{300}, std::numeric_limits<std::uint64_t>::max()})
    w.varint(v);
  const std::string b = w.take();
  EXPECT_EQ(b.size(), 1u + 1 + 2 + 2 + 10);
  Reader r(b);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_EQ(r.varint(), 127u);
  EXPECT_EQ(r.varint(), 128u);
  EXPECT_EQ(r.varint(), 300u);
  EXPECT_EQ(r.varint(), std::numeric_limits<std::uint64_t>::max());
  expect_error([] { Reader("\x80\x80", "v").varint(); },
               "v truncated in a varint at offset 0");
  const std::string overlong(11, '\x80');
  expect_error([&] { Reader(overlong, "v").varint(); }, "overruns 64 bits");
}

TEST(Bytes, ShortReadsNameTheOffset) {
  expect_error(
      [] {
        Reader r(std::string_view("abc", 3), "thing");
        r.u16();
        r.u32();
      },
      "thing truncated: need 4 byte(s) at offset 2, have 1");
  expect_error([] { Reader("abc", "thing").bytes(1ull << 62); },
               "thing truncated");
  expect_error(
      [] {
        Reader r("abcd", "thing");
        r.u16();
        r.expect_end();
      },
      "thing has 2 trailing byte(s) after offset 2");
}

TEST(Bytes, CountsMustFitInTheBytesLeft) {
  // A corrupt count is rejected before it can size an allocation.
  const std::string sixteen(16, '\0');
  Reader r(sixteen, "list");
  EXPECT_EQ(r.count(2, 8), 2u);
  EXPECT_EQ(r.count(0, 8), 0u);
  expect_error([&] { r.count(3, 8); }, "list truncated: count 3");
  expect_error([&] { r.count(1ull << 63, 8); }, "list truncated");
}

TEST(Bytes, RecordFramingRoundTripsAndClassifiesDamage) {
  Writer w;
  const std::size_t at = begin_record(w);
  w.raw("payload");
  end_record(w, at);
  const std::string frame = w.take();
  ASSERT_EQ(frame.size(), 8u + 7);
  Reader header(frame);
  EXPECT_EQ(header.u32(), 7u);
  EXPECT_EQ(header.u32(), crc32("payload", 7));

  const Record ok = read_record(frame, 64);
  ASSERT_EQ(ok.status, RecordStatus::kOk);
  EXPECT_EQ(ok.payload, "payload");
  EXPECT_EQ(read_record(frame.substr(0, 5), 64).status, RecordStatus::kShort);
  EXPECT_EQ(read_record(frame.substr(0, 14), 64).status,
            RecordStatus::kShort);
  // The bound is checked from the header alone, before the payload arrives.
  EXPECT_EQ(read_record(frame.substr(0, 8), 6).status,
            RecordStatus::kTooLong);
  std::string flipped = frame;
  flipped[10] ^= 0x01;
  const Record bad = read_record(flipped, 64);
  EXPECT_EQ(bad.status, RecordStatus::kBadCrc);
  EXPECT_EQ(bad.crc, ok.crc);
  EXPECT_NE(bad.computed, bad.crc);
}

TEST(Bytes, SealedEnvelopeNamesEveryFailure) {
  constexpr std::uint64_t kMagic = 0x5445535442595445ull;  // "TESTBYTE"
  Writer w;
  const std::size_t at = begin_sealed(w, kMagic, 3);
  w.raw("body");
  end_sealed(w, at);
  const std::string blob = w.take();
  ASSERT_EQ(blob.size(), 24u + 4 + 8);
  EXPECT_EQ(open_sealed(blob, kMagic, 3, "thing"), "body");

  expect_error([&] { open_sealed(blob, kMagic + 1, 3, "thing"); },
               "bad thing magic \"TESTBYTE\" (expected \"TESTBYTF\")");
  expect_error([&] { open_sealed(blob, kMagic, 4, "thing"); },
               "unsupported thing version 3 (this reader supports v4)");
  expect_error([&] { open_sealed(blob.substr(0, 26), kMagic, 3, "thing"); },
               "truncated thing: payload has 2 of 4 bytes");
  expect_error([&] { open_sealed(blob.substr(0, 30), kMagic, 3, "thing"); },
               "truncated thing: missing CRC footer");
  expect_error([&] { open_sealed(blob + "x", kMagic, 3, "thing"); },
               "thing has 1 trailing byte(s) after its CRC footer");
  std::string flipped = blob;
  flipped[25] ^= 0x01;
  expect_error([&] { open_sealed(flipped, kMagic, 3, "thing"); },
               "thing CRC mismatch");
  EXPECT_EQ(open_sealed(flipped, kMagic, 3, "thing", /*verify_crc=*/false),
            "bndy");
  std::string huge = blob;
  for (int i = 16; i < 24; ++i) huge[i] = static_cast<char>(0xFF);
  expect_error([&] { open_sealed(huge, kMagic, 3, "thing"); },
               "truncated thing");
}

TEST(Bytes, AtomicWriteFaultsLeaveTheOldFile) {
  const fs::path dir = fs::temp_directory_path() / "clear_bytes_atomic";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "file.bin").string();
  EXPECT_EQ(read_file(path), "");  // Missing reads as empty.
  write_file_atomic(path, "old", "thing", /*do_fsync=*/true);
  EXPECT_EQ(read_file(path), "old");
  const char* sites[] = {"thing write", "thing fsync", "thing rename"};
  for (std::uint64_t countdown = 1; countdown <= 3; ++countdown) {
    fault::arm_io_failure(countdown);
    expect_error([&] { write_file_atomic(path, "new", "thing", true); },
                 std::string("injected IO failure at ") + sites[countdown - 1]);
    fault::disarm_io_failure();
    EXPECT_EQ(read_file(path), "old") << "countdown " << countdown;
  }
  write_file_atomic(path, "new", "thing");
  EXPECT_EQ(read_file(path), "new");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace clear::bytes
