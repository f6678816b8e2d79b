// The one byte codec behind every format the repository sends or stores:
// wire frames, the journal and its snapshots, checkpoints, pipeline.meta,
// delta artifacts, CLRART01 containers and the dataset cache
// (docs/FORMATS.md is the normative spec; this header is the source of
// truth for its conventions).
//
//   * Writer appends little-endian scalars, LEB128 varints and raw bytes to
//     a byte string. Floats move as bit patterns, so encode ∘ decode is the
//     identity on every value, NaN payloads included.
//   * Reader walks a std::string_view. Every read, length and element
//     count is checked against the bytes left *before* anything is
//     allocated, and every error names the byte offset — a corrupt length
//     field yields "truncated", never a huge allocation.
//   * Record framing `[u32 len][u32 crc32(payload)][payload]` (journal
//     records, wire frames, the snapshot file) and the sealed envelope
//     `u64 magic, u64 version, u64 len, payload, u64 crc32(payload)`
//     (checkpoints, pipeline.meta) are written and parsed only here.
//   * write_file_atomic / read_file are the one temp-then-rename writer and
//     the one whole-file reader.
//
// All supported targets are little-endian, so scalars and f32 arrays are
// copied verbatim (one memcpy per array).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace clear::bytes {

static_assert(std::endian::native == std::endian::little,
              "the byte codec copies scalars and f32 arrays verbatim");

class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { out_.reserve(reserve); }

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { put(v); }
  void f32(float v) { put(v); }
  void f64(double v) { put(v); }
  /// A whole f32 array in one copy.
  void f32s(std::span<const float> v) {
    out_.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
  }
  /// LEB128: 7 value bits per byte, high bit set on all but the last.
  void varint(std::uint64_t v) {
    for (; v >= 0x80u; v >>= 7) u8(static_cast<std::uint8_t>(v | 0x80u));
    u8(static_cast<std::uint8_t>(v));
  }
  void raw(std::string_view b) { out_.append(b); }
  void zeros(std::size_t n) { out_.append(n, '\0'); }

  /// Overwrite a value written earlier at byte offset `at`.
  void patch_u32(std::size_t at, std::uint32_t v) { patch(at, v); }
  void patch_u64(std::size_t at, std::uint64_t v) { patch(at, v); }

  std::size_t size() const { return out_.size(); }
  const char* data() const { return out_.data(); }
  /// The bytes written so far; the Writer is empty afterwards.
  std::string take() { return std::move(out_); }

 private:
  template <typename T>
  void put(T v) {
    char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    out_.append(b, sizeof(T));
  }
  template <typename T>
  void patch(std::size_t at, T v) {
    std::memcpy(out_.data() + at, &v, sizeof(T));
  }

  std::string out_;
};

/// Bounds-checked cursor over a byte view. Every failure throws
/// clear::Error naming `what` and the byte offset:
///   "<what> truncated: need N byte(s) at offset P, have M"
///   "<what> has N trailing byte(s) after offset P"
/// The view must outlive the Reader (and any bytes() it hands out).
class Reader {
 public:
  explicit Reader(std::string_view in, const char* what = "payload")
      : in_(in), what_(what) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(*take(1)); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  float f32() { return get<float>(); }
  double f64() { return get<double>(); }
  std::uint64_t varint() {
    const std::size_t start = pos_;
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ == in_.size()) bad_varint(start, /*overrun=*/false);
      const auto b = static_cast<std::uint8_t>(in_[pos_++]);
      v |= std::uint64_t(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) return v;
    }
    bad_varint(start, /*overrun=*/true);
  }
  /// The next `n` bytes as a view into the input.
  std::string_view bytes(std::uint64_t n) {
    return {take(checked(n)), static_cast<std::size_t>(n)};
  }
  /// Fill `out` from the next out.size() f32s in one copy.
  void f32s(std::span<float> out) {
    const char* p = take(out.size_bytes());
    if (!out.empty()) std::memcpy(out.data(), p, out.size_bytes());
  }

  /// A count read from the input, checked to fit: `n` items of at least
  /// `min_bytes` each must fit in the bytes left, so a corrupt count can
  /// never size an allocation. Returns `n` as a size.
  std::size_t count(std::uint64_t n, std::size_t min_bytes);

  std::size_t remaining() const { return in_.size() - pos_; }
  /// Throws unless every byte was consumed.
  void expect_end() const;

 private:
  template <typename T>
  T get() {
    T v;
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }
  const char* take(std::size_t n) {
    if (n > remaining()) truncated(n);
    const char* p = in_.data() + pos_;
    pos_ += n;
    return p;
  }
  std::size_t checked(std::uint64_t n) const {
    if (n > remaining()) truncated(n);
    return static_cast<std::size_t>(n);
  }
  [[noreturn]] void truncated(std::uint64_t need) const;
  [[noreturn]] void bad_varint(std::size_t start, bool overrun) const;

  std::string_view in_;
  std::size_t pos_ = 0;
  const char* what_;
};

// -- Record framing: [u32 len][u32 crc32(payload)][payload] ------------------

/// Reserve the 8-byte record header; returns the payload's offset.
std::size_t begin_record(Writer& w);
/// Patch length and CRC over everything written since begin_record.
void end_record(Writer& w, std::size_t payload_at);

enum class RecordStatus {
  kOk,
  kShort,    ///< The input ends inside the header or the payload.
  kTooLong,  ///< The declared length exceeds the caller's bound.
  kBadCrc,   ///< The payload does not match its CRC.
};

struct Record {
  RecordStatus status = RecordStatus::kShort;
  std::uint32_t len = 0;       ///< Declared payload length.
  std::uint32_t crc = 0;       ///< Declared CRC.
  std::uint32_t computed = 0;  ///< CRC of the payload (kOk / kBadCrc).
  std::string_view payload;    ///< kOk only.
};

/// Parse the record at the start of `in`. The length is checked against
/// `max_len` before the payload is needed, so an oversized declaration is
/// reported as soon as its header arrives.
Record read_record(std::string_view in, std::size_t max_len);

// -- Sealed envelope: u64 magic, u64 version, u64 len, payload, u64 crc ------

/// Write magic, version and a length placeholder; returns the payload's
/// offset.
std::size_t begin_sealed(Writer& w, std::uint64_t magic,
                         std::uint64_t version);
/// Patch the length and append crc32(payload) as a u64.
void end_sealed(Writer& w, std::size_t payload_at);

/// The payload of a sealed blob. Throws clear::Error naming `what` on a
/// foreign magic, any version but `version`, a length the blob cannot hold
/// ("truncated <what>"), trailing bytes, or (with `verify_crc`) a CRC
/// mismatch.
std::string_view open_sealed(std::string_view blob, std::uint64_t magic,
                             std::uint64_t version, const char* what,
                             bool verify_crc = true);

// -- Files -------------------------------------------------------------------

/// Write `data` to `path` atomically: temp file `<path>.tmp`, optional
/// fsync, rename, and (with fsync) a directory fsync so the rename itself
/// survives power loss. The fault layer's IO guard runs at the sites
/// "<what> write", "<what> fsync" (fsync only) and "<what> rename", in that
/// order; the rename is the commit point.
void write_file_atomic(const std::string& path, std::string_view data,
                       const std::string& what, bool do_fsync = false);

/// Whole file as bytes, or "" when it does not exist or cannot be opened.
std::string read_file(const std::string& path);

}  // namespace clear::bytes
