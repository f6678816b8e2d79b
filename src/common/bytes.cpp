#include "common/bytes.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"

namespace clear::bytes {

namespace {

[[noreturn]] void fail(const std::ostringstream& os) { throw Error(os.str()); }

/// A u64 magic as its 8 ASCII characters, most significant first — the
/// name the format constants are written in ("CLEARCK2") — or hex when it
/// is not printable.
std::string magic_name(std::uint64_t magic) {
  std::string name;
  for (int shift = 56; shift >= 0; shift -= 8) {
    const auto c = static_cast<char>((magic >> shift) & 0xFF);
    if (c < 0x20 || c > 0x7E) {
      char hex[19];
      std::snprintf(hex, sizeof(hex), "0x%016llx",
                    static_cast<unsigned long long>(magic));
      return hex;
    }
    name.push_back(c);
  }
  return "\"" + name + "\"";
}

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  CLEAR_CHECK_MSG(fd >= 0, "cannot open " << path << " for fsync: "
                                          << std::strerror(errno));
  const int rc = ::fsync(fd);
  ::close(fd);
  CLEAR_CHECK_MSG(rc == 0, "fsync " << path << ": " << std::strerror(errno));
}

}  // namespace

void Reader::bad_varint(std::size_t start, bool overrun) const {
  std::ostringstream os;
  if (overrun)
    os << what_ << " varint at offset " << start << " overruns 64 bits";
  else
    os << what_ << " truncated in a varint at offset " << start;
  fail(os);
}

std::size_t Reader::count(std::uint64_t n, std::size_t min_bytes) {
  if (min_bytes > 0 && n > remaining() / min_bytes) {
    std::ostringstream os;
    os << what_ << " truncated: count " << n << " at offset " << pos_
       << " needs at least " << min_bytes << " byte(s) each, have "
       << remaining();
    fail(os);
  }
  return static_cast<std::size_t>(n);
}

void Reader::expect_end() const {
  if (pos_ == in_.size()) return;
  std::ostringstream os;
  os << what_ << " has " << remaining() << " trailing byte(s) after offset "
     << pos_;
  fail(os);
}

void Reader::truncated(std::uint64_t need) const {
  std::ostringstream os;
  os << what_ << " truncated: need " << need << " byte(s) at offset " << pos_
     << ", have " << remaining();
  fail(os);
}

std::size_t begin_record(Writer& w) {
  w.u32(0);
  w.u32(0);
  return w.size();
}

void end_record(Writer& w, std::size_t payload_at) {
  const std::size_t len = w.size() - payload_at;
  CLEAR_CHECK_MSG(len <= std::numeric_limits<std::uint32_t>::max(),
                  "record payload of " << len << " bytes overflows u32");
  w.patch_u32(payload_at - 8, static_cast<std::uint32_t>(len));
  w.patch_u32(payload_at - 4, crc32(w.data() + payload_at, len));
}

Record read_record(std::string_view in, std::size_t max_len) {
  Record rec;
  if (in.size() < 8) return rec;
  Reader r(in);
  rec.len = r.u32();
  rec.crc = r.u32();
  if (rec.len > max_len) {
    rec.status = RecordStatus::kTooLong;
    return rec;
  }
  if (rec.len > r.remaining()) return rec;
  const std::string_view payload = r.bytes(rec.len);
  rec.computed = crc32(payload.data(), payload.size());
  if (rec.computed != rec.crc) {
    rec.status = RecordStatus::kBadCrc;
    return rec;
  }
  rec.status = RecordStatus::kOk;
  rec.payload = payload;
  return rec;
}

std::size_t begin_sealed(Writer& w, std::uint64_t magic,
                         std::uint64_t version) {
  w.u64(magic);
  w.u64(version);
  w.u64(0);
  return w.size();
}

void end_sealed(Writer& w, std::size_t payload_at) {
  const std::size_t len = w.size() - payload_at;
  w.patch_u64(payload_at - 8, len);
  w.u64(crc32(w.data() + payload_at, len));
}

std::string_view open_sealed(std::string_view blob, std::uint64_t magic,
                             std::uint64_t version, const char* what,
                             bool verify_crc) {
  Reader r(blob, what);
  std::ostringstream os;
  const std::uint64_t got_magic = r.u64();
  if (got_magic != magic) {
    os << "bad " << what << " magic " << magic_name(got_magic)
       << " (expected " << magic_name(magic) << ")";
    fail(os);
  }
  const std::uint64_t got_version = r.u64();
  if (got_version != version) {
    os << "unsupported " << what << " version " << got_version
       << " (this reader supports v" << version << ")";
    fail(os);
  }
  const std::uint64_t len = r.u64();
  if (len > r.remaining()) {
    os << "truncated " << what << ": payload has " << r.remaining() << " of "
       << len << " bytes";
    fail(os);
  }
  const std::string_view payload = r.bytes(len);
  if (r.remaining() < 8) {
    os << "truncated " << what << ": missing CRC footer";
    fail(os);
  }
  const std::uint64_t stored = r.u64();
  if (r.remaining() != 0) {
    os << what << " has " << r.remaining()
       << " trailing byte(s) after its CRC footer";
    fail(os);
  }
  if (verify_crc) {
    const std::uint32_t computed = crc32(payload.data(), payload.size());
    if (stored != computed) {
      os << what << " CRC mismatch: stored " << stored << ", computed "
         << computed;
      fail(os);
    }
  }
  return payload;
}

void write_file_atomic(const std::string& path, std::string_view data,
                       const std::string& what, bool do_fsync) {
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp";
  fault::maybe_fail_io((what + " write").c_str());
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    CLEAR_CHECK_MSG(os.good(), "cannot write " << tmp << " (" << what << ")");
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
    os.flush();
    CLEAR_CHECK_MSG(os.good(), "IO error writing " << tmp);
  }
  if (do_fsync) {
    fault::maybe_fail_io((what + " fsync").c_str());
    fsync_path(tmp);
  }
  fault::maybe_fail_io((what + " rename").c_str());
  std::error_code ec;
  fs::rename(tmp, path, ec);
  CLEAR_CHECK_MSG(!ec, "cannot commit " << path << ": " << ec.message());
  if (do_fsync) {
    const std::string parent = fs::path(path).parent_path().string();
    fsync_path(parent.empty() ? "." : parent);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return {};
  std::string out;
  char buf[1 << 16];
  while (is.read(buf, sizeof(buf)) || is.gcount() > 0)
    out.append(buf, static_cast<std::size_t>(is.gcount()));
  return out;
}

}  // namespace clear::bytes
