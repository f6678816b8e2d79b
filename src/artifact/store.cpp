#include "artifact/store.hpp"

#include <cstring>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/obs.hpp"

namespace clear::artifact {

namespace {

constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kHeaderBytes = kMagicBytes + 4 + 4;
constexpr std::size_t kTrailerBytes = 8 + 8 + 4 + kMagicBytes;
constexpr std::size_t kBlockAlign = 8;
/// Smallest index entry: empty name + offset + size + crc.
constexpr std::size_t kMinIndexEntryBytes = 4 + 8 + 8 + 4;

std::size_t align_up(std::size_t n) {
  return (n + kBlockAlign - 1) / kBlockAlign * kBlockAlign;
}

}  // namespace

void Writer::add_block(std::string_view name, std::string_view bytes) {
  CLEAR_CHECK_MSG(!name.empty(), "artifact block needs a name");
  blocks_.push_back({std::string(name), std::string(bytes)});
}

std::string Writer::finish() const {
  bytes::Writer w;
  w.raw({kArtifactMagic, kMagicBytes});
  w.u32(kArtifactVersion);
  w.u32(static_cast<std::uint32_t>(blocks_.size()));

  std::vector<BlockInfo> index;
  index.reserve(blocks_.size());
  for (const Staged& b : blocks_) {
    w.zeros(align_up(w.size()) - w.size());
    BlockInfo info;
    info.name = b.name;
    info.offset = w.size();
    info.size = b.bytes.size();
    info.crc = crc32(b.bytes);
    w.raw(b.bytes);
    index.push_back(std::move(info));
  }

  const std::uint64_t index_offset = w.size();
  for (const BlockInfo& info : index) {
    w.u32(static_cast<std::uint32_t>(info.name.size()));
    w.raw(info.name);
    w.u64(info.offset);
    w.u64(info.size);
    w.u32(info.crc);
  }
  const std::uint64_t index_size = w.size() - index_offset;
  w.u64(index_offset);
  w.u64(index_size);
  w.u32(crc32(w.data() + index_offset, static_cast<std::size_t>(index_size)));
  w.raw({kArtifactMagic, kMagicBytes});
  return w.take();
}

bool Reader::is_artifact(std::string_view bytes) {
  return bytes.size() >= kMagicBytes &&
         std::memcmp(bytes.data(), kArtifactMagic, kMagicBytes) == 0;
}

Reader::Reader(std::string_view container) : data_(container) {
  CLEAR_CHECK_MSG(data_.size() >= kHeaderBytes + kTrailerBytes,
                  "artifact truncated: " << data_.size()
                                         << " bytes is smaller than the "
                                            "fixed header + trailer");
  CLEAR_CHECK_MSG(is_artifact(data_), "bad artifact magic");
  bytes::Reader header(data_.substr(kMagicBytes), "artifact header");
  const std::uint32_t version = header.u32();
  CLEAR_CHECK_MSG(version == kArtifactVersion,
                  "unsupported artifact version " << version << " (reader is v"
                                                  << kArtifactVersion << ")");
  const std::uint32_t block_count = header.u32();

  // Trailer: fixed size at EOF, tail magic proves the file was not cut.
  const std::size_t trailer_at = data_.size() - kTrailerBytes;
  CLEAR_CHECK_MSG(std::memcmp(data_.data() + trailer_at + 8 + 8 + 4,
                              kArtifactMagic, kMagicBytes) == 0,
                  "artifact truncated: tail magic missing at offset "
                      << (trailer_at + 8 + 8 + 4));
  bytes::Reader trailer(data_.substr(trailer_at), "artifact trailer");
  const std::uint64_t index_offset = trailer.u64();
  const std::uint64_t index_size = trailer.u64();
  const std::uint32_t index_crc = trailer.u32();
  CLEAR_CHECK_MSG(index_offset >= kHeaderBytes && index_offset <= trailer_at &&
                      index_size <= trailer_at - index_offset,
                  "artifact index out of bounds: offset "
                      << index_offset << " size " << index_size
                      << " in a container of " << data_.size() << " bytes");
  const std::string_view index_bytes =
      data_.substr(static_cast<std::size_t>(index_offset),
                   static_cast<std::size_t>(index_size));
  const std::uint32_t computed =
      crc32(index_bytes.data(), index_bytes.size());
  CLEAR_CHECK_MSG(computed == index_crc,
                  "artifact index CRC mismatch at offset "
                      << index_offset << ": stored " << index_crc
                      << ", computed " << computed);

  bytes::Reader index(index_bytes, "artifact index");
  index_.resize(index.count(block_count, kMinIndexEntryBytes));
  for (std::size_t i = 0; i < index_.size(); ++i) {
    BlockInfo& info = index_[i];
    info.name = std::string(index.bytes(index.u32()));
    info.offset = index.u64();
    info.size = index.u64();
    info.crc = index.u32();
    CLEAR_CHECK_MSG(
        info.offset >= kHeaderBytes && info.offset <= index_offset &&
            info.size <= index_offset - info.offset,
        "artifact block " << i << " ('" << info.name << "') out of bounds: "
                          << "offset " << info.offset << " size " << info.size
                          << " overruns the index at " << index_offset);
  }
  index.expect_end();
  if (obs::enabled()) obs::counter("artifact.opened").add(1);
}

const BlockInfo& Reader::info(std::size_t i) const {
  CLEAR_CHECK_MSG(i < index_.size(), "artifact block " << i
                                                       << " out of range ("
                                                       << index_.size()
                                                       << " blocks)");
  return index_[i];
}

const BlockInfo* Reader::find(std::string_view name) const {
  for (const BlockInfo& info : index_)
    if (info.name == name) return &info;
  return nullptr;
}

std::string_view Reader::block(std::size_t i) const {
  const BlockInfo& b = info(i);
  const std::string_view payload =
      data_.substr(static_cast<std::size_t>(b.offset),
                   static_cast<std::size_t>(b.size));
  const std::uint32_t computed = crc32(payload.data(), payload.size());
  if (computed != b.crc) {
    if (obs::enabled()) obs::counter("artifact.block_crc_failures").add(1);
    CLEAR_CHECK_MSG(false, "artifact block "
                               << i << " ('" << b.name << "') at offset "
                               << b.offset << ": CRC mismatch (stored "
                               << b.crc << ", computed " << computed << ")");
  }
  return payload;
}

std::string_view Reader::block(std::string_view name) const {
  for (std::size_t i = 0; i < index_.size(); ++i)
    if (index_[i].name == name) return block(i);
  CLEAR_CHECK_MSG(false, "artifact has no block named '" << name << "'");
  return {};
}

}  // namespace clear::artifact
