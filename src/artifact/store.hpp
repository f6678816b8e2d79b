// Columnar artifact container ("CLRART01") — the on-disk unit of the
// delta-checkpoint store and any other multi-part serving artifact.
// docs/FORMATS.md is the normative spec; this header is the source of
// truth it is cross-checked against (tools/check_docs.sh).
//
// Layout (all integers little-endian):
//
//   header   16 bytes: char magic[8] = "CLRART01", u32 version (= 1),
//            u32 block_count
//   blocks   each block's payload starts at an 8-byte-aligned offset
//            (zero padding between blocks), so a memory-mapped reader can
//            hand out aligned views without copying
//   index    block_count entries, each:
//            u32 name_len, name bytes, u64 offset, u64 size, u32 crc32
//   trailer  28 bytes: u64 index_offset, u64 index_size, u32 index_crc,
//            char tail_magic[8] = "CLRART01"
//
// The trailer is fixed-size at the end of the file, so a reader seeks to
// EOF-28, validates the tail magic, and jumps straight to the index — one
// seek to locate any block, which is what lets the serve cache cold-load a
// user without scanning the container. Every block carries its own CRC-32;
// corruption surfaces as an addressed error naming the block index, name,
// and byte offset rather than as silently wrong bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace clear::artifact {

inline constexpr char kArtifactMagic[9] = "CLRART01";  // 8 bytes on disk.
inline constexpr std::uint32_t kArtifactVersion = 1;

// -- Writer ------------------------------------------------------------------

/// Accumulates named blocks and serializes the container. Block order is
/// preserved; names should be unique (find() returns the first match).
class Writer {
 public:
  void add_block(std::string_view name, std::string_view bytes);

  /// Serialize header + blocks + index + trailer. The Writer can be reused
  /// (finish does not clear the staged blocks).
  std::string finish() const;

  std::size_t block_count() const { return blocks_.size(); }

 private:
  struct Staged {
    std::string name;
    std::string bytes;
  };
  std::vector<Staged> blocks_;
};

// -- Reader ------------------------------------------------------------------

struct BlockInfo {
  std::string name;
  std::uint64_t offset = 0;  ///< Payload offset from the container start.
  std::uint64_t size = 0;    ///< Payload bytes.
  std::uint32_t crc = 0;     ///< CRC-32 of the payload.
};

/// Parses header, trailer, and index eagerly (throwing addressed
/// clear::Error on any structural damage); block payload CRCs are verified
/// lazily on access. The Reader holds a view — the container bytes must
/// outlive it.
class Reader {
 public:
  explicit Reader(std::string_view container);

  /// Cheap magic sniff: true when `bytes` starts with "CLRART01".
  static bool is_artifact(std::string_view bytes);

  std::size_t block_count() const { return index_.size(); }
  const BlockInfo& info(std::size_t i) const;
  /// First block named `name`, or nullptr.
  const BlockInfo* find(std::string_view name) const;

  /// Payload view for block `i`, CRC-verified on every call. Throws an
  /// addressed error naming the block index, name, and offset on mismatch.
  std::string_view block(std::size_t i) const;
  /// Payload for the block named `name`; throws when absent.
  std::string_view block(std::string_view name) const;

 private:
  std::string_view data_;
  std::vector<BlockInfo> index_;
};

}  // namespace clear::artifact
