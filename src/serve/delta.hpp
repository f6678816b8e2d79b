// Delta checkpoints: per-user personalization stored as a diff against the
// cluster (or general) base model, packed in a "CLRART01" artifact
// container (src/artifact/store.hpp; docs/FORMATS.md is the normative
// spec).
//
// The correctness oracle is exact fp32 reconstruction: decode() rebuilds
// the *byte-identical* full checkpoint blob the fine-tune produced, and
// verifies it against a stored CRC-32 + length before returning — so a
// delta-stored engine is bit-identical to the full-checkpoint path by
// construction, and encode() additionally round-trips its own output
// before committing to it (returning nullopt, i.e. "store the full blob",
// on any mismatch or when the delta would not be smaller).
//
// Per-tensor encodings (chosen independently per tensor, smallest wins):
//   kSame     base and fine-tuned tensor are bitwise identical (typical for
//             frozen layers at fp32).
//   kRaw      raw f32 words — the guaranteed fallback.
//   kUlpDelta residual between the f32 bit patterns of fine-tuned and base
//             values, zigzag-varint packed behind a nonzero bitmap. Small
//             optimizer steps move a weight few ULPs, so residuals are
//             short even though nearly every unfrozen weight changes.
//   kHalf     every fine-tuned value is exactly fp16-representable (the
//             fp16 serving tier projects weights each step): residual
//             between half bit patterns vs. the fp16-rounded base.
//   kGrid8    every fine-tuned value sits exactly on a symmetric int8 grid
//             scale*q (the int8 serving tier): residual between grid
//             indices vs. the base quantized at the recovered scale, plus a
//             sign-of-zero fixup stream (the SIMD fake-quant kernel emits
//             -0.0f where scalar dequantization gives +0.0f). Most
//             fine-tune steps are smaller than one grid step, so residuals
//             are almost all zero — this is where delta storage shines.
//             Tensors whose residuals come out dense (unfrozen layers)
//             switch to a static-rANS entropy-coded mode per tensor,
//             whichever of the two is smaller.
//
// Blocks inside the container: "delta.meta" (codec version, base reference
// + CRC, reconstruction length + CRC), "delta.tensors" (per-tensor
// records), "delta.values" (concatenated payloads).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace clear::serve::delta {

/// Which base checkpoint a delta was encoded against. The base's length and
/// CRC-32 are stored alongside, so applying a delta to a drifted base fails
/// loudly instead of reconstructing garbage.
struct BaseRef {
  enum class Kind : std::uint8_t { kCluster = 0, kGeneral = 1 };
  Kind kind = Kind::kCluster;
  std::uint64_t id = 0;  ///< Cluster index (kCluster only).
};

struct EncodeStats {
  std::size_t tensors = 0;
  std::size_t same = 0;
  std::size_t raw = 0;
  std::size_t ulp = 0;
  std::size_t half = 0;
  std::size_t grid8 = 0;
  std::size_t delta_bytes = 0;  ///< Encoded container size.
  std::size_t full_bytes = 0;   ///< Input checkpoint size.
};

/// Encode `ft_blob` (an nn checkpoint blob) as a delta artifact
/// against `base_blob`. Returns nullopt — "persist the full blob" — when
/// the models do not line up tensor-for-tensor, the delta would not be
/// smaller than the full checkpoint, or the mandatory self round-trip does
/// not reproduce `ft_blob` byte-identically. Never throws for encodability
/// reasons. `stats` (optional) is filled on success.
std::optional<std::string> encode(const std::string& base_blob,
                                  const BaseRef& base,
                                  const std::string& ft_blob,
                                  EncodeStats* stats = nullptr);

/// Magic sniff: true when `blob` is a CLRART01 container holding a delta
/// checkpoint (a full nn checkpoint blob returns false).
bool is_delta(const std::string& blob);

/// Base reference of a delta blob (throws clear::Error when `blob` is not
/// a well-formed delta artifact).
BaseRef base_of(const std::string& blob);

/// Reconstruct the byte-identical full checkpoint blob. Throws clear::Error
/// with an addressed message on container damage (block index + offset),
/// base mismatch (stored vs. computed base CRC), or a reconstruction that
/// fails the stored full-blob CRC.
std::string decode(const std::string& delta_blob,
                   const std::string& base_blob);

}  // namespace clear::serve::delta
