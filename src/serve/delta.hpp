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
// Per-tensor encodings (chosen independently per tensor, smallest wins).
// Each serving tier leans on one residual encoding beside the raw fallback:
//   kRaw      raw f32 words — the guaranteed fallback.
//   kUlpDelta (fp32 tier) residual between the f32 bit patterns of
//             fine-tuned and base values, zigzag-varint packed behind a
//             nonzero bitmap. Small optimizer steps move a weight few ULPs,
//             so residuals are short even though nearly every unfrozen
//             weight changes; a frozen tensor costs its bitmap.
//   kHalf     (fp16 tier) every fine-tuned value is exactly
//             fp16-representable (the tier projects weights each step):
//             residual between half bit patterns vs. the fp16-rounded base.
//   kGrid8    (int8 tier) every fine-tuned value sits exactly on a
//             symmetric int8 grid scale*q: residual between grid indices
//             vs. the base quantized at the recovered scale, plus a
//             sign-of-zero fixup bit (the SIMD fake-quant kernel emits
//             -0.0f where scalar dequantization gives +0.0f), static-rANS
//             coded per tensor. Most fine-tune steps are smaller than one
//             grid step, so the residuals are low-entropy — this is where
//             delta storage shines. A tensor whose residuals need more than
//             256 rANS symbols takes another encoding.
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

/// Tensors per chosen encoding.
struct EncodeStats {
  std::size_t raw = 0;
  std::size_t ulp = 0;
  std::size_t half = 0;
  std::size_t grid8 = 0;
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
