// Checkpointing: save / restore the parameter values of a model.
//
// The format stores (name, tensor) pairs in parameter order. Loading
// validates count, names, and shapes against the destination model, so a
// checkpoint can only be restored into an architecturally identical network
// — exactly the contract the CLEAR pipeline needs when shipping per-cluster
// "best checkpoints" to the edge.
//
// This file is the one home of the checkpoint layout (docs/FORMATS.md,
// "Model checkpoints"): the (name, CTSR tensor) payload sealed in the
// common/bytes envelope with magic "CLEARCK2", version 2, the payload's
// byte length and a CRC-32 footer, so storage faults surface as precise
// errors instead of silently wrong weights:
//   * short blob            -> "truncated checkpoint"
//   * bit flip anywhere     -> "checkpoint CRC mismatch" (or a header error)
//   * another magic/version -> the error names the one found
//   * wrong architecture    -> name/shape/count mismatch (payload parse)
// The delta codec (src/serve/delta) works on NamedTensor lists through the
// same codec, so its reconstructions are byte-identical by construction.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "nn/sequential.hpp"

namespace clear::nn {

/// One checkpoint entry: a parameter's name and value.
struct NamedTensor {
  std::string name;
  Tensor value;
};

/// The checkpoint blob of every parameter value of `model`.
std::string encode_checkpoint(Sequential& model);
/// The same layout from free-standing entries.
std::string encode_checkpoint(const std::vector<NamedTensor>& entries);

/// Every entry of a checkpoint blob, with no model to validate against.
/// `verify_crc` false skips the payload CRC pass — safe only when the
/// caller checks its result end to end. Throws clear::Error on any header,
/// length, CRC or payload damage.
std::vector<NamedTensor> decode_checkpoint(std::string_view blob,
                                           bool verify_crc = true);

/// Restore parameter values in place. Throws clear::Error on any mismatch,
/// truncation, or CRC failure; the model is untouched unless every check
/// passes.
void load_checkpoint(std::string_view blob, Sequential& model);

/// Identity digest of a checkpoint blob: the payload CRC stored in its
/// footer, or the whole-blob CRC-32 of anything else. Not crc32(blob): a
/// blob ending in its own CRC is a CRC codeword, so two different
/// checkpoints of equal length share their whole-blob CRC ("Identity digest
/// caveat" in docs/FORMATS.md).
std::uint32_t checkpoint_digest(std::string_view blob);

/// Stream wrappers over encode_checkpoint / load_checkpoint (the bench
/// harnesses write and read checkpoints through streams).
void save_checkpoint(std::ostream& os, Sequential& model);
void load_checkpoint(std::istream& is, Sequential& model);

/// In-memory snapshot of parameter values (used to keep the best epoch).
std::vector<Tensor> snapshot_parameters(Sequential& model);
void restore_parameters(Sequential& model, const std::vector<Tensor>& snap);

}  // namespace clear::nn
