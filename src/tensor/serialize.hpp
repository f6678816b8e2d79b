// CTSR tensor codec: the per-tensor unit of checkpoints (src/nn), journal
// records and snapshots (src/serve) and the dataset cache (src/wemac).
//
// Layout (docs/FORMATS.md; integers little-endian via common/bytes):
//   u32 magic 'CTSR', u32 version, u64 rank, u64 extents[rank], f32 data[...]
#pragma once

#include "common/bytes.hpp"
#include "tensor/tensor.hpp"

namespace clear::io {

/// Append one tensor.
void put_tensor(bytes::Writer& w, const Tensor& t);

/// Read one tensor. Throws clear::Error on a bad header or when the data
/// the header announces is not there (checked before allocating).
Tensor get_tensor(bytes::Reader& r);

}  // namespace clear::io
