// On-disk deployment artifacts for a fitted ClearPipeline.
//
// Directory layout (what the paper's cloud stage ships to the edge):
//   <dir>/pipeline.meta    — config, fitted users, normalizer, clustering
//   <dir>/cluster_<k>.ckpt — one CNN-LSTM checkpoint per cluster
//   <dir>/general.ckpt     — population-general fallback model (optional)
//
// load_pipeline() restores an equivalent pipeline: same assignments, same
// predictions, without access to the training data.
//
// Integrity & degradation: every file is written atomically (temp + rename)
// and carries a CRC-32 (the meta via its own v2 envelope, the checkpoints
// via the v2 checkpoint format). Corruption of pipeline.meta fails loudly
// with a CRC-specific error; corruption or loss of a cluster checkpoint
// degrades that cluster to the general fallback model when general.ckpt is
// present (reported by ClearPipeline::fallback_clusters()) and fails
// otherwise. Wrong weights are never loaded silently.
#pragma once

#include <string>

#include "clear/pipeline.hpp"

namespace clear::core {

/// Persist a fitted pipeline. Creates `directory` if needed; overwrites
/// existing artifact files. Throws clear::Error on IO failure or if the
/// pipeline is not fitted.
void save_pipeline(ClearPipeline& pipeline, const std::string& directory);

/// Restore a pipeline saved by save_pipeline(). Throws clear::Error on
/// missing/corrupt artifacts.
ClearPipeline load_pipeline(const std::string& directory);

/// Metadata-only view of an artifact directory: the CRC-verified contents of
/// pipeline.meta with no checkpoint blobs loaded. The serving layer uses this
/// to route requests while streaming checkpoints on demand through its cache.
struct ArtifactMeta {
  ClearConfig config;
  std::vector<std::size_t> users;
  features::FeatureNormalizer normalizer;
  cluster::GlobalClusteringResult clustering;
};

/// Parse pipeline.meta only. Throws clear::Error on missing/corrupt metadata.
ArtifactMeta load_artifact_meta(const std::string& directory);

/// Read one serialized checkpoint blob. Returns "" when the file is missing
/// or unreadable (the caller decides whether to degrade or fail); corruption
/// inside a present blob is caught downstream by the checkpoint CRC on
/// deserialization. Both honour the fault layer's "checkpoint read" IO site.
std::string read_cluster_checkpoint(const std::string& directory,
                                    std::size_t k);
std::string read_general_checkpoint(const std::string& directory);

}  // namespace clear::core
