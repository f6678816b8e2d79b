#include "clear/artifacts.hpp"

#include <filesystem>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"

namespace clear::core {

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kMetaMagic = 0x434C4541524D4554ull;  // "CLEARMET"
// The payload sits in the common/bytes sealed envelope (length + CRC-32).
constexpr std::uint64_t kMetaVersion = 2;

void put_point(bytes::Writer& w, const cluster::Point& p) {
  w.u64(p.size());
  for (const double v : p) w.f64(v);
}

cluster::Point get_point(bytes::Reader& r) {
  cluster::Point p(r.count(r.u64(), sizeof(double)));
  for (double& v : p) v = r.f64();
  return p;
}

void put_index_vector(bytes::Writer& w, const std::vector<std::size_t>& v) {
  w.u64(v.size());
  for (const std::size_t x : v) w.u64(x);
}

std::vector<std::size_t> get_index_vector(bytes::Reader& r) {
  std::vector<std::size_t> v(r.count(r.u64(), sizeof(std::uint64_t)));
  for (std::size_t& x : v) x = r.u64();
  return v;
}

void put_model_config(bytes::Writer& w, const nn::CnnLstmConfig& c) {
  w.u64(c.feature_dim);
  w.u64(c.window_count);
  w.u64(c.conv1_channels);
  w.u64(c.conv2_channels);
  w.u64(c.lstm_hidden);
  w.u64(c.n_classes);
  w.f64(c.dropout);
}

nn::CnnLstmConfig get_model_config(bytes::Reader& r) {
  nn::CnnLstmConfig c;
  c.feature_dim = r.u64();
  c.window_count = r.u64();
  c.conv1_channels = r.u64();
  c.conv2_channels = r.u64();
  c.lstm_hidden = r.u64();
  c.n_classes = r.u64();
  c.dropout = r.f64();
  return c;
}

void put_meta_payload(bytes::Writer& w, const ClearConfig& config,
                      const ClearPipeline::State& state) {
  // Configuration needed to rebuild models and reproduce assignment.
  put_model_config(w, config.model);
  w.u64(config.gc.k);
  w.u64(config.gc.sub_clusters);
  w.f64(config.ca_fraction);
  w.f64(config.ft_fraction);
  w.u64(config.seed);
  w.u64(config.finetune.epochs);
  w.f64(config.finetune.lr);
  w.u64(config.finetune.batch_size);
  // Fitted users.
  put_index_vector(w, state.users);
  // Normalizer moments.
  put_point(w, state.normalizer.mean());
  put_point(w, state.normalizer.stddev());
  // Clustering.
  put_index_vector(w, state.clustering.user_cluster);
  w.u64(state.clustering.clusters.size());
  for (const cluster::ClusterModel& c : state.clustering.clusters) {
    put_point(w, c.centroid);
    w.u64(c.sub_centroids.size());
    for (const cluster::Point& sc : c.sub_centroids) put_point(w, sc);
    put_index_vector(w, c.members);
  }
  w.u64(state.clustering.rounds_run);
  w.u64(state.clustering.converged ? 1 : 0);
}

void get_meta_payload(bytes::Reader& r, ClearConfig& config,
                      ClearPipeline::State& state) {
  config.model = get_model_config(r);
  config.gc.k = r.u64();
  config.gc.sub_clusters = r.u64();
  config.ca_fraction = r.f64();
  config.ft_fraction = r.f64();
  config.seed = r.u64();
  config.finetune.epochs = r.u64();
  config.finetune.lr = r.f64();
  config.finetune.batch_size = r.u64();
  // Keep the persisted model geometry (finalize() would overwrite it from
  // the default data config).
  config.data.windows_per_trial = config.model.window_count;

  state.users = get_index_vector(r);
  cluster::Point mean = get_point(r);
  cluster::Point stddev = get_point(r);
  state.normalizer = features::FeatureNormalizer::from_moments(
      std::move(mean), std::move(stddev));
  state.clustering.user_cluster = get_index_vector(r);
  const std::uint64_t n_clusters = r.u64();
  CLEAR_CHECK_MSG(n_clusters >= 1 && n_clusters < 256,
                  "implausible cluster count");
  for (std::uint64_t k = 0; k < n_clusters; ++k) {
    cluster::ClusterModel c;
    c.centroid = get_point(r);
    const std::uint64_t n_sub = r.u64();
    CLEAR_CHECK_MSG(n_sub >= 1 && n_sub < 1024,
                    "implausible sub-cluster count");
    for (std::uint64_t i = 0; i < n_sub; ++i)
      c.sub_centroids.push_back(get_point(r));
    c.members = get_index_vector(r);
    state.clustering.clusters.push_back(std::move(c));
  }
  state.clustering.rounds_run = r.u64();
  state.clustering.converged = r.u64() != 0;
}

/// Every artifact file is written atomically (fault sites "artifact write"
/// and "artifact rename"): a crashed writer leaves only the stale `.tmp`.
void atomic_write(const fs::path& path, std::string_view data) {
  bytes::write_file_atomic(path.string(), data, "artifact");
}

/// Parse and CRC-verify <dir>/pipeline.meta into (config, state). Shared by
/// the full pipeline restore and the metadata-only serving load.
void read_meta_file(const fs::path& dir, ClearConfig& config,
                    ClearPipeline::State& state) {
  const std::string path = (dir / "pipeline.meta").string();
  const std::string file = bytes::read_file(path);
  CLEAR_CHECK_MSG(!file.empty(), "cannot open " << path);
  bytes::Reader r(bytes::open_sealed(file, kMetaMagic, kMetaVersion,
                                     "pipeline.meta"),
                  "pipeline.meta payload");
  get_meta_payload(r, config, state);
}

}  // namespace

void save_pipeline(ClearPipeline& pipeline, const std::string& directory) {
  CLEAR_CHECK_MSG(pipeline.fitted(), "cannot save an unfitted pipeline");
  const fs::path dir(directory);
  std::error_code ec;
  fs::create_directories(dir, ec);
  CLEAR_CHECK_MSG(!ec, "cannot create artifact directory: " << directory);

  ClearPipeline::State state = pipeline.export_state();
  const ClearConfig& config = pipeline.config();

  bytes::Writer meta;
  const std::size_t at = bytes::begin_sealed(meta, kMetaMagic, kMetaVersion);
  put_meta_payload(meta, config, state);
  bytes::end_sealed(meta, at);
  atomic_write(dir / "pipeline.meta", meta.take());

  for (std::size_t k = 0; k < state.checkpoints.size(); ++k)
    atomic_write(dir / ("cluster_" + std::to_string(k) + ".ckpt"),
                 state.checkpoints[k]);
  if (!state.general_checkpoint.empty())
    atomic_write(dir / "general.ckpt", state.general_checkpoint);
}

ClearPipeline load_pipeline(const std::string& directory) {
  const fs::path dir(directory);
  ClearConfig config = default_config();
  ClearPipeline::State state;
  read_meta_file(dir, config, state);

  // Checkpoint blobs. A missing/unreadable file becomes an empty blob;
  // import_state() degrades it to the general fallback or throws.
  for (std::size_t k = 0; k < state.clustering.clusters.size(); ++k)
    state.checkpoints.push_back(bytes::read_file(
        (dir / ("cluster_" + std::to_string(k) + ".ckpt")).string()));
  state.general_checkpoint = bytes::read_file((dir / "general.ckpt").string());

  ClearPipeline pipeline(config);
  pipeline.import_state(std::move(state));
  if (!pipeline.fallback_clusters().empty())
    CLEAR_WARN("loaded " << directory << " degraded: "
                         << pipeline.fallback_clusters().size()
                         << " cluster(s) running the general model");
  return pipeline;
}

ArtifactMeta load_artifact_meta(const std::string& directory) {
  ClearConfig config = default_config();
  ClearPipeline::State state;
  read_meta_file(fs::path(directory), config, state);
  ArtifactMeta meta;
  meta.config = std::move(config);
  meta.users = std::move(state.users);
  meta.normalizer = std::move(state.normalizer);
  meta.clustering = std::move(state.clustering);
  return meta;
}

std::string read_cluster_checkpoint(const std::string& directory,
                                    std::size_t k) {
  fault::maybe_fail_io("checkpoint read");
  return bytes::read_file(
      (fs::path(directory) / ("cluster_" + std::to_string(k) + ".ckpt"))
          .string());
}

std::string read_general_checkpoint(const std::string& directory) {
  fault::maybe_fail_io("checkpoint read");
  return bytes::read_file((fs::path(directory) / "general.ckpt").string());
}

}  // namespace clear::core
