#include "clear/pipeline.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/obs.hpp"
#include "cluster/validity.hpp"
#include "nn/checkpoint.hpp"

namespace clear::core {

ClearPipeline::ClearPipeline(ClearConfig config) : config_(std::move(config)) {
  config_.finalize();
}

void ClearPipeline::fit(const wemac::WemacDataset& dataset,
                        const std::vector<std::size_t>& user_ids,
                        std::uint64_t seed_salt) {
  CLEAR_OBS_SPAN("pipeline.fit");
  CLEAR_OBS_COUNT("pipeline.fits", 1);
  CLEAR_CHECK_MSG(user_ids.size() >= 4, "need at least 4 users to fit");
  users_ = user_ids;
  Rng rng(config_.seed ^ (seed_salt * 0x9E3779B97F4A7C15ull));

  // 1. Normalizer on training users only.
  normalizer_ = fit_normalizer(dataset, users_);
  const std::vector<Tensor> normalized = normalize_all_maps(dataset, normalizer_);

  // 2. Global clustering over per-map observations of each user.
  std::vector<std::vector<cluster::Point>> user_obs(users_.size());
  for (std::size_t u = 0; u < users_.size(); ++u)
    user_obs[u] = map_observations(normalized, dataset.samples_of(users_[u]));

  cluster::GlobalClusteringConfig gc = config_.gc;
  if (gc.k == 0) {
    // Automatic K via silhouette over the user representations (paper
    // §III-A-2: "determine the optimal number of clusters K using standard
    // techniques").
    std::vector<cluster::Point> points(users_.size());
    for (std::size_t u = 0; u < users_.size(); ++u)
      points[u] = cluster::user_representation(user_obs[u]);
    const std::size_t k_max =
        std::min<std::size_t>(8, std::max<std::size_t>(2, users_.size() / 2));
    Rng sel_rng = rng.fork(0x5E1);
    const cluster::KSelection sel =
        cluster::select_k(points, 2, k_max, sel_rng, gc.kmeans);
    gc.k = sel.best_k;
    CLEAR_INFO("auto-selected K=" << gc.k << " by silhouette");
  }
  CLEAR_CHECK_MSG(users_.size() >= gc.k, "need at least K users to fit");
  Rng gc_rng = rng.fork(0x6C0);
  clustering_ = cluster::global_clustering(user_obs, gc, gc_rng);

  // 3. Per-cluster pre-training.
  {
    CLEAR_OBS_SPAN("pretrain");
    models_.clear();
    for (std::size_t k = 0; k < clustering_.clusters.size(); ++k) {
      std::vector<std::size_t> sample_indices;
      for (const std::size_t member : clustering_.clusters[k].members)
        for (const std::size_t s : dataset.samples_of(users_[member]))
          sample_indices.push_back(s);
      Rng model_rng = rng.fork(0x300 + k);
      auto model = nn::build_cnn_lstm(config_.model, model_rng);
      if (sample_indices.size() >= 4) {
        const nn::MapDataset train_set =
            make_map_dataset(dataset, normalized, sample_indices);
        nn::TrainConfig tc = config_.train;
        tc.seed = config_.seed ^ (seed_salt << 8) ^ (k + 1);
        nn::train_classifier(*model, train_set, tc);
      } else {
        CLEAR_WARN("cluster " << k << " has only " << sample_indices.size()
                              << " maps; keeping untrained model");
      }
      models_.push_back(std::move(model));
    }
  }

  // 4. Optional population-general fallback model over all training users.
  //    Uses fresh RNG streams (fork() never advances the parent), so the
  //    cluster models above are bit-identical whether or not this runs.
  general_model_.reset();
  fallback_clusters_.clear();
  if (config_.general_fallback) {
    std::vector<std::size_t> all_samples;
    for (const std::size_t user : users_)
      for (const std::size_t s : dataset.samples_of(user))
        all_samples.push_back(s);
    Rng general_rng = rng.fork(0x9E0);
    auto general = nn::build_cnn_lstm(config_.model, general_rng);
    if (all_samples.size() >= 4) {
      const nn::MapDataset train_set =
          make_map_dataset(dataset, normalized, all_samples);
      nn::TrainConfig tc = config_.train;
      tc.seed = config_.seed ^ (seed_salt << 8) ^ 0x9E9E9E9Full;
      nn::train_classifier(*general, train_set, tc);
    } else {
      CLEAR_WARN("too few maps for the general fallback model; "
                 "keeping it untrained");
    }
    general_model_ = std::move(general);
  }
}

nn::Sequential& ClearPipeline::cluster_model(std::size_t k) {
  CLEAR_CHECK_MSG(k < models_.size(), "cluster index out of range");
  return *models_[k];
}

nn::Sequential& ClearPipeline::general_model() {
  CLEAR_CHECK_MSG(general_model_ != nullptr, "no general fallback model");
  return *general_model_;
}

cluster::AssignmentResult ClearPipeline::assign_user(
    const wemac::WemacDataset& dataset, std::size_t user_id, double fraction,
    cluster::AssignStrategy strategy) const {
  CLEAR_CHECK_MSG(fraction > 0.0 && fraction <= 1.0,
                  "assignment fraction must lie in (0, 1]");
  const std::vector<std::size_t>& all = dataset.samples_of(user_id);
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(all.size()) +
                                  0.5));
  const std::vector<std::size_t> prefix(all.begin(),
                                        all.begin() + std::min(n, all.size()));
  const std::vector<Tensor> maps = normalize_samples(dataset, prefix);
  std::vector<cluster::Point> obs;
  obs.reserve(maps.size());
  for (const Tensor& m : maps) obs.push_back(features::feature_map_mean(m));
  return assign_observations(obs, strategy);
}

cluster::AssignmentResult ClearPipeline::assign_observations(
    const std::vector<cluster::Point>& observations,
    cluster::AssignStrategy strategy) const {
  CLEAR_CHECK_MSG(fitted(), "pipeline not fitted");
  return cluster::assign_new_user(observations, clustering_, strategy);
}

std::vector<Tensor> ClearPipeline::normalize_samples(
    const wemac::WemacDataset& dataset,
    const std::vector<std::size_t>& sample_indices) const {
  CLEAR_CHECK_MSG(normalizer_.fitted(), "pipeline not fitted");
  std::vector<Tensor> maps;
  maps.reserve(sample_indices.size());
  for (const std::size_t s : sample_indices) {
    Tensor m = dataset.samples()[s].feature_map;
    normalizer_.apply_map(m);
    maps.push_back(std::move(m));
  }
  return maps;
}

nn::BinaryMetrics ClearPipeline::evaluate_on(
    const wemac::WemacDataset& dataset, std::size_t k,
    const std::vector<std::size_t>& sample_indices) {
  const std::vector<Tensor> maps = normalize_samples(dataset, sample_indices);
  nn::MapDataset set;
  for (std::size_t i = 0; i < maps.size(); ++i) {
    set.maps.push_back(&maps[i]);
    set.labels.push_back(
        static_cast<std::size_t>(dataset.samples()[sample_indices[i]].label));
  }
  return nn::evaluate(cluster_model(k), set);
}

std::unique_ptr<nn::Sequential> ClearPipeline::clone_cluster_model(
    std::size_t k) {
  return model_from_bytes(serialize_cluster_model(k));
}

nn::TrainHistory ClearPipeline::fine_tune_on(
    nn::Sequential& model, const wemac::WemacDataset& dataset,
    const std::vector<std::size_t>& sample_indices,
    std::uint64_t seed_salt) const {
  CLEAR_OBS_SPAN("finetune");
  CLEAR_OBS_COUNT("finetune.runs", 1);
  CLEAR_OBS_COUNT("finetune.samples", sample_indices.size());
  const std::vector<Tensor> maps = normalize_samples(dataset, sample_indices);
  nn::MapDataset set;
  for (std::size_t i = 0; i < maps.size(); ++i) {
    set.maps.push_back(&maps[i]);
    set.labels.push_back(
        static_cast<std::size_t>(dataset.samples()[sample_indices[i]].label));
  }
  model.freeze_below(nn::fine_tune_boundary());
  nn::TrainConfig tc = config_.finetune;
  tc.seed = config_.seed ^ 0xF1 ^ (seed_salt * 0x2545F4914F6CDD1Dull);
  nn::TrainHistory history = nn::train_classifier(model, set, tc);
  model.freeze_below(0);
  return history;
}

std::string ClearPipeline::serialize_cluster_model(std::size_t k) {
  return nn::encode_checkpoint(cluster_model(k));
}

std::string ClearPipeline::serialize_general_model() {
  if (!has_general_model()) return {};
  return nn::encode_checkpoint(*general_model_);
}

std::unique_ptr<nn::Sequential> ClearPipeline::model_from_bytes(
    const std::string& bytes) const {
  Rng rng(1);  // Weights are overwritten by the checkpoint.
  auto model = nn::build_cnn_lstm(config_.model, rng);
  nn::load_checkpoint(bytes, *model);
  return model;
}

ClearPipeline::State ClearPipeline::export_state() {
  CLEAR_CHECK_MSG(fitted(), "cannot export an unfitted pipeline");
  State state;
  state.users = users_;
  state.normalizer = normalizer_;
  state.clustering = clustering_;
  for (std::size_t k = 0; k < models_.size(); ++k)
    state.checkpoints.push_back(serialize_cluster_model(k));
  state.general_checkpoint = serialize_general_model();
  return state;
}

void ClearPipeline::import_state(State state) {
  CLEAR_CHECK_MSG(!state.checkpoints.empty(), "state has no checkpoints");
  CLEAR_CHECK_MSG(state.clustering.clusters.size() == state.checkpoints.size(),
                  "state cluster/checkpoint count mismatch");
  CLEAR_CHECK_MSG(state.normalizer.fitted(), "state normalizer not fitted");

  // Validate the general fallback blob first: a corrupt fallback must never
  // be silently substituted for anything, so it is dropped with a warning.
  std::unique_ptr<nn::Sequential> general;
  if (!state.general_checkpoint.empty()) {
    try {
      general = model_from_bytes(state.general_checkpoint);
    } catch (const Error& e) {
      CLEAR_WARN("general fallback checkpoint unusable (" << e.what()
                                                          << "); dropping it");
      state.general_checkpoint.clear();
    }
  }

  std::vector<std::unique_ptr<nn::Sequential>> models;
  std::vector<std::size_t> fallbacks;
  for (std::size_t k = 0; k < state.checkpoints.size(); ++k) {
    const std::string& bytes = state.checkpoints[k];
    if (!bytes.empty()) {
      try {
        models.push_back(model_from_bytes(bytes));
        continue;
      } catch (const Error& e) {
        CLEAR_CHECK_MSG(general != nullptr,
                        "cluster " << k << " checkpoint unusable ("
                                   << e.what()
                                   << ") and no general fallback available");
        CLEAR_WARN("cluster " << k << " checkpoint unusable (" << e.what()
                              << "); degrading to the general model");
      }
    } else {
      CLEAR_CHECK_MSG(general != nullptr,
                      "cluster " << k
                                 << " checkpoint missing and no general "
                                    "fallback available");
      CLEAR_WARN("cluster " << k
                            << " checkpoint missing; degrading to the "
                               "general model");
    }
    models.push_back(model_from_bytes(state.general_checkpoint));
    fallbacks.push_back(k);
  }

  users_ = std::move(state.users);
  normalizer_ = std::move(state.normalizer);
  clustering_ = std::move(state.clustering);
  models_ = std::move(models);
  general_model_ = std::move(general);
  fallback_clusters_ = std::move(fallbacks);
}

}  // namespace clear::core
