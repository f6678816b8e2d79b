#include "clear/edge_eval.hpp"

#include <mutex>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "edge/finetune.hpp"
#include "nn/checkpoint.hpp"

namespace clear::core {

std::unique_ptr<nn::Sequential> model_from_checkpoint_bytes(
    const nn::CnnLstmConfig& config, const std::string& bytes) {
  Rng rng(1);  // Weights come from the checkpoint.
  auto model = nn::build_cnn_lstm(config, rng);
  nn::load_checkpoint(bytes, *model);
  return model;
}

namespace {

/// Normalized maps (owned) + labels for the given samples.
struct OwnedSet {
  std::vector<Tensor> maps;
  nn::MapDataset set;
};

OwnedSet make_owned_set(const wemac::WemacDataset& dataset,
                        const features::FeatureNormalizer& normalizer,
                        const std::vector<std::size_t>& sample_indices) {
  OwnedSet out;
  out.maps.reserve(sample_indices.size());
  for (const std::size_t s : sample_indices) {
    Tensor m = dataset.samples()[s].feature_map;
    normalizer.apply_map(m);
    out.maps.push_back(std::move(m));
  }
  for (std::size_t i = 0; i < out.maps.size(); ++i) {
    out.set.maps.push_back(&out.maps[i]);
    out.set.labels.push_back(
        static_cast<std::size_t>(dataset.samples()[sample_indices[i]].label));
  }
  return out;
}

/// Training samples of one cluster (for int8 activation calibration).
std::vector<std::size_t> cluster_training_samples(
    const wemac::WemacDataset& dataset, const ClearFoldArtifacts& fold,
    std::size_t k) {
  std::vector<std::size_t> out;
  for (const std::size_t member : fold.clustering.clusters[k].members) {
    const std::size_t user = fold.fitted_users[member];
    for (const std::size_t s : dataset.samples_of(user)) out.push_back(s);
  }
  return out;
}

edge::EdgeEngine make_engine(const wemac::WemacDataset& dataset,
                             const ClearConfig& config,
                             const ClearFoldArtifacts& fold, std::size_t k,
                             edge::Precision precision,
                             double act_percentile) {
  edge::EngineConfig ec;
  ec.precision = precision;
  ec.act_percentile = act_percentile;
  edge::EdgeEngine engine(
      model_from_checkpoint_bytes(config.model, fold.checkpoints[k]), ec);
  if (precision == edge::Precision::kInt8) {
    const std::vector<std::size_t> calib =
        cluster_training_samples(dataset, fold, k);
    CLEAR_CHECK_MSG(!calib.empty(), "no calibration data for cluster");
    // A modest calibration subset is enough for stable percentiles.
    std::vector<std::size_t> subset;
    const std::size_t stride = std::max<std::size_t>(1, calib.size() / 32);
    for (std::size_t i = 0; i < calib.size(); i += stride)
      subset.push_back(calib[i]);
    OwnedSet owned = make_owned_set(dataset, fold.normalizer, subset);
    engine.calibrate(owned.set.maps);
  }
  return engine;
}

}  // namespace

EdgeEvalResult run_edge_validation(const wemac::WemacDataset& dataset,
                                   const ClearConfig& config,
                                   const std::vector<ClearFoldArtifacts>& folds,
                                   edge::DeviceKind device,
                                   const EdgeEvalOptions& options) {
  CLEAR_CHECK_MSG(!folds.empty(), "edge validation needs fold artifacts");
  EdgeEvalResult result;
  result.device = device;
  const edge::DeviceSpec spec = edge::device_spec(device);

  // Folds rebuild their engines from checkpoint bytes and salt the
  // fine-tuning seed with the fold's test user, so they are independent and
  // run concurrently; outcomes are merged in fold order below so aggregates
  // match the serial loop bit for bit at any thread count.
  struct FoldOutcome {
    nn::BinaryMetrics no_ft;
    bool has_rt = false;
    double rt_acc = 0.0;
    double rt_f1 = 0.0;
    bool has_ft = false;
    nn::BinaryMetrics with_ft;
  };
  std::vector<FoldOutcome> outcomes(folds.size());
  std::mutex progress_mutex;

  parallel_for(0, folds.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t f = lo; f < hi; ++f) {
      if (options.progress) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        options.progress(f, folds.size());
      }
      const ClearFoldArtifacts& fold = folds[f];
      FoldOutcome& out = outcomes[f];
      const std::size_t k = fold.assigned_cluster;
      OwnedSet test = make_owned_set(dataset, fold.normalizer, fold.split.test);

      // Deployed accuracy without fine-tuning.
      edge::EdgeEngine engine = make_engine(dataset, config, fold, k,
                                            spec.precision,
                                            options.act_percentile);
      out.no_ft = engine.evaluate(test.set);

      // RT at device precision: other clusters' deployed models.
      std::vector<double> rt_acc;
      std::vector<double> rt_f1;
      for (std::size_t other = 0; other < fold.checkpoints.size(); ++other) {
        if (other == k) continue;
        edge::EdgeEngine rt_engine = make_engine(dataset, config, fold, other,
                                                 spec.precision,
                                                 options.act_percentile);
        const nn::BinaryMetrics m = rt_engine.evaluate(test.set);
        rt_acc.push_back(m.accuracy * 100.0);
        rt_f1.push_back(m.f1 * 100.0);
      }
      if (!rt_acc.empty()) {
        out.has_rt = true;
        out.rt_acc = nn::mean_std(rt_acc).mean;
        out.rt_f1 = nn::mean_std(rt_f1).mean;
      }

      // On-device fine-tuning.
      if (options.run_finetune) {
        OwnedSet ft = make_owned_set(dataset, fold.normalizer, fold.split.ft);
        edge::EdgeFinetuneConfig fc;
        fc.train = config.finetune;
        fc.train.seed = config.seed ^ 0xED6E ^ fold.test_user;
        fc.freeze_boundary = nn::fine_tune_boundary();
        edge::edge_finetune(engine, ft.set, fc);
        out.has_ft = true;
        out.with_ft = engine.evaluate(test.set);
      }
    }
  });

  for (const FoldOutcome& out : outcomes) {
    result.no_ft.add(out.no_ft);
    if (out.has_rt) result.rt.add_percent(out.rt_acc, out.rt_f1);
    if (out.has_ft) result.with_ft.add(out.with_ft);
  }

  result.no_ft.finalize();
  result.rt.finalize();
  result.with_ft.finalize();

  // Cost model: per-map inference and one fine-tuning session.
  const double macs = edge::model_inference_macs(config.model);
  result.infer_cost = edge::estimate_inference(spec, macs);
  const std::size_t ft_samples = folds.front().split.ft.size();
  result.ft_cost = edge::estimate_finetuning(
      spec, macs, ft_samples, config.finetune.epochs, config.finetune.batch_size);
  return result;
}

}  // namespace clear::core
