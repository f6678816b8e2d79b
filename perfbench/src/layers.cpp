#include "layers.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <sstream>

#include "cluster/assignment.hpp"
#include "common/rng.hpp"
#include "edge/engine.hpp"
#include "edge/finetune.hpp"
#include "features/feature_map.hpp"
#include "gen.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "nn/trainer.hpp"
#include "serve/delta.hpp"
#include "serve/journal.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr edge::Precision kTiers[] = {edge::Precision::kFp32,
                                      edge::Precision::kFp16,
                                      edge::Precision::kInt8};
constexpr std::size_t kCodecRequests = 2000;
constexpr std::size_t kAssignRepeats = 20;
constexpr std::size_t kForwardRepeats = 200;
constexpr std::size_t kFinetuneUsersPerTier = 6;
constexpr std::size_t kFinetuneMaps = 4;  // SessionPolicy::ft_maps

template <typename F>
double time_us(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

std::string tier_name(edge::Precision p) { return edge::precision_name(p); }

/// Stored blob -> ready engine, exactly the server's cold-load path: delta
/// decode against the recorded base, model build, int8 calibration.
std::unique_ptr<edge::EdgeEngine> ready_engine(
    const Model& m, const std::string& stored, edge::Precision p,
    const std::vector<const Tensor*>& calibration) {
  std::string decoded;
  const std::string* blob = &stored;
  if (serve::delta::is_delta(stored)) {
    const serve::delta::BaseRef ref = serve::delta::base_of(stored);
    decoded = serve::delta::decode(
        stored, ref.kind == serve::delta::BaseRef::Kind::kGeneral
                    ? m.source.general_blob()
                    : m.source.cluster_blob(ref.id));
    blob = &decoded;
  }
  Rng rng(1);  // Weights are overwritten by the checkpoint.
  auto model = nn::build_cnn_lstm(m.source.config.model, rng);
  std::istringstream is(*blob, std::ios::binary);
  nn::load_checkpoint(is, *model);
  edge::EngineConfig ec;
  ec.precision = p;
  auto engine = std::make_unique<edge::EdgeEngine>(std::move(model), ec);
  if (p == edge::Precision::kInt8) engine->calibrate(calibration);
  return engine;
}

}  // namespace

std::map<std::string, double> probe_layers(const LayerInputs& in) {
  const Model& m = *in.model;
  const Plan& plan = *in.plan;
  std::map<std::string, double> out;
  std::vector<const Tensor*> calibration;
  for (const Tensor& t : m.calibration) calibration.push_back(&t);

  // -- net: one request and one response through encode + decode + parse.
  {
    const std::size_t n = std::min(kCodecRequests, plan.timed.size());
    const std::vector<net::WireRequest> wire = to_wire(
        {plan.timed.begin(), plan.timed.begin() + static_cast<long>(n)});
    net::FrameDecoder requests_in, responses_in;
    net::Frame frame;
    net::WireRequest req;
    net::WireResponse resp;
    std::string error;
    std::vector<double> us;
    for (std::size_t i = 0; i < n; ++i) {
      const net::WireResponse& answer =
          in.responses[i % in.responses.size()];
      us.push_back(time_us([&] {
        const std::string a = net::encode_request(wire[i]);
        requests_in.feed(a.data(), a.size());
        requests_in.next(frame);
        net::parse_request(frame, req, error);
        const std::string b = net::encode_response(answer);
        responses_in.feed(b.data(), b.size());
        responses_in.next(frame);
        net::parse_response(frame, resp, error);
      }));
    }
    out["net.codec_us"] = median(us);
  }

  // Normalized maps per user, in stream order (warm-up first).
  std::map<std::uint64_t, std::vector<std::pair<Tensor, int>>> by_user;
  for (const serve::ServeRequest& r : plan.warm) {
    Tensor map = r.map;
    m.source.normalizer.apply_map(map);
    by_user[r.user_id].emplace_back(std::move(map), -1);
  }
  for (std::size_t i = 0; i < plan.timed.size(); ++i) {
    Tensor map = plan.timed[i].map;
    m.source.normalizer.apply_map(map);
    by_user[plan.timed[i].user_id].emplace_back(std::move(map),
                                               plan.truth[i]);
  }

  // -- cluster: assignment from each user's first ca_windows windows.
  const std::size_t ca = serve::SessionPolicy().ca_windows;
  std::map<std::uint64_t, std::size_t> cluster_of;
  {
    std::vector<double> us;
    for (const auto& [user, maps] : by_user) {
      if (maps.size() < ca) continue;
      std::vector<cluster::Point> obs;
      for (std::size_t k = 0; k < ca; ++k)
        obs.push_back(features::feature_map_mean(maps[k].first));
      for (std::size_t r = 0; r < kAssignRepeats; ++r)
        us.push_back(time_us([&] {
          cluster_of[user] =
              cluster::assign_new_user(obs, m.source.clustering).cluster;
        }));
    }
    out["cluster.assign_us"] = median(us);
  }

  // -- edge forward at batch 1 and 8, per tier, on cluster 0's model.
  std::vector<const Tensor*> maps;
  for (const auto& [user, list] : by_user)
    for (const auto& [map, label] : list) maps.push_back(&map);
  for (const edge::Precision p : kTiers) {
    auto engine = ready_engine(m, m.source.cluster_blob(0), p, calibration);
    for (const std::size_t rows : {std::size_t{1}, std::size_t{8}}) {
      Tensor batch;
      std::vector<std::size_t> idx(rows);
      std::vector<double> us;
      for (std::size_t r = 0; r < kForwardRepeats; ++r) {
        for (std::size_t j = 0; j < rows; ++j)
          idx[j] = (r * rows + j) % maps.size();
        nn::stack_batch_into(maps, idx, batch);
        us.push_back(time_us([&] { engine->forward(batch); }));
      }
      out["edge.forward_us." + tier_name(p) + ".b" + std::to_string(rows)] =
          median(us);
    }
  }

  // -- edge fine-tune and delta encode, per tier: a few users' first
  // labelled windows (ground truth where the stream carried no labels) on
  // their assigned cluster's model, as the server's personalize() does.
  for (std::size_t t = 0; t < 3; ++t) {
    const edge::Precision p = kTiers[t];
    std::vector<double> ft_us, enc_us;
    for (const auto& [user, list] : by_user) {
      if (user % 3 != t || ft_us.size() == kFinetuneUsersPerTier) continue;
      nn::MapDataset data;
      for (const auto& [map, label] : list) {
        if (label < 0) continue;
        data.maps.push_back(&map);
        data.labels.push_back(label > 0 ? 1 : 0);
        if (data.maps.size() == kFinetuneMaps) break;
      }
      if (data.maps.size() < kFinetuneMaps) continue;
      const std::size_t c = cluster_of.count(user) ? cluster_of[user] : 0;
      const std::string base = m.source.cluster_blob(c);
      auto engine = ready_engine(m, base, p, calibration);
      edge::EdgeFinetuneConfig fc;
      fc.train = m.source.config.finetune;
      fc.train.seed = m.source.config.seed ^ 0x5EEDull ^
                      (user * 0x9E3779B97F4A7C15ull);
      fc.freeze_boundary = nn::fine_tune_boundary();
      ft_us.push_back(time_us([&] { edge::edge_finetune(*engine, data, fc); }));
      std::ostringstream os(std::ios::binary);
      nn::save_checkpoint(os, engine->model());
      const std::string ft_blob = os.str();
      enc_us.push_back(time_us([&] {
        serve::delta::encode(
            base, {serve::delta::BaseRef::Kind::kCluster, c}, ft_blob);
      }));
    }
    out["edge.finetune_us." + tier_name(p)] = median(ft_us);
    out["serve.delta.encode_us." + tier_name(p)] = median(enc_us);
  }

  // -- cold load: stored personal checkpoints where the stream left some
  // (onboard's restart path), else the cluster blobs a cache miss loads.
  for (std::size_t t = 0; t < 3; ++t) {
    const edge::Precision p = kTiers[t];
    std::vector<double> us;
    for (const std::uint64_t user : in.personal_users) {
      if (user % 3 != t) continue;
      const std::string blob =
          serve::read_user_checkpoint(in.checkpoint_dir, user);
      us.push_back(time_us([&] { ready_engine(m, blob, p, calibration); }));
    }
    if (us.empty())
      for (std::size_t rep = 0; rep < 3; ++rep)
        for (std::size_t c = 0; c < m.source.n_clusters(); ++c) {
          const std::string blob = m.source.cluster_blob(c);
          us.push_back(
              time_us([&] { ready_engine(m, blob, p, calibration); }));
        }
    out["serve.cold_load_us." + tier_name(p)] = median(us);
  }
  return out;
}

}  // namespace perfbench
