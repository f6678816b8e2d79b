// bench_artifacts — storage density and cold-load latency of delta-encoded
// personal checkpoints (src/serve/delta) vs full checkpoints.
//
// The workload is the real personalization path, not a synthetic blob
// generator: a pipeline is fitted, then every simulated user runs
// edge_finetune from their cluster's base checkpoint at one of the three
// serving tiers (fp32 / fp16 / int8), exactly as Server::run_finetune does.
// Each fine-tuned model is serialized as a full v2 checkpoint and stored
// the one way the server stores it: delta-encoded against its base, or the
// full blob when a delta would not be smaller (counted as a fallback). Each
// tier's unfrozen tensors lean on one residual encoding (fp32 kUlpDelta,
// fp16 kHalf, int8 kGrid8). Two things are measured per tier:
//
//   density    users-resident-per-GB — how many users' personal checkpoints
//              fit in a GB of storage — for full blobs vs what is stored.
//              This is a deterministic function of the workload (the codec
//              has no randomness), so the regression gate holds it to 1%.
//   cold load  bytes-on-disk -> ready engine. The delta path pays an extra
//              decode (CRC + residual decode: varints at fp32/fp16, rANS at
//              int8) before the model build; the gate bounds that overhead
//              at the p99.
//
// Flags: --bench-users=24 --load-iters=3 [dataset flags: --seed
//        --volunteers --trials --epochs --ft-epochs --quick]
//        --json=FILE  write the clear-bench-artifacts-v1 report
//                     (tools/bench_regress.py gate, next to
//                     BENCH_artifacts.json)
//
// Gate (exit 1 when missed): int8-tier density gain >= 5x over full
// checkpoints, and delta cold-load p99 <= 1.2x the full-checkpoint p99.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "clear/pipeline.hpp"
#include "edge/engine.hpp"
#include "edge/finetune.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "serve/delta.hpp"
#include "serve/server.hpp"

using namespace clear;

namespace {

std::unique_ptr<nn::Sequential> model_from_blob(
    const nn::CnnLstmConfig& config, const std::string& blob) {
  Rng rng(1);  // Weights are overwritten by the checkpoint.
  auto model = nn::build_cnn_lstm(config, rng);
  std::istringstream is(blob, std::ios::binary);
  nn::load_checkpoint(is, *model);
  return model;
}

/// Build a ready engine from checkpoint bytes — the timed unit of the
/// cold-load measurement. Mirrors Server::build_engine: a delta blob is
/// decoded against its base first; int8 engines calibrate afterwards.
std::unique_ptr<edge::EdgeEngine> cold_load(
    const std::string& blob, const std::string& base_blob,
    const nn::CnnLstmConfig& mc, edge::Precision precision,
    const std::vector<const Tensor*>& calib) {
  const std::string* payload = &blob;
  std::string decoded;
  if (serve::delta::is_delta(blob)) {
    decoded = serve::delta::decode(blob, base_blob);
    payload = &decoded;
  }
  edge::EngineConfig ec;
  ec.precision = precision;
  auto engine = std::make_unique<edge::EdgeEngine>(
      model_from_blob(mc, *payload), ec);
  if (precision == edge::Precision::kInt8) engine->calibrate(calib);
  return engine;
}

double percentile(std::vector<double> v, double p) {
  CLEAR_CHECK_MSG(!v.empty(), "percentile of empty sample set");
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

struct TierStats {
  const char* name = "";
  std::size_t users = 0;
  std::size_t full_bytes = 0;    ///< Sum over users.
  std::size_t stored_bytes = 0;  ///< Sum of what delta storage persists.
  std::size_t fallbacks = 0;     ///< encode() declined; full blob stored.

  double gain() const {
    return static_cast<double>(full_bytes) /
           static_cast<double>(stored_bytes);
  }
  double users_per_gb(std::size_t total) const {
    return static_cast<double>(users) * (1024.0 * 1024.0 * 1024.0) /
           static_cast<double>(total);
  }
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    core::ClearConfig config = bench::config_from_args(args);
    config.finalize();

    const wemac::WemacDataset d = wemac::generate_wemac(config.data);
    std::vector<std::size_t> fit_users;
    for (std::size_t u = 0; u + 2 < d.n_volunteers(); ++u)
      fit_users.push_back(u);
    std::printf("fitting pipeline on %zu of %zu volunteers...\n",
                fit_users.size(), d.n_volunteers());
    std::fflush(stdout);
    core::ClearPipeline pipeline(config);
    pipeline.fit(d, fit_users);
    const serve::ModelSource source =
        serve::ModelSource::from_pipeline(pipeline);

    // int8 activation statistics: volunteer 0's normalized maps stand in
    // for a calibration capture (same convention as clear-cli serve).
    std::vector<Tensor> calib_maps;
    for (const std::size_t s : d.samples_of(0)) {
      Tensor m = d.samples()[s].feature_map;
      source.normalizer.apply_map(m);
      calib_maps.push_back(std::move(m));
    }
    std::vector<const Tensor*> calib;
    for (const Tensor& m : calib_maps) calib.push_back(&m);

    const auto n_users =
        static_cast<std::size_t>(args.get_int("bench-users", 24));
    const auto load_iters =
        static_cast<std::size_t>(args.get_int("load-iters", 5));
    const edge::Precision tiers[] = {edge::Precision::kFp32,
                                     edge::Precision::kFp16,
                                     edge::Precision::kInt8};

    TierStats stats[3];
    std::vector<double> full_us, delta_us;
    std::printf("personalizing %zu users per tier (real edge_finetune)...\n",
                n_users);
    std::fflush(stdout);

    for (std::size_t t = 0; t < 3; ++t) {
      stats[t].name = edge::precision_name(tiers[t]);
      for (std::size_t u = 0; u < n_users; ++u) {
        const std::size_t cluster = u % source.n_clusters();
        const std::string base_blob = source.cluster_blob(cluster);

        // The user's device data: their volunteer's normalized maps.
        const std::size_t vol = fit_users[u % fit_users.size()];
        std::vector<Tensor> maps;
        nn::MapDataset data;
        for (const std::size_t s : d.samples_of(vol)) {
          Tensor m = d.samples()[s].feature_map;
          source.normalizer.apply_map(m);
          maps.push_back(std::move(m));
        }
        for (std::size_t i = 0; i < maps.size(); ++i) {
          data.maps.push_back(&maps[i]);
          data.labels.push_back(d.samples()[d.samples_of(vol)[i]].label);
        }

        edge::EngineConfig ec;
        ec.precision = tiers[t];
        edge::EdgeEngine engine(model_from_blob(config.model, base_blob),
                                ec);
        if (tiers[t] == edge::Precision::kInt8) engine.calibrate(calib);
        edge::EdgeFinetuneConfig fc;
        fc.train = config.finetune;
        fc.train.seed = config.seed ^ 0x5EEDull ^
                        ((u + 1) * 0x9E3779B97F4A7C15ull);
        fc.freeze_boundary = nn::fine_tune_boundary();
        edge::edge_finetune(engine, data, fc);

        std::ostringstream os(std::ios::binary);
        nn::save_checkpoint(os, engine.model());
        const std::string full_blob = os.str();
        const serve::delta::BaseRef ref{serve::delta::BaseRef::Kind::kCluster,
                                        cluster};
        const std::optional<std::string> delta_blob =
            serve::delta::encode(base_blob, ref, full_blob);
        const std::string& stored = delta_blob ? *delta_blob : full_blob;

        ++stats[t].users;
        stats[t].full_bytes += full_blob.size();
        stats[t].stored_bytes += stored.size();
        stats[t].fallbacks += !delta_blob;

        // Cold load, both encodings, interleaved within each iteration so
        // environmental drift hits both paths alike, best-of-iters per
        // sample so the p99 reflects the decode work rather than scheduler
        // noise.
        const auto time_one = [&](const std::string& blob) {
          const auto t0 = std::chrono::steady_clock::now();
          auto e = cold_load(blob, base_blob, config.model, tiers[t], calib);
          const auto t1 = std::chrono::steady_clock::now();
          CLEAR_CHECK_MSG(e != nullptr, "cold load produced no engine");
          return std::chrono::duration<double, std::micro>(t1 - t0).count();
        };
        double best_full = 0.0, best_delta = 0.0;
        for (std::size_t it = 0; it < load_iters; ++it) {
          const double f = time_one(full_blob);
          const double d2 = time_one(stored);
          if (it == 0 || f < best_full) best_full = f;
          if (it == 0 || d2 < best_delta) best_delta = d2;
        }
        full_us.push_back(best_full);
        delta_us.push_back(best_delta);
      }
    }

    const double full_p50 = percentile(full_us, 50.0);
    const double full_p99 = percentile(full_us, 99.0);
    const double delta_p50 = percentile(delta_us, 50.0);
    const double delta_p99 = percentile(delta_us, 99.0);

    AsciiTable table({"tier", "users", "full B/user", "delta B/user",
                      "gain", "users/GB full", "users/GB delta",
                      "fallbacks"});
    table.set_title("delta checkpoint storage density");
    for (const TierStats& s : stats)
      table.add_row(
          {s.name, std::to_string(s.users),
           std::to_string(s.full_bytes / s.users),
           std::to_string(s.stored_bytes / s.users),
           AsciiTable::num(s.gain(), 2),
           AsciiTable::num(s.users_per_gb(s.full_bytes), 0),
           AsciiTable::num(s.users_per_gb(s.stored_bytes), 0),
           std::to_string(s.fallbacks)});
    table.print();
    std::printf(
        "cold load: full p50=%.0fus p99=%.0fus | delta p50=%.0fus "
        "p99=%.0fus (ratio %.2fx)\n",
        full_p50, full_p99, delta_p50, delta_p99, delta_p99 / full_p99);

    if (const std::string json = args.get("json", ""); !json.empty()) {
      std::FILE* f = std::fopen(json.c_str(), "w");
      CLEAR_CHECK_MSG(f != nullptr, "cannot open " << json);
      std::fprintf(f, "{\n  \"schema\": \"clear-bench-artifacts-v1\",\n");
      std::fprintf(f,
                   "  \"config\": {\"bench_users\": %zu, \"seed\": %llu, "
                   "\"volunteers\": %zu, \"trials\": %zu, \"quick\": %s},\n",
                   n_users,
                   static_cast<unsigned long long>(config.data.seed),
                   config.data.n_volunteers, config.data.trials_per_volunteer,
                   args.get_bool("quick", false) ? "true" : "false");
      std::fprintf(f, "  \"density\": {\n");
      for (std::size_t t = 0; t < 3; ++t)
        std::fprintf(f,
                     "    \"%s\": {\"full_bytes\": %zu, \"stored_bytes\": "
                     "%zu, \"fallbacks\": %zu, \"users_per_gb_full\": %.1f, "
                     "\"users_per_gb_delta\": %.1f}%s\n",
                     stats[t].name, stats[t].full_bytes,
                     stats[t].stored_bytes, stats[t].fallbacks,
                     stats[t].users_per_gb(stats[t].full_bytes),
                     stats[t].users_per_gb(stats[t].stored_bytes),
                     t + 1 < 3 ? "," : "");
      std::fprintf(f, "  },\n  \"gains\": {");
      for (std::size_t t = 0; t < 3; ++t)
        std::fprintf(f, "\"%s\": %.4f%s", stats[t].name, stats[t].gain(),
                     t + 1 < 3 ? ", " : "");
      std::fprintf(f,
                   "},\n  \"cold_load\": {\"full_p50_us\": %.1f, "
                   "\"full_p99_us\": %.1f, \"delta_p50_us\": %.1f, "
                   "\"delta_p99_us\": %.1f, \"p99_headroom\": %.4f}\n}\n",
                   full_p50, full_p99, delta_p50, delta_p99,
                   full_p99 / delta_p99);
      std::fclose(f);
      std::printf("report written to %s\n", json.c_str());
    }

    bool pass = true;
    const double int8_gain = stats[2].gain();
    std::printf("int8 density gain: %.2fx (target >= 5x): %s\n", int8_gain,
                int8_gain >= 5.0 ? "PASS" : "FAIL");
    pass = pass && int8_gain >= 5.0;
    const double p99_ratio = delta_p99 / full_p99;
    std::printf("delta cold-load p99: %.2fx full (target <= 1.2x): %s\n",
                p99_ratio, p99_ratio <= 1.2 ? "PASS" : "FAIL");
    pass = pass && p99_ratio <= 1.2;
    return pass ? 0 : 1;
  } catch (const clear::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
