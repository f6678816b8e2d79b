// clear-cli — command-line front end to the CLEAR library.
//
// The tool walks through the whole life cycle of the system on the
// synthetic WEMAC substrate:
//
//   clear-cli generate  --cache-dir=DIR [--volunteers=N --trials=N --seed=S]
//       Generate (and cache) the synthetic dataset; print a summary.
//
//   clear-cli train     --artifacts=DIR [--holdout=N] [dataset flags]
//       Cloud stage: fit the pipeline on all volunteers except the last
//       `holdout` ones and save the deployment artifacts.
//
//   clear-cli info      --artifacts=DIR
//       Describe saved artifacts (clusters, sizes, model).
//
//   clear-cli assign    --artifacts=DIR --user=N [--fraction=0.1]
//       Cold-start: assign a (held-out) user from unlabeled data.
//
//   clear-cli evaluate  --artifacts=DIR --user=N
//       Evaluate every cluster model on a user's maps.
//
//   clear-cli personalize --artifacts=DIR --user=N [--ft-fraction=0.2]
//       Assign, fine-tune on the labelled share, and report before/after.
//
//   clear-cli robustness [--dropout=0,0.05,0.1] [--corrupt=0,0.01]
//                        [--jitter=0] [--folds=0] [--fault-seed=1]
//       Fault-injection sweep: rerun the CLEAR LOSO protocol on datasets
//       degraded with every (dropout, corruption) pair and print the
//       accuracy-vs-fault-rate table. The zero-fault row is bit-identical
//       to the clean `evaluate` results.
//
//   clear-cli profile   [--volunteers=6 --trials=4 --epochs=2 --folds=1]
//                       [--metrics-out=clear_profile.json]
//       Observability demo: run a tiny in-memory LOSO slice (feature
//       extraction, clustering, assignment, fine-tuning, evaluation) plus a
//       per-precision edge forward sweep with the metrics registry enabled,
//       and write the combined JSON snapshot / Chrome trace-event file.
//       Numeric results go to stdout and are bit-identical whether or not
//       metrics are recorded; the span summary goes to stderr.
//
//   clear-cli serve     [--users=32 --requests=24 --seed=7]
//                       [--artifacts=DIR] [--precisions=fp32,fp16,int8]
//                       [--max-batch=8 --max-wait-us=0 --queue-cap=32]
//       CLEAR-Serve demo: replay a deterministic synthetic multi-user
//       workload through the session/micro-batching server. Without
//       --artifacts a small pipeline is fitted in memory first. Per-request
//       predictions and the run summary are bit-identical at any --threads
//       setting and with metrics on or off.
//
// Every command accepts the shared flags --threads=N and --metrics-out=FILE
// (see CommonFlags::help()); flags take either --key=value or --key value
// form. Results are bit-identical at any thread count, with or without
// metrics.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <map>

#include "clear/artifacts.hpp"
#include "clear/evaluation.hpp"
#include "clear/robustness.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "edge/engine.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "shard/coordinator.hpp"

using namespace clear;

namespace {

int usage(std::FILE* out = stderr) {
  std::fprintf(out,
               "usage: clear-cli <generate|train|info|assign|evaluate|"
               "personalize|robustness|profile|serve|loadgen|coord> "
               "[--flags]\n%s"
               "run `clear-cli <command> --help` for that command's flags.\n",
               CommonFlags::help());
  return out == stderr ? 2 : 0;
}

/// Per-subcommand flag reference, printed by `clear-cli <command> --help`.
/// tools/check_docs.sh greps this output to verify that every flag the
/// documentation mentions actually exists, so keep it exhaustive.
const char* command_help(const std::string& command) {
  static const std::map<std::string, const char*> kHelp = {
      {"generate",
       "clear-cli generate — generate (and cache) the synthetic WEMAC "
       "dataset\n"
       "  --cache-dir=DIR   dataset cache directory (default wemac_cache)\n"
       "  --volunteers=N    number of synthetic volunteers\n"
       "  --trials=N        trials per volunteer\n"
       "  --seed=S          dataset RNG seed\n"},
      {"train",
       "clear-cli train — cloud stage: fit the pipeline, save artifacts\n"
       "  --artifacts=DIR   output directory (required)\n"
       "  --holdout=N       volunteers held out from the fit (default 1)\n"
       "  --cache-dir=DIR   dataset cache directory (default wemac_cache)\n"
       "  --volunteers=N    number of synthetic volunteers\n"
       "  --trials=N        trials per volunteer\n"
       "  --seed=S          dataset RNG seed\n"
       "  --epochs=N        pre-training epochs per cluster model\n"
       "  --k=N             number of general clusters\n"},
      {"info",
       "clear-cli info — describe saved artifacts\n"
       "  --artifacts=DIR   artifact directory (default clear_artifacts)\n"},
      {"assign",
       "clear-cli assign — cold-start cluster assignment for one user\n"
       "  --artifacts=DIR   artifact directory (default clear_artifacts)\n"
       "  --user=N          volunteer index (default: last volunteer)\n"
       "  --fraction=F      unlabeled share used for assignment (default "
       "0.1)\n"
       "  --cache-dir=DIR   dataset cache directory (default wemac_cache)\n"
       "  --volunteers=N    number of synthetic volunteers\n"
       "  --trials=N        trials per volunteer\n"
       "  --seed=S          dataset RNG seed\n"},
      {"evaluate",
       "clear-cli evaluate — run every cluster model on a user's maps\n"
       "  --artifacts=DIR   artifact directory (default clear_artifacts)\n"
       "  --user=N          volunteer index (default: last volunteer)\n"
       "  --cache-dir=DIR   dataset cache directory (default wemac_cache)\n"
       "  --volunteers=N    number of synthetic volunteers\n"
       "  --trials=N        trials per volunteer\n"
       "  --seed=S          dataset RNG seed\n"},
      {"personalize",
       "clear-cli personalize — assign, fine-tune, report before/after\n"
       "  --artifacts=DIR   artifact directory (default clear_artifacts)\n"
       "  --user=N          volunteer index (default: last volunteer)\n"
       "  --ft-fraction=F   labelled share used for fine-tuning (default "
       "0.2)\n"
       "  --cache-dir=DIR   dataset cache directory (default wemac_cache)\n"
       "  --volunteers=N    number of synthetic volunteers\n"
       "  --trials=N        trials per volunteer\n"
       "  --seed=S          dataset RNG seed\n"},
      {"robustness",
       "clear-cli robustness — fault-injection accuracy sweep (LOSO)\n"
       "  --dropout=A,B,..  sample dropout rates (default 0,0.05,0.1)\n"
       "  --corrupt=A,B,..  sample corruption rates (default 0,0.01)\n"
       "  --jitter=F        label jitter rate (default 0)\n"
       "  --folds=N         cap on LOSO folds, 0 = all (default 0)\n"
       "  --fault-seed=S    fault-injection RNG seed (default 1)\n"
       "  --volunteers=N    number of synthetic volunteers\n"
       "  --trials=N        trials per volunteer\n"
       "  --seed=S          dataset RNG seed\n"
       "  --epochs=N        pre-training epochs per cluster model\n"
       "  --k=N             number of general clusters\n"},
      {"profile",
       "clear-cli profile — tiny LOSO slice with metrics enabled\n"
       "  --volunteers=N    number of synthetic volunteers (default 6)\n"
       "  --trials=N        trials per volunteer (default 4)\n"
       "  --epochs=N        pre-training epochs (default 2)\n"
       "  --ft-epochs=N     fine-tuning epochs (default 2)\n"
       "  --folds=N         LOSO folds to run (default 1)\n"
       "  --k=N             number of general clusters\n"
       "  --seed=S          dataset RNG seed\n"
       "  --metrics-out=F   snapshot path (default clear_profile.json)\n"
       "  --no-metrics      disable the default metrics snapshot\n"},
      {"serve",
       "clear-cli serve — replay a synthetic multi-user serving workload\n"
       "  --users=N             workload users (default 32)\n"
       "  --requests=N          requests per user (default 24)\n"
       "  --seed=S              workload RNG seed (default 7)\n"
       "  --labeled-fraction=F  share of labelled requests\n"
       "  --degraded-fraction=F share of degraded-signal users\n"
       "  --drift-fraction=F    share of users whose signal distribution\n"
       "                        shifts mid-stream (default 0)\n"
       "  --drift-at=F          drift onset as a fraction of each user's\n"
       "                        requests (default 0.5)\n"
       "  --drift-blend=F       blend weight toward the other volunteer's\n"
       "                        maps past the onset (default 0.8)\n"
       "  --drift-after=N       drift monitor: consecutive drifting windows\n"
       "                        before re-assessment; 0 disables (default 0)\n"
       "  --drift-ratio=R       drift margin: a window drifts when the\n"
       "                        incumbent's CA score exceeds R x the best\n"
       "                        other cluster's (default 1.25)\n"
       "  --reassess-windows=N  fresh windows buffered in RE_ASSESSING\n"
       "                        (default 6)\n"
       "  --shadow-windows=N    verdict windows scored in SHADOWING\n"
       "                        (default 8)\n"
       "  --artifacts=DIR       serve a trained deployment instead of\n"
       "                        fitting a small pipeline in memory\n"
       "  --precisions=LIST     fp32,fp16,int8 engines to run (default "
       "fp32)\n"
       "  --max-batch=N         micro-batch row cap (default 8)\n"
       "  --max-wait-us=N       micro-batch wait budget (default 0)\n"
       "  --queue-cap=N         per-tick admission queue slots (default "
       "32)\n"
       "  --max-pending=N       admission-control pending cap (default "
       "256)\n"
       "  --ca-windows=N        windows buffered before assignment "
       "(default 6)\n"
       "  --ft-maps=N           labelled maps before fine-tune (default "
       "4)\n"
       "  --no-finetune         disable per-session fine-tuning\n"
       "  --cache-budget-kb=N   checkpoint cache budget (default 4096)\n"
       "  --max-sessions=N      session table cap (default 4096)\n"
       "  --data-seed=S         in-memory dataset seed (default 42)\n"
       "  --volunteers=N        in-memory dataset volunteers (default 8)\n"
       "  --trials=N            trials per volunteer (default 5)\n"
       "  --epochs=N            pre-training epochs (default 2)\n"
       "  --ft-epochs=N         fine-tuning epochs (default 2)\n"
       "  --k=N                 number of general clusters\n"
       "  --listen=HOST:PORT    serve over TCP (epoll front end) instead of\n"
       "                        replaying the synthetic workload; port 0\n"
       "                        binds an ephemeral port\n"
       "  --port-file=FILE      write the bound port here after listen\n"
       "  --max-connections=N   concurrent connection cap (default 64)\n"
       "  --journal-dir=DIR     write-ahead session journal + compacting\n"
       "                        snapshots under DIR; refuses to start over\n"
       "                        existing journal state without --recover\n"
       "  --recover             replay DIR's snapshot + journal before\n"
       "                        serving, restoring every session (requires\n"
       "                        --journal-dir); prints a recovery report\n"
       "  --snapshot-every=N    compact the journal every N records\n"
       "                        (default 1024)\n"
       "  --journal-fsync       fsync every journal append (machine-crash\n"
       "                        durability; process-crash durability needs\n"
       "                        no fsync)\n"
       "  In --listen mode SIGINT/SIGTERM drain gracefully: stop accepting,\n"
       "  flush pending batches, write a final snapshot, exit 0.\n"
       "  exit codes: 0 graceful shutdown, 1 runtime error, 2 usage error\n"},
      {"coord",
       "clear-cli coord — route clients across N CLEAR-Serve shards\n"
       "  --shards=H:P,..       shard endpoints, comma-separated (required);\n"
       "                        list order defines shard ids 0..N-1\n"
       "  --shard-journals=D,.. each shard's --journal-dir, comma-separated\n"
       "                        and order-matched to --shards; an empty cell\n"
       "                        disables crash adoption for that shard\n"
       "  --listen=HOST:PORT    client-facing endpoint (default\n"
       "                        127.0.0.1:0); port 0 binds an ephemeral\n"
       "                        port and prints LISTENING <port>\n"
       "  --port-file=FILE      write the bound client-facing port here\n"
       "  --vnodes=N            consistent-hash virtual nodes per shard\n"
       "                        (default 128)\n"
       "  --ring-seed=S         placement hash seed (default 1)\n"
       "  --heartbeat-ms=N      shard liveness probe period; 0 disables\n"
       "                        (default 200)\n"
       "  --missed-limit=N      consecutive missed beats before a shard is\n"
       "                        declared dead (default 3)\n"
       "  --max-connections=N   concurrent client cap (default 64)\n"
       "  --decommission-shard=K  drain shard K mid-run, migrate its\n"
       "                        sessions to the ring survivors, shut it\n"
       "                        down (-1 disables; default -1)\n"
       "  --decommission-after=N  routed requests before the decommission\n"
       "                        starts (default 0)\n"
       "  SIGINT/SIGTERM drain gracefully: shards are drained, their\n"
       "  metrics folded under coord.*, and the fleet is shut down.\n"
       "  exit codes: 0 graceful shutdown, 1 runtime error, 2 usage error\n"},
      {"loadgen",
       "clear-cli loadgen — open-loop load generator for serve --listen\n"
       "  --connect=HOST:PORT   target server (required)\n"
       "  --connections=N       concurrent connections (default 4)\n"
       "  --requests=N          total requests, striped over connections\n"
       "                        (default 256)\n"
       "  --rate=R              offered rate in requests/sec (default 200)\n"
       "  --burstiness=B        burst factor >= 1; 1 = Poisson (default 1)\n"
       "  --seed=S              hashed-schedule seed (default 1)\n"
       "  --users=N             distinct user ids in the stream (default 8)\n"
       "  --features=N          feature-map rows (default: model default)\n"
       "  --window=N            feature-map cols (default: model default)\n"
       "  --label-fraction=F    share of labelled requests (default 0.25)\n"
       "  --timeout=SEC         give up on missing responses (default 30);\n"
       "                        unanswered requests count as dropped, the\n"
       "                        generator never hangs\n"
       "  --shutdown-after      send a shutdown frame when done\n"
       "  --drift-users=N       user ids below N drift: their maps shift by\n"
       "                        a constant offset past --drift-after-index\n"
       "                        (default 0 = no drift)\n"
       "  --drift-after-index=N absolute request index where drifting users'\n"
       "                        maps start shifting (default 0 = off)\n"
       "  --drift-shift=F       additive per-sample offset for drifted maps\n"
       "                        (default 1.5)\n"
       "  --start-index=N       resume the hashed stream at absolute request\n"
       "                        index N: sends exactly what requests\n"
       "                        [N, N+requests) of a --start-index=0 run\n"
       "                        would have sent, virtual arrivals included\n"
       "  --responses=FILE      write one line per response (sorted by\n"
       "                        request id, deterministic fields only) for\n"
       "                        bit-identity diffs across runs\n"
       "  --json=FILE           write a clear-bench-loadgen-v1 report\n"},
  };
  const auto it = kHelp.find(command);
  return it == kHelp.end() ? nullptr : it->second;
}

core::ClearConfig config_from(const CliArgs& args) {
  core::ClearConfig config = core::default_config();
  config.data.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(config.data.seed)));
  config.data.n_volunteers = static_cast<std::size_t>(args.get_int(
      "volunteers", static_cast<std::int64_t>(config.data.n_volunteers)));
  config.data.trials_per_volunteer = static_cast<std::size_t>(args.get_int(
      "trials", static_cast<std::int64_t>(config.data.trials_per_volunteer)));
  config.train.epochs = static_cast<std::size_t>(
      args.get_int("epochs", static_cast<std::int64_t>(config.train.epochs)));
  config.gc.k = static_cast<std::size_t>(
      args.get_int("k", static_cast<std::int64_t>(config.gc.k)));
  config.finalize();
  return config;
}

wemac::WemacDataset dataset_from(const core::ClearConfig& config,
                                 const CliArgs& args) {
  return wemac::generate_or_load(config.data,
                                 args.get("cache-dir", "wemac_cache"));
}

int cmd_generate(const CliArgs& args) {
  const core::ClearConfig config = config_from(args);
  const wemac::WemacDataset d = dataset_from(config, args);
  std::printf("volunteers: %zu\n", d.n_volunteers());
  std::printf("feature maps: %zu (%zu features x %zu windows)\n",
              d.samples().size(), d.feature_dim(),
              config.data.windows_per_trial);
  std::size_t fear = 0;
  for (const wemac::Sample& s : d.samples()) fear += s.label;
  std::printf("fear share: %.1f%%\n",
              100.0 * static_cast<double>(fear) /
                  static_cast<double>(d.samples().size()));
  std::vector<std::size_t> arch(wemac::kNumArchetypes, 0);
  for (const auto& v : d.volunteers()) ++arch[v.archetype_id];
  std::printf("archetype mix:");
  for (std::size_t a = 0; a < arch.size(); ++a)
    std::printf(" %s=%zu", wemac::default_archetypes()[a].name.c_str(),
                arch[a]);
  std::printf("\n");
  return 0;
}

int cmd_train(const CliArgs& args) {
  const std::string out = args.get("artifacts", "");
  if (out.empty()) {
    std::fprintf(stderr, "train requires --artifacts=DIR\n");
    return 2;
  }
  const core::ClearConfig config = config_from(args);
  const wemac::WemacDataset d = dataset_from(config, args);
  const auto holdout = static_cast<std::size_t>(args.get_int("holdout", 1));
  if (holdout + 4 > d.n_volunteers()) {
    std::fprintf(stderr, "holdout leaves too few training users\n");
    return 2;
  }
  std::vector<std::size_t> users;
  for (std::size_t u = 0; u + holdout < d.n_volunteers(); ++u)
    users.push_back(u);
  std::printf("fitting pipeline on %zu users (%zu held out)...\n",
              users.size(), holdout);
  core::ClearPipeline pipeline(config);
  pipeline.fit(d, users);
  for (std::size_t k = 0; k < pipeline.n_clusters(); ++k)
    std::printf("  cluster %zu: %zu users\n", k,
                pipeline.clustering().clusters[k].members.size());
  core::save_pipeline(pipeline, out);
  std::printf("artifacts written to %s\n", out.c_str());
  return 0;
}

int cmd_info(const CliArgs& args) {
  core::ClearPipeline pipeline =
      core::load_pipeline(args.get("artifacts", "clear_artifacts"));
  const auto& config = pipeline.config();
  std::printf("clusters: %zu\n", pipeline.n_clusters());
  for (std::size_t k = 0; k < pipeline.n_clusters(); ++k) {
    const auto& c = pipeline.clustering().clusters[k];
    std::printf("  cluster %zu: %zu users, %zu sub-centroids\n", k,
                c.members.size(), c.sub_centroids.size());
  }
  std::printf("model: %zux%zu map, conv %zu->%zu, LSTM %zu, %zu params\n",
              config.model.feature_dim, config.model.window_count,
              config.model.conv1_channels, config.model.conv2_channels,
              config.model.lstm_hidden,
              pipeline.cluster_model(0).parameter_count());
  std::printf("fitted users: %zu\n", pipeline.fitted_users().size());
  return 0;
}

int cmd_assign(const CliArgs& args) {
  const core::ClearConfig config = config_from(args);
  const wemac::WemacDataset d = dataset_from(config, args);
  core::ClearPipeline pipeline =
      core::load_pipeline(args.get("artifacts", "clear_artifacts"));
  const auto user = static_cast<std::size_t>(args.get_int("user",
      static_cast<std::int64_t>(d.n_volunteers() - 1)));
  const double fraction = args.get_double("fraction", 0.1);
  const cluster::AssignmentResult r =
      pipeline.assign_user(d, user, fraction);
  std::printf("user %zu -> cluster %zu (from %.0f%% unlabeled data)\n", user,
              r.cluster, fraction * 100.0);
  for (std::size_t k = 0; k < r.scores.size(); ++k)
    std::printf("  cluster %zu score: %.4f%s\n", k, r.scores[k],
                k == r.cluster ? "  <-- assigned" : "");
  return 0;
}

int cmd_evaluate(const CliArgs& args) {
  const core::ClearConfig config = config_from(args);
  const wemac::WemacDataset d = dataset_from(config, args);
  core::ClearPipeline pipeline =
      core::load_pipeline(args.get("artifacts", "clear_artifacts"));
  const auto user = static_cast<std::size_t>(args.get_int("user",
      static_cast<std::int64_t>(d.n_volunteers() - 1)));
  const auto& samples = d.samples_of(user);
  const std::vector<std::size_t> idx(samples.begin(), samples.end());
  AsciiTable table({"cluster", "accuracy", "F1"});
  table.set_title("user " + std::to_string(user) + " on every cluster model");
  for (std::size_t k = 0; k < pipeline.n_clusters(); ++k) {
    const nn::BinaryMetrics m = pipeline.evaluate_on(d, k, idx);
    table.add_row({std::to_string(k),
                   AsciiTable::num(m.accuracy * 100.0, 1) + "%",
                   AsciiTable::num(m.f1 * 100.0, 1) + "%"});
  }
  table.print();
  return 0;
}

int cmd_personalize(const CliArgs& args) {
  core::ClearConfig config = config_from(args);
  config.ft_fraction = args.get_double("ft-fraction", config.ft_fraction);
  const wemac::WemacDataset d = dataset_from(config, args);
  core::ClearPipeline pipeline =
      core::load_pipeline(args.get("artifacts", "clear_artifacts"));
  const auto user = static_cast<std::size_t>(args.get_int("user",
      static_cast<std::int64_t>(d.n_volunteers() - 1)));
  const auto assignment = pipeline.assign_user(d, user, config.ca_fraction);
  const core::UserSplit split = core::split_user_samples(
      d, user, config.ca_fraction, config.ft_fraction);
  const nn::BinaryMetrics before =
      pipeline.evaluate_on(d, assignment.cluster, split.test);
  auto personal = pipeline.clone_cluster_model(assignment.cluster);
  pipeline.fine_tune_on(*personal, d, split.ft);
  const std::vector<Tensor> test_maps = pipeline.normalize_samples(d, split.test);
  nn::MapDataset test_set;
  for (std::size_t i = 0; i < test_maps.size(); ++i) {
    test_set.maps.push_back(&test_maps[i]);
    test_set.labels.push_back(
        static_cast<std::size_t>(d.samples()[split.test[i]].label));
  }
  const nn::BinaryMetrics after = nn::evaluate(*personal, test_set);
  std::printf("user %zu (cluster %zu, %zu labelled maps):\n", user,
              assignment.cluster, split.ft.size());
  std::printf("  before fine-tuning: %.1f%% accuracy / %.1f%% F1\n",
              before.accuracy * 100.0, before.f1 * 100.0);
  std::printf("  after fine-tuning:  %.1f%% accuracy / %.1f%% F1\n",
              after.accuracy * 100.0, after.f1 * 100.0);
  return 0;
}

std::vector<double> rate_list(const CliArgs& args, const std::string& flag,
                              std::vector<double> fallback) {
  const std::string raw = args.get(flag, "");
  if (raw.empty()) return fallback;
  std::vector<double> rates;
  std::size_t start = 0;
  while (start <= raw.size()) {
    const std::size_t comma = raw.find(',', start);
    const std::string cell =
        raw.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    rates.push_back(csv::parse_double(cell, 0, rates.size()));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  CLEAR_CHECK_MSG(!rates.empty(), "--" << flag << " needs at least one rate");
  return rates;
}

int cmd_robustness(const CliArgs& args) {
  const core::ClearConfig config = config_from(args);
  core::RobustnessOptions options;
  options.dropout_rates = rate_list(args, "dropout", {0.0, 0.05, 0.10});
  options.corrupt_rates = rate_list(args, "corrupt", {0.0, 0.01});
  options.jitter_rate = args.get_double("jitter", 0.0);
  options.max_folds = static_cast<std::size_t>(args.get_int("folds", 0));
  options.fault_seed =
      static_cast<std::uint64_t>(args.get_int("fault-seed", 1));
  options.progress = [](std::size_t cell, std::size_t total,
                        const core::RobustnessPoint& p) {
    std::printf("[%zu/%zu] dropout=%.3f corrupt=%.3f ...\n", cell + 1, total,
                p.dropout_rate, p.corrupt_rate);
    std::fflush(stdout);
  };

  const std::vector<core::RobustnessPoint> points =
      core::run_robustness_sweep(config, options);

  AsciiTable table({"dropout", "corrupt", "faulted", "w/o FT acc",
                    "w/o FT F1", "RT acc", "CA cons"});
  table.set_title("CLEAR accuracy vs fault rate (LOSO, fault seed " +
                  std::to_string(options.fault_seed) + ")");
  for (const core::RobustnessPoint& p : points) {
    table.add_row({AsciiTable::num(p.dropout_rate * 100.0, 1) + "%",
                   AsciiTable::num(p.corrupt_rate * 100.0, 1) + "%",
                   AsciiTable::num(p.faults.faulted_fraction() * 100.0, 2) +
                       "%",
                   AsciiTable::num(p.no_ft.accuracy.mean, 1) + "±" +
                       AsciiTable::num(p.no_ft.accuracy.stddev, 1),
                   AsciiTable::num(p.no_ft.f1.mean, 1) + "±" +
                       AsciiTable::num(p.no_ft.f1.stddev, 1),
                   AsciiTable::num(p.rt.accuracy.mean, 1),
                   AsciiTable::num(p.ca_consistency, 2)});
  }
  table.print();
  return 0;
}

int cmd_profile(const CliArgs& args) {
  core::ClearConfig config = core::default_config();
  config.data.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(config.data.seed)));
  config.data.n_volunteers =
      static_cast<std::size_t>(args.get_int("volunteers", 6));
  config.data.trials_per_volunteer =
      static_cast<std::size_t>(args.get_int("trials", 4));
  config.train.epochs = static_cast<std::size_t>(args.get_int("epochs", 2));
  config.finetune.epochs =
      static_cast<std::size_t>(args.get_int("ft-epochs", 2));
  config.gc.k = static_cast<std::size_t>(
      args.get_int("k", static_cast<std::int64_t>(config.gc.k)));
  config.finalize();

  // Generate in memory (no cache) so the feature-extraction spans of every
  // synthesized window land in the trace instead of being skipped by a
  // cache hit.
  const wemac::WemacDataset d = wemac::generate_wemac(config.data);

  core::ClearOptions options;
  options.max_folds = static_cast<std::size_t>(args.get_int("folds", 1));
  options.run_finetune = true;
  const core::ClearValidationResult r =
      core::run_clear_validation(d, config, options);

  // Numeric results on stdout: bit-identical with metrics on or off (the
  // registry is write-only from the pipeline's point of view).
  AsciiTable table({"fold", "w/o FT acc", "w/o FT F1", "w FT acc", "w FT F1"});
  table.set_title("profile slice (" + std::to_string(options.max_folds) +
                  " LOSO fold(s))");
  for (std::size_t f = 0; f < r.no_ft.folds(); ++f)
    table.add_row({std::to_string(f),
                   AsciiTable::num(r.no_ft.fold_accuracy[f], 4),
                   AsciiTable::num(r.no_ft.fold_f1[f], 4),
                   AsciiTable::num(r.with_ft.fold_accuracy[f], 4),
                   AsciiTable::num(r.with_ft.fold_f1[f], 4)});
  table.print();

  // Per-precision edge forward sweep so the trace carries the edge engine's
  // kernel timings next to the pipeline phases.
  const std::vector<std::size_t>& samples = d.samples_of(0);
  std::vector<Tensor> maps;
  std::vector<const Tensor*> map_ptrs;
  nn::MapDataset edge_set;
  for (const std::size_t s : samples) {
    maps.push_back(d.samples()[s].feature_map);
    edge_set.labels.push_back(
        static_cast<std::size_t>(d.samples()[s].label));
  }
  for (const Tensor& m : maps) {
    map_ptrs.push_back(&m);
    edge_set.maps.push_back(&m);
  }
  for (const edge::Precision p :
       {edge::Precision::kFp32, edge::Precision::kFp16,
        edge::Precision::kInt8}) {
    Rng rng(config.seed ^ 0xED6E);
    edge::EngineConfig ec;
    ec.precision = p;
    edge::EdgeEngine engine(nn::build_cnn_lstm(config.model, rng), ec);
    if (p == edge::Precision::kInt8) engine.calibrate(map_ptrs);
    const nn::BinaryMetrics m = engine.evaluate(edge_set);
    std::printf("edge %s: %.4f accuracy over %zu maps\n",
                edge::precision_name(p), m.accuracy, edge_set.size());
  }
  return 0;
}

std::vector<edge::Precision> precisions_from(const CliArgs& args) {
  const std::string raw = args.get("precisions", "fp32");
  std::vector<edge::Precision> out;
  std::size_t start = 0;
  while (start <= raw.size()) {
    const std::size_t comma = raw.find(',', start);
    const std::string cell =
        raw.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    if (cell == "fp32") out.push_back(edge::Precision::kFp32);
    else if (cell == "fp16") out.push_back(edge::Precision::kFp16);
    else if (cell == "int8") out.push_back(edge::Precision::kInt8);
    else CLEAR_CHECK_MSG(false, "unknown precision: " << cell);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  CLEAR_CHECK_MSG(!out.empty(), "--precisions needs at least one entry");
  return out;
}

void print_serve_summary(const serve::Server& server) {
  const serve::ServeCounters& c = server.counters();
  std::printf("-- serve summary --\n");
  std::printf(
      "requests=%zu ok=%zu shed=%zu batches=%zu rows=%zu max_batch=%zu\n",
      c.requests, c.ok, c.shed, c.batches, c.rows, c.max_batch_rows);
  std::printf(
      "assignments=%zu finetunes=%zu ft_failures=%zu sanitized=%zu "
      "degraded=%zu recovered=%zu\n",
      c.assignments, c.finetunes, c.finetune_failures, c.sanitized,
      c.degraded, c.recovered);
  // Gated on activity so drift-disabled runs (the goldens) print nothing new.
  if (c.drift_ticks > 0)
    std::printf(
        "drift: ticks=%zu detected=%zu reassessments=%zu false_alarms=%zu "
        "shadow_ticks=%zu promotions=%zu demotions=%zu\n",
        c.drift_ticks, c.drift_detected, c.reassessments,
        c.drift_false_alarms, c.shadow_ticks, c.promotions, c.demotions);
  // Gated on activity like drift: journal-less runs print nothing new.
  if (c.delta_encoded + c.delta_full_fallbacks + c.delta_loads > 0)
    std::printf(
        "delta: encoded=%zu full_fallbacks=%zu loads=%zu bytes_saved=%zu\n",
        c.delta_encoded, c.delta_full_fallbacks, c.delta_loads,
        c.delta_bytes_saved);
  const serve::CacheStats& cs = server.cache().stats();
  std::printf(
      "cache: hits=%zu misses=%zu evictions=%zu fallbacks=%zu resident=%zu "
      "bytes=%zu\n",
      cs.hits, cs.misses, cs.evictions, cs.fallbacks, server.cache().size(),
      cs.bytes_in_use);
}

// SIGINT/SIGTERM → graceful drain for `serve --listen`. NetServer::stop()
// is async-signal-safe (it writes one byte to a self-pipe), so the handler
// may call it directly; the event loop then stops accepting, flushes every
// pending batch, writes a final snapshot when journaling, and run() returns.
std::atomic<net::NetServer*> g_signal_target{nullptr};

extern "C" void on_stop_signal(int) {
  net::NetServer* target = g_signal_target.load(std::memory_order_relaxed);
  if (target != nullptr) target->stop();
}

int cmd_serve(const CliArgs& args) {
  // The serve demo is sized like `profile`, not like a full cloud run: a
  // small dataset is generated in memory and (unless --artifacts points at a
  // trained deployment) a pipeline is fitted on all but the last two
  // volunteers, so the replayed workload contains genuinely cold users.
  // When --artifacts is given, pass the same dataset flags used at train
  // time so the workload's feature maps match the model geometry.
  core::ClearConfig config = core::default_config();
  config.data.seed =
      static_cast<std::uint64_t>(args.get_int("data-seed", 42));
  config.data.n_volunteers =
      static_cast<std::size_t>(args.get_int("volunteers", 8));
  config.data.trials_per_volunteer =
      static_cast<std::size_t>(args.get_int("trials", 5));
  config.train.epochs = static_cast<std::size_t>(args.get_int("epochs", 2));
  config.finetune.epochs =
      static_cast<std::size_t>(args.get_int("ft-epochs", 2));
  config.gc.k = static_cast<std::size_t>(
      args.get_int("k", static_cast<std::int64_t>(config.gc.k)));
  config.finalize();

  const wemac::WemacDataset d = wemac::generate_wemac(config.data);

  serve::ModelSource source;
  const std::string artifacts = args.get("artifacts", "");
  if (!artifacts.empty()) {
    source = serve::ModelSource::from_artifacts(artifacts);
  } else {
    std::vector<std::size_t> users;
    for (std::size_t u = 0; u + 2 < d.n_volunteers(); ++u) users.push_back(u);
    std::printf("fitting pipeline on %zu of %zu volunteers...\n",
                users.size(), d.n_volunteers());
    std::fflush(stdout);
    core::ClearPipeline pipeline(config);
    pipeline.fit(d, users);
    source = serve::ModelSource::from_pipeline(pipeline);
  }

  serve::ServeConfig sc;
  sc.batch.max_batch =
      static_cast<std::size_t>(args.get_int("max-batch", 8));
  sc.batch.max_wait_us = static_cast<std::uint64_t>(args.get_int(
      "max-wait-us", static_cast<std::int64_t>(sc.batch.max_wait_us)));
  sc.batch.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-cap", 32));
  sc.batch.max_pending =
      static_cast<std::size_t>(args.get_int("max-pending", 256));
  sc.session.ca_windows =
      static_cast<std::size_t>(args.get_int("ca-windows", 6));
  sc.session.ft_maps = static_cast<std::size_t>(args.get_int("ft-maps", 4));
  sc.session.enable_finetune = !args.get_bool("no-finetune", false);
  sc.session.drift_after =
      static_cast<std::size_t>(args.get_int("drift-after", 0));
  sc.session.drift_ratio =
      args.get_double("drift-ratio", sc.session.drift_ratio);
  sc.session.reassess_windows = static_cast<std::size_t>(args.get_int(
      "reassess-windows",
      static_cast<std::int64_t>(sc.session.reassess_windows)));
  sc.session.shadow_windows = static_cast<std::size_t>(args.get_int(
      "shadow-windows", static_cast<std::int64_t>(sc.session.shadow_windows)));
  sc.cache_budget_bytes =
      static_cast<std::size_t>(args.get_int("cache-budget-kb", 4096)) * 1024;
  sc.max_sessions =
      static_cast<std::size_t>(args.get_int("max-sessions", 4096));
  sc.precisions = precisions_from(args);
  sc.journal.directory = args.get("journal-dir", "");
  sc.journal.snapshot_every =
      static_cast<std::size_t>(args.get_int("snapshot-every", 1024));
  sc.journal.fsync = args.get_bool("journal-fsync", false);
  const bool recover = args.get_bool("recover", false);
  if (recover && sc.journal.directory.empty()) {
    std::fprintf(stderr, "--recover requires --journal-dir=DIR\n");
    return 2;
  }

  bool wants_int8 = false;
  for (const edge::Precision p : sc.precisions)
    wants_int8 |= p == edge::Precision::kInt8;
  if (wants_int8) {
    // int8 engines need activation statistics; volunteer 0's normalized
    // maps stand in for a calibration capture.
    for (const std::size_t s : d.samples_of(0)) {
      Tensor m = d.samples()[s].feature_map;
      source.normalizer.apply_map(m);
      sc.calibration_maps.push_back(std::move(m));
    }
  }

  // --journal-dir: replay it (printing the report) or start it fresh.
  const auto start_journal = [&](serve::Server& server) {
    if (sc.journal.directory.empty()) return;
    if (recover) {
      std::printf("%s", server.recover().str().c_str());
      return;
    }
    server.open_journal();
    std::printf("journaling to %s (snapshot every %zu records)\n",
                sc.journal.directory.c_str(), sc.journal.snapshot_every);
  };

  const std::string listen = args.get("listen", "");
  if (!listen.empty()) {
    // Wire mode: the epoll front end drives the server; requests arrive as
    // frames instead of a replayed workload. Runs until a shutdown frame.
    net::NetServerConfig nc;
    nc.listen = net::parse_endpoint(listen);
    nc.max_connections =
        static_cast<std::size_t>(args.get_int("max-connections", 64));
    nc.port_file = args.get("port-file", "");
    serve::Server server(std::move(source), sc);
    start_journal(server);
    net::NetServer net_server(server, nc);
    std::printf("listening on %s:%u\n", nc.listen.host.c_str(),
                net_server.port());
    // Machine-readable port line (stable contract for scripts; with port 0
    // this is how a launcher learns the ephemeral port without a file).
    std::printf("LISTENING %u\n", net_server.port());
    std::fflush(stdout);
    g_signal_target.store(&net_server);
    std::signal(SIGINT, on_stop_signal);
    std::signal(SIGTERM, on_stop_signal);
    net_server.run();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_signal_target.store(nullptr);
    print_serve_summary(server);
    const net::NetCounters& n = net_server.counters();
    std::printf(
        "net: accepted=%llu closed=%llu rejected=%llu frames_in=%llu "
        "frames_out=%llu deadline_releases=%llu held_requests=%llu\n",
        static_cast<unsigned long long>(n.accepted),
        static_cast<unsigned long long>(n.closed),
        static_cast<unsigned long long>(n.rejected),
        static_cast<unsigned long long>(n.frames_in),
        static_cast<unsigned long long>(n.frames_out),
        static_cast<unsigned long long>(n.deadline_releases),
        static_cast<unsigned long long>(n.held_requests));
    std::printf(
        "net: bytes_in=%llu bytes_out=%llu decode_errors=%llu "
        "partial_drops=%llu dropped_responses=%llu clamped=%llu "
        "held_sheds=%llu\n",
        static_cast<unsigned long long>(n.bytes_in),
        static_cast<unsigned long long>(n.bytes_out),
        static_cast<unsigned long long>(n.decode_errors),
        static_cast<unsigned long long>(n.partial_drops),
        static_cast<unsigned long long>(n.dropped_responses),
        static_cast<unsigned long long>(n.clamped_arrivals),
        static_cast<unsigned long long>(n.held_sheds));
    return 0;
  }

  serve::WorkloadConfig wc;
  wc.n_users = static_cast<std::size_t>(args.get_int("users", 32));
  wc.requests_per_user =
      static_cast<std::size_t>(args.get_int("requests", 24));
  wc.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  wc.labeled_fraction =
      args.get_double("labeled-fraction", wc.labeled_fraction);
  wc.degraded_user_fraction =
      args.get_double("degraded-fraction", wc.degraded_user_fraction);
  wc.drift_user_fraction =
      args.get_double("drift-fraction", wc.drift_user_fraction);
  wc.drift_at_fraction = args.get_double("drift-at", wc.drift_at_fraction);
  wc.drift_blend = args.get_double("drift-blend", wc.drift_blend);

  std::vector<serve::ServeRequest> requests = serve::make_workload(d, wc);
  std::printf("replaying %zu requests from %zu users (seed %llu)\n",
              requests.size(), wc.n_users,
              static_cast<unsigned long long>(wc.seed));
  std::fflush(stdout);

  serve::Server server(std::move(source), sc);
  start_journal(server);
  const std::vector<serve::ServeResult> results =
      server.run(std::move(requests));

  for (const serve::ServeResult& r : results) {
    if (r.status == serve::ServeResult::Status::kOk) {
      std::printf(
          "user=%llu req=%llu pred=%d p=%.6f route=%s state=%s batch=%zu "
          "wait=%lluus\n",
          static_cast<unsigned long long>(r.user_id),
          static_cast<unsigned long long>(r.request_id), r.predicted,
          static_cast<double>(r.fear_probability), r.route.str().c_str(),
          serve::session_state_name(r.session_state), r.batch_rows,
          static_cast<unsigned long long>(r.exec_us - r.arrival_us));
    } else {
      std::printf("user=%llu req=%llu SHED %s\n",
                  static_cast<unsigned long long>(r.user_id),
                  static_cast<unsigned long long>(r.request_id),
                  r.error.c_str());
    }
  }

  print_serve_summary(server);

  std::map<serve::SessionState, std::size_t> by_state;
  double ttfp_total = 0.0;
  std::size_t ttfp_n = 0;
  for (const serve::Session* s : server.sessions().sessions()) {
    ++by_state[s->state()];
    if (s->first_prediction_us) {
      ttfp_total += static_cast<double>(*s->first_prediction_us -
                                        s->first_arrival_us);
      ++ttfp_n;
    }
  }
  std::printf("sessions:");
  for (const auto& [state, n] : by_state)
    std::printf(" %s=%zu", serve::session_state_name(state), n);
  std::printf("\n");
  if (ttfp_n > 0)
    std::printf(
        "mean time-to-first-prediction: %.1fus (virtual, %zu users)\n",
        ttfp_total / static_cast<double>(ttfp_n), ttfp_n);
  return 0;
}

// SIGINT/SIGTERM → graceful fleet shutdown for `coord` (same self-pipe
// pattern as the serve handler above).
std::atomic<shard::Coordinator*> g_coord_signal_target{nullptr};

extern "C" void on_coord_stop_signal(int) {
  shard::Coordinator* target =
      g_coord_signal_target.load(std::memory_order_relaxed);
  if (target != nullptr) target->stop();
}

/// Split a comma-separated list, keeping empty cells ("a,,c" has three).
std::vector<std::string> split_list(const std::string& raw) {
  std::vector<std::string> cells;
  if (raw.empty()) return cells;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = raw.find(',', start);
    cells.push_back(raw.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start));
    if (comma == std::string::npos) return cells;
    start = comma + 1;
  }
}

int cmd_coord(const CliArgs& args) {
  const std::string shards_raw = args.get("shards", "");
  if (shards_raw.empty()) {
    std::fprintf(stderr, "coord requires --shards=HOST:PORT,...\n");
    return 2;
  }
  const std::vector<std::string> specs = split_list(shards_raw);
  const std::vector<std::string> journals =
      split_list(args.get("shard-journals", ""));
  if (!journals.empty() && journals.size() != specs.size()) {
    std::fprintf(stderr,
                 "--shard-journals has %zu cells but --shards has %zu\n",
                 journals.size(), specs.size());
    return 2;
  }
  shard::CoordinatorConfig cc;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    shard::ShardSpec spec;
    spec.endpoint = net::parse_endpoint(specs[i]);
    if (i < journals.size()) spec.journal_dir = journals[i];
    cc.shards.push_back(std::move(spec));
  }
  cc.listen = net::parse_endpoint(args.get("listen", "127.0.0.1:0"));
  cc.port_file = args.get("port-file", "");
  cc.ring.vnodes = static_cast<std::uint32_t>(args.get_int("vnodes", 128));
  cc.ring.seed = static_cast<std::uint64_t>(args.get_int("ring-seed", 1));
  cc.heartbeat_ms =
      static_cast<std::uint64_t>(args.get_int("heartbeat-ms", 200));
  cc.missed_limit =
      static_cast<std::size_t>(args.get_int("missed-limit", 3));
  cc.max_connections =
      static_cast<std::size_t>(args.get_int("max-connections", 64));
  cc.decommission_shard = args.get_int("decommission-shard", -1);
  cc.decommission_after =
      static_cast<std::uint64_t>(args.get_int("decommission-after", 0));

  shard::Coordinator coord(cc);
  std::printf("coordinating %zu shards\n", cc.shards.size());
  std::printf("LISTENING %u\n", coord.port());
  std::fflush(stdout);
  g_coord_signal_target.store(&coord);
  std::signal(SIGINT, on_coord_stop_signal);
  std::signal(SIGTERM, on_coord_stop_signal);
  coord.run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_coord_signal_target.store(nullptr);

  const shard::CoordinatorCounters& c = coord.counters();
  std::printf("-- coord summary --\n");
  std::printf(
      "requests=%llu forwarded=%llu queued=%llu responses=%llu\n",
      static_cast<unsigned long long>(c.requests),
      static_cast<unsigned long long>(c.forwarded),
      static_cast<unsigned long long>(c.queued),
      static_cast<unsigned long long>(c.responses));
  std::printf(
      "pings=%llu missed=%llu deaths=%llu adoptions=%llu adopted=%llu "
      "migrations=%llu failed=%llu\n",
      static_cast<unsigned long long>(c.pings),
      static_cast<unsigned long long>(c.heartbeats_missed),
      static_cast<unsigned long long>(c.shard_deaths),
      static_cast<unsigned long long>(c.adoptions),
      static_cast<unsigned long long>(c.adopted_sessions),
      static_cast<unsigned long long>(c.migrations),
      static_cast<unsigned long long>(c.migrations_failed));
  return 0;
}

int cmd_loadgen(const CliArgs& args) {
  const std::string connect = args.get("connect", "");
  if (connect.empty()) {
    std::fprintf(stderr, "loadgen requires --connect=HOST:PORT\n");
    return 2;
  }
  const core::ClearConfig defaults = core::default_config();
  net::LoadgenConfig lc;
  lc.target = net::parse_endpoint(connect);
  lc.connections =
      static_cast<std::size_t>(args.get_int("connections", 4));
  lc.requests = static_cast<std::size_t>(args.get_int("requests", 256));
  lc.rate_rps = args.get_double("rate", 200.0);
  lc.burstiness = args.get_double("burstiness", 1.0);
  lc.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  lc.users = static_cast<std::size_t>(args.get_int("users", 8));
  lc.features = static_cast<std::size_t>(args.get_int(
      "features", static_cast<std::int64_t>(defaults.model.feature_dim)));
  lc.window = static_cast<std::size_t>(args.get_int(
      "window", static_cast<std::int64_t>(defaults.model.window_count)));
  lc.label_fraction = args.get_double("label-fraction", 0.25);
  lc.timeout_seconds = args.get_double("timeout", 30.0);
  lc.shutdown_after = args.get_bool("shutdown-after", false);
  lc.start_index =
      static_cast<std::size_t>(args.get_int("start-index", 0));
  lc.drift_users = static_cast<std::size_t>(args.get_int("drift-users", 0));
  lc.drift_after_index =
      static_cast<std::size_t>(args.get_int("drift-after-index", 0));
  lc.drift_shift = args.get_double("drift-shift", lc.drift_shift);
  lc.responses_path = args.get("responses", "");

  const net::LoadgenReport report = net::run_loadgen(lc);

  std::printf("-- loadgen summary --\n");
  std::printf("sent=%zu received=%zu ok=%zu shed=%zu dropped=%zu\n",
              report.sent, report.received, report.ok, report.shed,
              report.dropped);
  std::printf("wall=%.3fs offered=%.1f rps achieved=%.1f rps\n",
              report.wall_seconds, report.offered_rps, report.achieved_rps);
  std::printf(
      "latency: p50=%.0fus p90=%.0fus p99=%.0fus p99.9=%.0fus max=%.0fus "
      "mean=%.0fus\n",
      report.latency.p50_us, report.latency.p90_us, report.latency.p99_us,
      report.latency.p999_us, report.latency.max_us, report.latency.mean_us);

  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string json = report.json(lc);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("report written to %s\n", json_path.c_str());
  }
  // A run where nothing came back is a failed run, whatever the counters
  // say; partial drops are reported but left to callers to gate on.
  return report.received > 0 ? 0 : 1;
}

/// Top-of-registry span summary on stderr (stdout stays numeric-only so a
/// metrics-on run is byte-comparable to a metrics-off run).
void print_span_summary() {
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  struct Row {
    std::size_t count = 0;
    std::uint64_t total_us = 0;
    std::uint64_t max_us = 0;
  };
  std::map<std::string, Row> rows;
  for (const obs::TraceEvent& e : events) {
    Row& row = rows[e.name];
    ++row.count;
    row.total_us += e.dur_us;
    row.max_us = std::max<std::uint64_t>(row.max_us, e.dur_us);
  }
  std::fprintf(stderr, "-- span summary (%zu events) --\n", events.size());
  for (const auto& [name, row] : rows)
    std::fprintf(stderr, "  %-24s count=%-6zu total=%.3fms max=%.3fms\n",
                 name.c_str(), row.count,
                 static_cast<double>(row.total_us) / 1000.0,
                 static_cast<double>(row.max_us) / 1000.0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    if (args.positional().empty())
      return usage(args.get_bool("help", false) ? stdout : stderr);
    const std::string& command = args.positional()[0];
    if (args.get_bool("help", false)) {
      // Handled before CommonFlags::apply so `profile --help` does not
      // enable (and later snapshot) the metrics registry.
      const char* help = command_help(command);
      if (help == nullptr) {
        std::fprintf(stderr, "unknown command: %s\n", command.c_str());
        return usage();
      }
      std::printf("%s%s", help, CommonFlags::help());
      return 0;
    }
    // Shared flags (--threads / --metrics-out) behave identically across
    // every subcommand; `profile` defaults the metrics snapshot on.
    const CommonFlags flags = CommonFlags::apply(
        args, command == "profile" ? "clear_profile.json" : "");

    int rc = 2;
    bool known = true;
    if (command == "generate") rc = cmd_generate(args);
    else if (command == "train") rc = cmd_train(args);
    else if (command == "info") rc = cmd_info(args);
    else if (command == "assign") rc = cmd_assign(args);
    else if (command == "evaluate") rc = cmd_evaluate(args);
    else if (command == "personalize") rc = cmd_personalize(args);
    else if (command == "robustness") rc = cmd_robustness(args);
    else if (command == "profile") rc = cmd_profile(args);
    else if (command == "serve") rc = cmd_serve(args);
    else if (command == "loadgen") rc = cmd_loadgen(args);
    else if (command == "coord") rc = cmd_coord(args);
    else known = false;
    if (!known) {
      std::fprintf(stderr, "unknown command: %s\n", command.c_str());
      return usage();
    }
    if (!flags.metrics_out.empty()) print_span_summary();
    if (flags.finish())
      std::fprintf(stderr, "metrics written to %s\n",
                   flags.metrics_out.c_str());
    return rc;
  } catch (const clear::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
