// The benchmark's three workloads: model fitting, generated request streams,
// and the serving topology each one runs against.
//
//   steady  — every user already through cluster assignment (untimed
//             warm-up), three device tiers, no labels, no journal, Poisson
//             arrivals into one NetServer. Only the per-request path works.
//   onboard — new users join at a steady rate, half their windows labelled,
//             so assignment and inline fine-tuning fire early; journaling
//             with delta checkpoints on. Ends in a crash image + recovery.
//   fleet   — steady's stream (same seed) through a Coordinator to two
//             shards; heartbeats on.
//
// The deployment (WEMAC dataset, fitted cloud stage) is fixed; the traffic
// is a pure function of the workload seed: which of its maps each user sends
// when (serve::make_workload's interleaving), labels, and the send schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "serve/server.hpp"
#include "shard/coordinator.hpp"
#include "wemac/dataset.hpp"

namespace perfbench {

using namespace clear;

enum class Workload { kSteady, kOnboard, kFleet };

Workload parse_workload(const std::string& name);

/// The cloud stage: dataset, fitted clusters and models, int8 calibration.
struct Model {
  wemac::WemacDataset dataset;
  serve::ModelSource source;
  std::vector<Tensor> calibration;  ///< Normalized maps of volunteer 0.
};

Model fit_model();

/// The serving configuration every node of a workload runs.
serve::ServeConfig serve_config(Workload w, const Model& model,
                                const std::string& journal_dir);

/// Generated inputs. Requests carry virtual arrival times that increase
/// strictly across warm-up and timed phase; `due_ns` is each timed
/// request's wall-clock send offset from the timed phase's start.
struct Plan {
  std::vector<serve::ServeRequest> warm;
  std::vector<serve::ServeRequest> timed;
  std::vector<std::int64_t> due_ns;
  /// Ground-truth label of every timed request, labelled on the wire or
  /// not (the fine-tune probe uses it where the stream carries none).
  std::vector<int> truth;
};

Plan make_plan(Workload w, const wemac::WemacDataset& dataset,
               std::uint64_t seed, double seconds);

std::vector<net::WireRequest> to_wire(
    const std::vector<serve::ServeRequest>& requests);

/// One serve::Server behind one net::NetServer, run on its own thread.
struct Node {
  Node(serve::ModelSource source, serve::ServeConfig config);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  std::unique_ptr<serve::Server> server;
  std::unique_ptr<net::NetServer> net;
  std::string error;  ///< What escaped NetServer::run, read after join.
  std::thread thread;
};

/// The serving side of one workload plus the generator's connection.
/// Shutting down sends kShutdown through the generator's connection (for
/// fleet, the coordinator shuts its shards down) and joins every thread;
/// the destructor does the same by force if shutdown() was never reached.
struct Serving {
  Serving(Workload w, const Model& model, const serve::ServeConfig& config);
  ~Serving();
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  void shutdown();

  std::vector<std::unique_ptr<Node>> nodes;
  std::unique_ptr<shard::Coordinator> coordinator;
  std::string coordinator_error;
  std::thread coordinator_thread;
  int fd = -1;  ///< Generator connection (to the coordinator in fleet).
};

}  // namespace perfbench
