#include "workload.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "clear/pipeline.hpp"
#include "common/fault.hpp"
#include "gen.hpp"
#include "net/socket.hpp"
#include "serve/workload.hpp"

namespace perfbench {

namespace {

// Hash-stream tags for the benchmark's own draws.
constexpr std::uint64_t kTagDue = 0xB0u;
constexpr std::uint64_t kTagCadence = 0xB1u;

// Workload shapes (see README.md for why these sizes).
constexpr std::size_t kSteadyUsers = 256;
constexpr double kSteadyRate = 300.0;            // requests/s, Poisson
constexpr std::uint64_t kWarmSpacingUs = 1000;   // virtual, warm-up
constexpr double kOnboardJoinRate = 10.0;        // users/s
constexpr std::size_t kOnboardMinUsers = 100;    // ttp_p90 needs 10 beyond
constexpr std::size_t kOnboardRequests = 40;     // per user
constexpr double kOnboardGapS = 0.025;           // mean per-user gap
constexpr double kOnboardTailS = 1.5;            // last join to phase end

double u01(std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
           std::uint64_t b) {
  return fault::uniform01(fault::mix(seed, tag, a, b));
}

/// make_workload's stream indexed by [user][request id], every request
/// labelled with its ground truth.
std::vector<std::vector<serve::ServeRequest>> user_streams(
    const wemac::WemacDataset& dataset, std::uint64_t seed,
    std::size_t users, std::size_t per_user,
    std::vector<std::pair<std::uint64_t, std::uint64_t>>* order) {
  serve::WorkloadConfig wc;
  wc.n_users = users;
  wc.requests_per_user = per_user;
  wc.seed = seed;
  wc.labeled_fraction = 1.0;
  wc.degraded_user_fraction = 0.0;
  std::vector<serve::ServeRequest> stream = serve::make_workload(dataset, wc);
  std::vector<std::vector<serve::ServeRequest>> by_user(
      users, std::vector<serve::ServeRequest>(per_user));
  for (serve::ServeRequest& r : stream) {
    if (order) order->emplace_back(r.user_id, r.request_id);
    by_user[r.user_id][r.request_id] = std::move(r);
  }
  return by_user;
}

/// Virtual arrival for a wall-clock due offset, kept strictly increasing
/// so replay order never depends on a sort's tie-breaking.
std::uint64_t next_arrival(std::uint64_t base_us, std::int64_t due_ns,
                           std::uint64_t& last) {
  const std::uint64_t a =
      std::max(last + 1, base_us + static_cast<std::uint64_t>(due_ns / 1000));
  last = a;
  return a;
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "steady") return Workload::kSteady;
  if (name == "onboard") return Workload::kOnboard;
  if (name == "fleet") return Workload::kFleet;
  throw std::runtime_error("unknown workload '" + name +
                           "' (steady, onboard, fleet)");
}

Model fit_model() {
  // The deployment is fixed, like `clear-cli serve`'s in-memory one (data
  // seed 42, eight volunteers, the cloud stage fitted on six, so two
  // volunteers' users are unseen); the workload seed drives the traffic.
  // A seeded dataset would reshape the cluster split, and with it the
  // cache's working set, from one seed to the next.
  core::ClearConfig config = core::default_config();
  config.data.seed = 42;
  config.data.n_volunteers = 8;
  config.data.trials_per_volunteer = 5;
  config.train.epochs = 2;
  config.finetune.epochs = 2;
  config.finalize();

  Model m;
  m.dataset = wemac::generate_wemac(config.data);
  std::vector<std::size_t> fit_users;
  for (std::size_t u = 0; u + 2 < m.dataset.n_volunteers(); ++u)
    fit_users.push_back(u);
  core::ClearPipeline pipeline(config);
  pipeline.fit(m.dataset, fit_users);
  m.source = serve::ModelSource::from_pipeline(pipeline);
  for (const std::size_t s : m.dataset.samples_of(0)) {
    Tensor map = m.dataset.samples()[s].feature_map;
    m.source.normalizer.apply_map(map);
    m.calibration.push_back(std::move(map));
  }
  return m;
}

serve::ServeConfig serve_config(Workload w, const Model& model,
                                const std::string& journal_dir) {
  serve::ServeConfig sc;  // Batching, cache and session defaults.
  sc.precisions = {edge::Precision::kFp32, edge::Precision::kFp16,
                   edge::Precision::kInt8};
  sc.calibration_maps = model.calibration;
  if (w == Workload::kOnboard) sc.journal.directory = journal_dir;
  return sc;
}

Plan make_plan(Workload w, const wemac::WemacDataset& dataset,
               std::uint64_t seed, double seconds) {
  Plan plan;
  const std::size_t ca = serve::SessionPolicy().ca_windows;
  std::uint64_t last = 0;

  if (w == Workload::kOnboard) {
    // Users join at a steady rate and each sends kOnboardRequests windows
    // at a jittered cadence; even-numbered windows carry labels, so
    // assignment fires at window ca-1 and fine-tuning at the fourth
    // labelled window after it. Every user finishes before the phase ends.
    const double join_window = seconds - kOnboardTailS;
    const auto users =
        static_cast<std::size_t>(std::max(0.0, kOnboardJoinRate * join_window));
    if (users < kOnboardMinUsers)
      throw std::runtime_error(
          "onboard needs --seconds >= " +
          std::to_string(static_cast<int>(std::ceil(
              static_cast<double>(kOnboardMinUsers) / kOnboardJoinRate +
              kOnboardTailS))));
    auto by_user =
        user_streams(dataset, seed, users, kOnboardRequests, nullptr);
    std::vector<std::tuple<std::int64_t, std::size_t, std::size_t>> sends;
    for (std::size_t u = 0; u < users; ++u) {
      double t = static_cast<double>(u) / kOnboardJoinRate;
      for (std::size_t k = 0; k < kOnboardRequests; ++k) {
        sends.emplace_back(static_cast<std::int64_t>(t * 1e9), u, k);
        t += kOnboardGapS * (0.5 + u01(seed, kTagCadence, u, k));
      }
    }
    std::sort(sends.begin(), sends.end());
    for (const auto& [due, u, k] : sends) {
      serve::ServeRequest r = std::move(by_user[u][k]);
      plan.truth.push_back(*r.label);
      if (k % 2 == 1) r.label.reset();
      r.arrival_us = next_arrival(0, due, last);
      plan.due_ns.push_back(due);
      plan.timed.push_back(std::move(r));
    }
    return plan;
  }

  // steady / fleet: warm every user through assignment, then Poisson
  // arrivals over make_workload's user interleaving. No labels on the wire.
  const auto n = static_cast<std::size_t>(std::llround(kSteadyRate * seconds));
  const std::size_t per_user = ca + 2 * (n / kSteadyUsers + 1) + 8;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> order;
  auto by_user = user_streams(dataset, seed, kSteadyUsers, per_user, &order);
  for (std::size_t k = 0; k < ca; ++k)
    for (std::size_t u = 0; u < kSteadyUsers; ++u) {
      serve::ServeRequest r = std::move(by_user[u][k]);
      r.label.reset();
      last += kWarmSpacingUs;
      r.arrival_us = last;
      plan.warm.push_back(std::move(r));
    }
  const std::uint64_t base = last + kWarmSpacingUs;
  double t = 0.0;
  std::size_t i = 0;
  for (const auto& [u, k] : order) {
    if (k < ca) continue;
    if (i == n) break;
    serve::ServeRequest r = std::move(by_user[u][k]);
    plan.truth.push_back(*r.label);
    r.label.reset();
    const auto due = static_cast<std::int64_t>(t * 1e9);
    r.arrival_us = next_arrival(base, due, last);
    plan.due_ns.push_back(due);
    plan.timed.push_back(std::move(r));
    t += -std::log(1.0 - u01(seed, kTagDue, i, 0)) / kSteadyRate;
    ++i;
  }
  if (i != n) throw std::runtime_error("steady stream ran out of requests");
  return plan;
}

std::vector<net::WireRequest> to_wire(
    const std::vector<serve::ServeRequest>& requests) {
  std::vector<net::WireRequest> out;
  out.reserve(requests.size());
  for (const serve::ServeRequest& r : requests) {
    net::WireRequest w;
    w.request_id = r.request_id;
    w.user_id = r.user_id;
    w.arrival_us = r.arrival_us;
    w.quality = r.quality;
    w.label = r.label;
    w.map = r.map;
    out.push_back(std::move(w));
  }
  return out;
}

Node::Node(serve::ModelSource source, serve::ServeConfig config) {
  const bool journaled = !config.journal.directory.empty();
  server = std::make_unique<serve::Server>(std::move(source),
                                           std::move(config));
  if (journaled) server->open_journal();
  net::NetServerConfig nc;
  nc.listen.port = 0;
  // Every phase ends in an explicit drain, so the idle flush has no tail to
  // release; off, a host stall cannot split a batch the in-process replay
  // keeps whole, and batch composition stays a pure function of the stream
  // (int8 predictions depend on it: the LSTM state scale spans the batch).
  nc.idle_flush_ms = 0;
  net = std::make_unique<net::NetServer>(*server, nc);
  thread = std::thread([this] {
    try {
      net->run();
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
}

Node::~Node() {
  if (thread.joinable()) {
    net->stop();
    thread.join();
  }
}

Serving::Serving(Workload w, const Model& model,
                 const serve::ServeConfig& config) {
  const std::size_t n_nodes = w == Workload::kFleet ? 2 : 1;
  for (std::size_t i = 0; i < n_nodes; ++i)
    nodes.push_back(std::make_unique<Node>(model.source, config));
  net::Endpoint target;
  if (w == Workload::kFleet) {
    shard::CoordinatorConfig cc;
    for (const auto& node : nodes)
      cc.shards.push_back({net::Endpoint{"127.0.0.1", node->net->port()}, ""});
    coordinator = std::make_unique<shard::Coordinator>(cc);
    target.port = coordinator->port();
  } else {
    target.port = nodes[0]->net->port();
  }
  // The listener queues the connection until its loop runs, so connecting
  // first leaves nothing to join if the connect throws.
  fd = net::connect_tcp(target);
  if (coordinator)
    coordinator_thread = std::thread([this] {
      try {
        coordinator->run();
      } catch (const std::exception& e) {
        coordinator_error = e.what();
      }
    });
  net::set_nonblocking(fd, true);
}

void Serving::shutdown() {
  if (fd >= 0) {
    send_shutdown(fd);
    ::close(fd);
    fd = -1;
  }
  if (coordinator_thread.joinable()) coordinator_thread.join();
  // The shutdown frame already stopped every loop (fleet: the coordinator
  // shut its shards down); stop() is idempotent and guards a shard the
  // coordinator could not reach.
  for (const auto& node : nodes)
    if (node->thread.joinable()) {
      node->net->stop();
      node->thread.join();
    }
  if (!coordinator_error.empty())
    throw std::runtime_error("coordinator failed: " + coordinator_error);
  for (const auto& node : nodes)
    if (!node->error.empty())
      throw std::runtime_error("server loop failed: " + node->error);
}

Serving::~Serving() {
  if (fd >= 0) ::close(fd);
  if (coordinator_thread.joinable()) {
    coordinator->stop();
    coordinator_thread.join();
  }
}

}  // namespace perfbench
