// Deterministic loopback end-to-end test: the same hashed WEMAC workload
// produces *bit-identical* detections whether it drives serve::Server
// directly (library path) or crosses a real TCP socket through the epoll
// front end (wire path), at --threads 1 and 4. What a request is answered
// (prediction, probability bits, route) must match on every run. Batch
// boundaries, exec_us and the reported session state must match too when
// one connection submits in arrival order, no deadline release fired and no
// frame was held: a batch released by the wire's timer may end earlier than
// on the library path, where only the next arrival releases it, and a frame
// held while its user's fine-tune runs is submitted late. A run with a
// deadline no test reaches and fine-tuning off keeps that case checked: at
// the default zero wait nearly every batch is a timer release.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clear/pipeline.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "wemac/dataset.hpp"

namespace clear::net {
namespace {

core::ClearConfig net_config() {
  core::ClearConfig c = core::smoke_config();
  c.data.seed = 77;
  c.data.n_volunteers = 8;
  c.data.trials_per_volunteer = 5;
  c.train.epochs = 2;
  c.finetune.epochs = 1;
  c.finalize();
  return c;
}

// One fitted pipeline shared by every test in this file; each server run
// consumes its own copy of the captured ModelSource.
struct LoopbackFixture {
  wemac::WemacDataset dataset;
  core::ClearPipeline pipeline;
  serve::ModelSource source;

  LoopbackFixture()
      : dataset(wemac::generate_wemac(net_config().data)),
        pipeline(net_config()) {
    std::vector<std::size_t> users;
    for (std::size_t u = 0; u + 2 < dataset.n_volunteers(); ++u)
      users.push_back(u);
    pipeline.fit(dataset, users);
    source = serve::ModelSource::from_pipeline(pipeline);
  }
};

LoopbackFixture& fixture() {
  static LoopbackFixture f;
  return f;
}

/// Fine-tune epochs that make one fine-tune on two maps last far longer
/// than the exchange around it: ~1 ms per epoch in a -O2 build on a 4-core
/// x86 VM, against one read pass and a zero batch wait.
constexpr std::size_t kSlowFinetuneEpochs = 100;

serve::ServeConfig quick_serve_config() {
  serve::ServeConfig sc;
  sc.batch.max_batch = 4;
  sc.session.ca_windows = 3;
  sc.session.ft_maps = 2;
  return sc;
}

serve::WorkloadConfig small_workload() {
  serve::WorkloadConfig wc;
  wc.n_users = 6;
  wc.requests_per_user = 10;
  wc.seed = 7;
  return wc;
}

using ResultKey = std::pair<std::uint64_t, std::uint64_t>;

std::map<ResultKey, serve::ServeResult> library_results(
    const serve::ServeConfig& sc, std::vector<serve::ServeRequest> requests) {
  serve::Server server(fixture().source, sc);
  std::map<ResultKey, serve::ServeResult> out;
  for (serve::ServeResult& r : server.run(std::move(requests)))
    out[{r.user_id, r.request_id}] = r;
  return out;
}

/// `untimed` is set when the run fired no deadline release and held no
/// frame, so every field must replay the library path.
std::map<ResultKey, WireResponse> wire_results(
    const serve::ServeConfig& sc,
    const std::vector<serve::ServeRequest>& requests, bool& untimed) {
  serve::Server server(fixture().source, sc);
  NetServerConfig nc;
  nc.listen.port = 0;
  NetServer net_server(server, nc);
  std::thread server_thread([&net_server] { net_server.run(); });

  std::map<ResultKey, WireResponse> out;
  {
    BlockingClient client({"127.0.0.1", net_server.port()});
    // Submit the whole stream in arrival order on one connection, exactly
    // as Server::run feeds the library path.
    for (const serve::ServeRequest& r : requests) {
      WireRequest wire;
      wire.request_id = r.request_id;
      wire.user_id = r.user_id;
      wire.arrival_us = r.arrival_us;
      wire.quality = r.quality;
      wire.label = r.label;
      wire.map = r.map;
      client.send_request(wire);
    }
    client.send_drain();
    // Everything the stream owes us arrives before the drain ack.
    Frame frame;
    while (true) {
      if (!client.recv_frame(frame)) {
        ADD_FAILURE() << "connection closed before the drain ack";
        break;
      }
      if (frame.type == FrameType::kDrainAck) break;
      if (frame.type != FrameType::kResponse) {
        ADD_FAILURE() << "unexpected frame type "
                      << static_cast<int>(frame.type);
        break;
      }
      WireResponse response;
      std::string error;
      if (!parse_response(frame, response, error)) {
        ADD_FAILURE() << error;
        break;
      }
      out[{response.user_id, response.request_id}] = response;
    }
    client.send_shutdown();
  }
  server_thread.join();
  EXPECT_EQ(net_server.counters().decode_errors, 0u);
  EXPECT_EQ(net_server.counters().clamped_arrivals, 0u);
  untimed = net_server.counters().deadline_releases == 0 &&
            net_server.counters().held_requests == 0;
  return out;
}

std::uint32_t f32_bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// When `untimed`, every field must match, else only what each request is
/// answered.
void expect_wire_matches_library(
    const std::map<ResultKey, serve::ServeResult>& lib,
    const std::map<ResultKey, WireResponse>& wire, bool untimed) {
  ASSERT_EQ(lib.size(), wire.size());
  for (const auto& [key, l] : lib) {
    const auto it = wire.find(key);
    ASSERT_NE(it, wire.end())
        << "user " << key.first << " request " << key.second
        << " missing from the wire path";
    const WireResponse& w = it->second;
    const std::string where = "user " + std::to_string(key.first) +
                              " request " + std::to_string(key.second);
    EXPECT_EQ(w.predicted, l.predicted) << where;
    // The detection itself, compared as raw bits: the wire must be
    // invisible to the model output.
    EXPECT_EQ(f32_bits(w.fear_probability), f32_bits(l.fear_probability))
        << where;
    EXPECT_EQ(w.route_kind, static_cast<std::uint32_t>(l.route.kind))
        << where;
    EXPECT_EQ(w.route_id, l.route.id) << where;
    if (!untimed) continue;
    EXPECT_EQ(w.shed, l.status == serve::ServeResult::Status::kShed) << where;
    EXPECT_EQ(w.error, l.error) << where;
    EXPECT_EQ(w.session_state,
              static_cast<std::uint32_t>(l.session_state))
        << where;
    EXPECT_EQ(w.degraded, l.degraded) << where;
    EXPECT_EQ(w.batch_rows, l.batch_rows) << where;
    EXPECT_EQ(w.arrival_us, l.arrival_us) << where;
    EXPECT_EQ(w.exec_us, l.exec_us) << where;
  }
}

TEST(Loopback, WireDetectionsMatchLibraryPathBitExactly) {
  const std::vector<serve::ServeRequest> requests =
      serve::make_workload(fixture().dataset, small_workload());
  ASSERT_FALSE(requests.empty());
  const serve::ServeConfig sc = quick_serve_config();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const NumThreadsGuard guard(threads);
    const auto lib = library_results(sc, requests);
    bool untimed = false;
    const auto wire = wire_results(sc, requests, untimed);
    expect_wire_matches_library(lib, wire, untimed);

    // A deadline no run reaches and no fine-tune to hold a frame behind:
    // the wire must replay the library path field for field.
    serve::ServeConfig fixed = sc;
    fixed.batch.max_wait_us = 60'000'000;
    fixed.session.enable_finetune = false;
    const auto lib_fixed = library_results(fixed, requests);
    const auto wire_fixed = wire_results(fixed, requests, untimed);
    EXPECT_TRUE(untimed);
    expect_wire_matches_library(lib_fixed, wire_fixed, /*untimed=*/true);
  }
}

/// One request stamped 7000 µs on a fresh wire server, with no drain frame:
/// its response (the client gives up after 2 s) and the net counters.
std::pair<WireResponse, NetCounters> serve_lone_request(
    const serve::ServeConfig& sc) {
  serve::Server server(fixture().source, sc);
  NetServerConfig nc;
  nc.listen.port = 0;
  NetServer net_server(server, nc);
  std::thread server_thread([&net_server] { net_server.run(); });
  WireResponse response;
  {
    ClientDeadlines deadlines;
    deadlines.io_ms = 2000;
    BlockingClient client({"127.0.0.1", net_server.port()}, 1, deadlines);
    const auto& samples =
        fixture().dataset.samples_of(fixture().dataset.n_volunteers() - 1);
    WireRequest request;
    request.request_id = 1;
    request.user_id = 5;
    request.arrival_us = 7000;
    request.map = fixture().dataset.samples()[samples[0]].feature_map;
    client.send_request(request);
    try {
      EXPECT_TRUE(client.recv_response(response));
    } catch (const Error& e) {
      ADD_FAILURE() << e.what();  // net.timeout: nothing released the batch.
    }
    client.send_shutdown();
  }
  server_thread.join();
  return {response, net_server.counters()};
}

// With no drain, a lone request is released by the deadline timer
// max_wait_us after its frame was read, and executes at exactly its virtual
// deadline.
TEST(Loopback, LoneRequestIsAnsweredAtItsDeadline) {
  serve::ServeConfig sc = quick_serve_config();
  sc.batch.max_wait_us = 2000;
  const auto [response, counters] = serve_lone_request(sc);
  EXPECT_EQ(response.request_id, 1u);
  EXPECT_EQ(response.batch_rows, 1u);
  EXPECT_EQ(response.exec_us, response.arrival_us + sc.batch.max_wait_us);
  EXPECT_EQ(counters.deadline_releases, 1u);
}

// Under the default policy nothing waits for batch-mates: the timer fires
// with a zero timeout right after the read pass that admitted the request,
// which executes at its own arrival stamp.
TEST(Loopback, LoneRequestIsAnsweredAtItsOwnStampByDefault) {
  const auto [response, counters] = serve_lone_request(quick_serve_config());
  EXPECT_EQ(response.request_id, 1u);
  EXPECT_EQ(response.batch_rows, 1u);
  EXPECT_EQ(response.exec_us, response.arrival_us);
  EXPECT_EQ(counters.deadline_releases, 1u);
}

// A fine-tune runs on the trainer thread, and only its own user's frames
// wait for it: user 1's window after its trigger is held until the personal
// engine commits, while user 2, who sends later, is answered first.
TEST(Loopback, OtherUsersAreAnsweredWhileAFinetuneRuns) {
  serve::ModelSource slow = fixture().source;
  slow.config.finetune.epochs = kSlowFinetuneEpochs;
  serve::ServeConfig sc = quick_serve_config();
  sc.session.ca_windows = 2;
  serve::Server server(std::move(slow), sc);
  NetServerConfig nc;
  nc.listen.port = 0;
  NetServer net_server(server, nc);
  std::thread server_thread([&net_server] { net_server.run(); });

  const auto& samples =
      fixture().dataset.samples_of(fixture().dataset.n_volunteers() - 1);
  const auto request = [&](std::uint64_t user, std::uint64_t id,
                           std::uint64_t t, std::optional<int> label) {
    WireRequest r;
    r.request_id = id;
    r.user_id = user;
    r.arrival_us = t;
    r.label = label;
    r.map = fixture().dataset.samples()[samples[id % samples.size()]]
                .feature_map;
    return r;
  };
  std::vector<ResultKey> order;
  std::map<ResultKey, WireResponse> responses;
  {
    BlockingClient client({"127.0.0.1", net_server.port()});
    client.send_request(request(1, 0, 0, std::nullopt));
    client.send_request(request(1, 1, 1000, std::nullopt));
    client.send_request(request(1, 2, 2000, 0));
    client.send_request(request(1, 3, 3000, 1));  // Starts the fine-tune.
    client.send_request(request(1, 4, 4000, std::nullopt));
    client.send_request(request(2, 0, 5000, std::nullopt));
    while (order.size() < 6) {
      WireResponse response;
      if (!client.recv_response(response)) {
        ADD_FAILURE() << "connection closed after " << order.size()
                      << " responses";
        break;
      }
      order.emplace_back(response.user_id, response.request_id);
      responses[order.back()] = response;
    }
    client.send_shutdown();
  }
  server_thread.join();

  const ResultKey trigger{1, 3};
  const ResultKey after{1, 4};
  const ResultKey other{2, 0};
  const auto position = [&](ResultKey key) {
    return std::find(order.begin(), order.end(), key) - order.begin();
  };
  EXPECT_LT(position(other), position(after));
  EXPECT_EQ(responses[trigger].route_kind,
            static_cast<std::uint32_t>(serve::BatchKey::Kind::kCluster));
  EXPECT_EQ(responses[after].route_kind,
            static_cast<std::uint32_t>(serve::BatchKey::Kind::kPersonal));
  EXPECT_EQ(net_server.counters().held_requests, 1u);
  EXPECT_EQ(server.counters().finetunes, 1u);
}

// Held frames count against the batcher's max_pending: behind its own slow
// fine-tune, a user's frames are held while held plus pending rows stay
// under the bound, and the rest are shed at once with the overload error.
TEST(Loopback, FramesPastMaxPendingAreShedNotHeld) {
  serve::ModelSource slow = fixture().source;
  slow.config.finetune.epochs = kSlowFinetuneEpochs;
  serve::ServeConfig sc = quick_serve_config();
  sc.session.ca_windows = 2;
  // One-row batches and a deadline no run reaches: a row is released only
  // when virtual time passes it, so the trigger is the one pending row.
  sc.batch.max_batch = 1;
  sc.batch.queue_capacity = 4;
  sc.batch.max_pending = 4;
  sc.batch.max_wait_us = 60'000'000;
  serve::Server server(std::move(slow), sc);
  NetServerConfig nc;
  nc.listen.port = 0;
  NetServer net_server(server, nc);
  std::thread server_thread([&net_server] { net_server.run(); });

  const auto& samples =
      fixture().dataset.samples_of(fixture().dataset.n_volunteers() - 1);
  constexpr std::uint64_t kRequests = 10;
  std::map<std::uint64_t, WireResponse> responses;
  {
    BlockingClient client({"127.0.0.1", net_server.port()});
    for (std::uint64_t id = 0; id < kRequests; ++id) {
      WireRequest r;
      r.request_id = id;
      r.user_id = 1;
      r.arrival_us = id * 1000;
      if (id == 2) r.label = 0;
      if (id == 3) r.label = 1;  // Starts the fine-tune.
      r.map = fixture().dataset.samples()[samples[id % samples.size()]]
                  .feature_map;
      client.send_request(r);
    }
    client.send_drain();
    Frame frame;
    while (client.recv_frame(frame) && frame.type == FrameType::kResponse) {
      WireResponse response;
      std::string error;
      if (!parse_response(frame, response, error)) {
        ADD_FAILURE() << error;
        break;
      }
      responses[response.request_id] = response;
    }
    EXPECT_EQ(frame.type, FrameType::kDrainAck);
    client.send_shutdown();
  }
  server_thread.join();

  ASSERT_EQ(responses.size(), kRequests);
  for (std::uint64_t id = 4; id < 7; ++id) {
    EXPECT_FALSE(responses[id].shed) << "request " << id;
    EXPECT_EQ(responses[id].route_kind,
              static_cast<std::uint32_t>(serve::BatchKey::Kind::kPersonal))
        << "request " << id;
  }
  for (std::uint64_t id = 7; id < kRequests; ++id) {
    EXPECT_TRUE(responses[id].shed) << "request " << id;
    EXPECT_EQ(responses[id].error, "server overloaded (4 requests pending)")
        << "request " << id;
  }
  EXPECT_EQ(net_server.counters().held_requests, 3u);
  EXPECT_EQ(net_server.counters().held_sheds, 3u);
  EXPECT_EQ(server.counters().requests, 7u);
}

// Nagle is off on every served connection: accepted sockets inherit
// TCP_NODELAY from the listener.
TEST(Loopback, AcceptedSocketsHaveNagleOff) {
  const int listener = listen_tcp({"127.0.0.1", 0});
  const int client = connect_tcp({"127.0.0.1", local_port(listener)});
  pollfd pfd{listener, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 2000), 1);
  const int accepted = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(accepted, 0);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_EQ(nodelay, 1);
  close_fd(accepted);
  close_fd(client);
  close_fd(listener);
}

TEST(Loopback, DrainAckReportsServerCounters) {
  const std::vector<serve::ServeRequest> requests =
      serve::make_workload(fixture().dataset, small_workload());
  serve::Server server(fixture().source, quick_serve_config());
  NetServerConfig nc;
  nc.listen.port = 0;
  NetServer net_server(server, nc);
  std::thread server_thread([&net_server] { net_server.run(); });
  {
    BlockingClient client({"127.0.0.1", net_server.port()});
    for (const serve::ServeRequest& r : requests) {
      WireRequest wire;
      wire.request_id = r.request_id;
      wire.user_id = r.user_id;
      wire.arrival_us = r.arrival_us;
      wire.quality = r.quality;
      wire.label = r.label;
      wire.map = r.map;
      client.send_request(wire);
    }
    client.send_drain();
    WireDrainAck ack;
    ASSERT_TRUE(client.recv_drain_ack(ack));
    EXPECT_EQ(ack.requests, requests.size());
    EXPECT_EQ(ack.ok + ack.shed, requests.size());
    client.send_shutdown();
  }
  server_thread.join();
  // Drain-on-shutdown: every admitted request was answered before exit.
  EXPECT_EQ(net_server.counters().frames_in, requests.size() + 2);
  EXPECT_EQ(net_server.counters().dropped_responses, 0u);
  EXPECT_EQ(net_server.counters().partial_drops, 0u);
}

TEST(Loopback, ServerRejectsWrongGeometryMapsWithoutDying) {
  serve::Server server(fixture().source, quick_serve_config());
  NetServerConfig nc;
  nc.listen.port = 0;
  NetServer net_server(server, nc);
  std::thread server_thread([&net_server] { net_server.run(); });
  {
    // A well-formed frame whose map does not match the deployed model: the
    // offending connection dies, the server does not.
    BlockingClient bad({"127.0.0.1", net_server.port()});
    WireRequest wrong;
    wrong.request_id = 1;
    wrong.user_id = 1;
    wrong.map = Tensor({2, 2});
    bad.send_request(wrong);
    Frame frame;
    EXPECT_FALSE(bad.recv_frame(frame));  // Closed, no response.
  }
  {
    // The server is still alive and serving.
    BlockingClient good({"127.0.0.1", net_server.port()});
    const auto& samples =
        fixture().dataset.samples_of(fixture().dataset.n_volunteers() - 1);
    WireRequest ok_request;
    ok_request.request_id = 1;
    ok_request.user_id = 5;
    ok_request.arrival_us = 100;
    ok_request.map = fixture().dataset.samples()[samples[0]].feature_map;
    good.send_request(ok_request);
    good.send_drain();
    WireResponse response;
    ASSERT_TRUE(good.recv_response(response));
    EXPECT_EQ(response.request_id, 1u);
    good.send_shutdown();
  }
  server_thread.join();
  EXPECT_EQ(net_server.counters().decode_errors, 1u);
  EXPECT_EQ(net_server.counters().accepted, 2u);
}

}  // namespace
}  // namespace clear::net
