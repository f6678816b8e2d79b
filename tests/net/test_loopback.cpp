// Deterministic loopback end-to-end test: the same hashed WEMAC workload
// produces *bit-identical* detections whether it drives serve::Server
// directly (library path) or crosses a real TCP socket through the epoll
// front end (wire path), at --threads 1 and 4. What a request is answered
// (prediction, probability bits, route) must match on every run. Batch
// boundaries, exec_us and the reported session state must match too when
// one connection submits in arrival order and no deadline release fired: a
// batch released by the wire's timer may end earlier than on the library
// path, where only the next arrival releases it. A run with a deadline no
// test reaches keeps that case checked on a loaded host.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <cstring>
#include <map>
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

std::map<ResultKey, WireResponse> wire_results(
    const serve::ServeConfig& sc,
    const std::vector<serve::ServeRequest>& requests,
    std::uint64_t& deadline_releases) {
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
  deadline_releases = net_server.counters().deadline_releases;
  return out;
}

std::uint32_t f32_bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// `timed` is false when no deadline release fired on the wire run: then
/// every field must match, else only what each request is answered.
void expect_wire_matches_library(
    const std::map<ResultKey, serve::ServeResult>& lib,
    const std::map<ResultKey, WireResponse>& wire, bool timed) {
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
    if (timed) continue;
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
    std::uint64_t deadline_releases = 0;
    const auto wire = wire_results(sc, requests, deadline_releases);
    expect_wire_matches_library(lib, wire, deadline_releases > 0);

    // A deadline no run reaches: the timer cannot fire, so the wire must
    // replay the library path field for field.
    serve::ServeConfig untimed = sc;
    untimed.batch.max_wait_us = 60'000'000;
    const auto lib_untimed = library_results(untimed, requests);
    const auto wire_untimed =
        wire_results(untimed, requests, deadline_releases);
    EXPECT_EQ(deadline_releases, 0u);
    expect_wire_matches_library(lib_untimed, wire_untimed, /*timed=*/false);
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
  const serve::ServeConfig sc = quick_serve_config();
  const auto [response, counters] = serve_lone_request(sc);
  EXPECT_EQ(response.request_id, 1u);
  EXPECT_EQ(response.batch_rows, 1u);
  EXPECT_EQ(response.exec_us, response.arrival_us + sc.batch.max_wait_us);
  EXPECT_EQ(counters.deadline_releases, 1u);
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
