// Fault-injected wire tests: the deterministic network-fault knobs
// (`net_short_write`, `net_drop` in src/common/fault) drive the epoll front
// end through its failure paths on a real loopback socket.
//
// The properties under test:
//   * short writes are invisible to delivery — every caller loops its
//     partial-write path, so a run where *every* send is capped at a few
//     bytes produces bit-identical responses to the clean run;
//   * a connection severed mid-request sheds exactly that request at the
//     wire (net.partial_drops + the operator-facing serve.shed total) and
//     never corrupts session state — the same user resumes on a fresh
//     connection;
//   * a requester that hangs up before its result completes loses only the
//     reply (net.dropped_responses); the serve layer still commits the
//     session update and keeps answering everyone else;
//   * frames a peer queued before resetting its connection are still read.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clear/pipeline.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/server.hpp"
#include "wemac/dataset.hpp"

namespace clear::net {
namespace {

// Every test must leave the process-global fault knobs disarmed, even when
// an assertion fails mid-test.
struct NetFaultGuard {
  NetFaultGuard() {
    fault::clear_net_fault();
    fault::disarm_net_drop();
  }
  ~NetFaultGuard() {
    fault::clear_net_fault();
    fault::disarm_net_drop();
  }
};

core::ClearConfig fault_config() {
  core::ClearConfig c = core::smoke_config();
  c.data.seed = 31;
  c.data.n_volunteers = 6;
  c.data.trials_per_volunteer = 4;
  c.train.epochs = 1;
  c.finetune.epochs = 1;
  c.finalize();
  return c;
}

struct FaultFixture {
  wemac::WemacDataset dataset;
  core::ClearPipeline pipeline;
  serve::ModelSource source;

  FaultFixture()
      : dataset(wemac::generate_wemac(fault_config().data)),
        pipeline(fault_config()) {
    std::vector<std::size_t> users;
    for (std::size_t u = 0; u + 2 < dataset.n_volunteers(); ++u)
      users.push_back(u);
    pipeline.fit(dataset, users);
    source = serve::ModelSource::from_pipeline(pipeline);
  }
};

FaultFixture& fixture() {
  static FaultFixture f;
  return f;
}

serve::ServeConfig fault_serve_config() {
  serve::ServeConfig sc;
  sc.batch.max_batch = 4;
  sc.session.ca_windows = 2;
  sc.session.ft_maps = 2;
  return sc;
}

// A valid request carrying one of `user`'s own feature maps.
WireRequest user_request(std::uint64_t user, std::uint64_t request_id,
                         std::uint64_t arrival_us) {
  WireRequest r;
  r.request_id = request_id;
  r.user_id = user;
  r.arrival_us = arrival_us;
  const auto& trials = fixture().dataset.samples_of(
      static_cast<std::size_t>(user) % fixture().dataset.n_volunteers());
  const std::size_t idx = trials[static_cast<std::size_t>(request_id) %
                                 trials.size()];
  r.map = fixture().dataset.samples()[idx].feature_map;
  return r;
}

std::uint32_t f32_bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(NetFault, WriteCapIsDeterministicAndOffByDefault) {
  NetFaultGuard guard;
  constexpr std::size_t kNoCap = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(fault::net_write_cap(7, 3), kNoCap);

  fault::NetFaultSpec spec;
  spec.seed = 9;
  spec.short_write_rate = 0.5;
  spec.short_write_bytes = 3;
  fault::set_net_fault(spec);

  std::size_t capped = 0;
  for (std::uint64_t op = 0; op < 1000; ++op) {
    const std::size_t first = fault::net_write_cap(42, op);
    // Stateless: the same (stream, op) always draws the same decision.
    EXPECT_EQ(first, fault::net_write_cap(42, op));
    if (first != kNoCap) {
      EXPECT_EQ(first, 3u);
      ++capped;
    }
  }
  // A 0.5 rate caps roughly half the ops — certainly not none or all.
  EXPECT_GT(capped, 300u);
  EXPECT_LT(capped, 700u);

  // Different streams draw independent decisions from the same spec.
  std::size_t disagreements = 0;
  for (std::uint64_t op = 0; op < 200; ++op)
    if (fault::net_write_cap(1, op) != fault::net_write_cap(2, op))
      ++disagreements;
  EXPECT_GT(disagreements, 0u);
}

TEST(NetFault, DropCountdownCanTargetOneStream) {
  NetFaultGuard guard;
  EXPECT_FALSE(fault::net_drop_fires(50));  // Disarmed: never fires.

  fault::arm_net_drop(1, /*stream_id=*/50);
  EXPECT_FALSE(fault::net_drop_fires(49));  // Other streams don't count.
  EXPECT_FALSE(fault::net_drop_fires(51));
  EXPECT_TRUE(fault::net_drop_fires(50));   // The target's next op fires.
  EXPECT_FALSE(fault::net_drop_fires(50));  // Exactly once, then disarmed.

  fault::arm_net_drop(2);  // Unfiltered: any stream's ops count down.
  EXPECT_FALSE(fault::net_drop_fires(7));
  EXPECT_TRUE(fault::net_drop_fires(8));
  EXPECT_FALSE(fault::net_drop_fires(9));
}

using ResultKey = std::pair<std::uint64_t, std::uint64_t>;

// One full wire exchange: N requests over one connection, drain, collect.
// `timed` is set when a deadline release fired or a frame was held.
std::map<ResultKey, WireResponse> run_exchange(std::uint64_t client_stream,
                                               bool& timed) {
  serve::Server server(fixture().source, fault_serve_config());
  NetServerConfig nc;
  nc.listen.port = 0;
  NetServer net_server(server, nc);
  std::thread server_thread([&net_server] { net_server.run(); });

  std::map<ResultKey, WireResponse> out;
  {
    BlockingClient client({"127.0.0.1", net_server.port()}, client_stream);
    std::uint64_t arrival = 0;
    for (std::uint64_t id = 1; id <= 4; ++id)
      for (std::uint64_t user = 2; user <= 3; ++user)
        client.send_request(user_request(user, id, arrival += 1000));
    client.send_drain();
    Frame frame;
    while (true) {
      if (!client.recv_frame(frame)) {
        ADD_FAILURE() << "connection closed before the drain ack";
        break;
      }
      if (frame.type == FrameType::kDrainAck) break;
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
  EXPECT_EQ(net_server.counters().partial_drops, 0u);
  timed = net_server.counters().deadline_releases > 0 ||
          net_server.counters().held_requests > 0;
  return out;
}

TEST(NetFault, ShortWritesAreInvisibleToDelivery) {
  NetFaultGuard guard;
  bool clean_timed = false;
  const auto clean = run_exchange(/*client_stream=*/42, clean_timed);

  // Now cap *every* guarded write — client requests and server responses
  // both crawl through 7-byte sends. Delivery must be bit-identical.
  fault::NetFaultSpec spec;
  spec.seed = 11;
  spec.short_write_rate = 1.0;
  spec.short_write_bytes = 7;
  fault::set_net_fault(spec);
  bool faulted_timed = false;
  const auto faulted = run_exchange(/*client_stream=*/42, faulted_timed);

  // A deadline release or a held frame moves batch boundaries, and with
  // them batch_rows and the session state a response reports; never what it
  // is answered.
  const bool timed = clean_timed || faulted_timed;
  ASSERT_EQ(clean.size(), faulted.size());
  ASSERT_EQ(clean.size(), 8u);
  for (const auto& [key, c] : clean) {
    const auto it = faulted.find(key);
    ASSERT_NE(it, faulted.end());
    const WireResponse& f = it->second;
    EXPECT_EQ(f32_bits(f.fear_probability), f32_bits(c.fear_probability));
    EXPECT_EQ(f.predicted, c.predicted);
    if (timed) continue;
    EXPECT_EQ(f.session_state, c.session_state);
    EXPECT_EQ(f.batch_rows, c.batch_rows);
    EXPECT_EQ(f.error, c.error);
  }
}

TEST(NetFault, MidRequestDropShedsCleanlyAndSessionSurvives) {
  NetFaultGuard guard;
  obs::set_enabled(true);
  const std::uint64_t shed_before = obs::counter("serve.shed").value();

  serve::Server server(fixture().source, fault_serve_config());
  NetServerConfig nc;
  nc.listen.port = 0;
  NetServer net_server(server, nc);
  std::thread server_thread([&net_server] { net_server.run(); });

  std::uint32_t first_state = 0;
  {
    // Victim connection: one clean round trip for user 3, then it dies
    // twenty bytes into its second request.
    BlockingClient victim({"127.0.0.1", net_server.port()},
                          /*stream_id=*/50);
    victim.send_request(user_request(3, 1, 1000));
    victim.send_drain();
    WireResponse r1;
    ASSERT_TRUE(victim.recv_response(r1));
    EXPECT_TRUE(r1.error.empty());
    first_state = r1.session_state;
    WireDrainAck ack;
    ASSERT_TRUE(victim.recv_drain_ack(ack));

    const std::string frame = encode_request(user_request(3, 2, 2000));
    ASSERT_GT(frame.size(), 20u);
    victim.send_bytes(frame.data(), 20);
    // The drop is armed for stream 50 only, so the server thread's own
    // guarded socket ops cannot steal the countdown: the victim's very
    // next write severs its connection before sending a byte.
    fault::arm_net_drop(1, /*stream_id=*/50);
    victim.send_bytes(frame.data() + 20, frame.size() - 20);
    EXPECT_TRUE(victim.dropped());
  }
  {
    // Same user resumes on a fresh connection: the half-sent request was
    // shed at the wire and must not have touched the session.
    BlockingClient resumed({"127.0.0.1", net_server.port()},
                           /*stream_id=*/60);
    resumed.send_request(user_request(3, 2, 2000));
    resumed.send_drain();
    WireResponse r2;
    ASSERT_TRUE(resumed.recv_response(r2));
    EXPECT_TRUE(r2.error.empty());
    EXPECT_FALSE(r2.shed);
    EXPECT_GE(r2.session_state, first_state);
    resumed.send_shutdown();
  }
  server_thread.join();
  obs::set_enabled(false);

  EXPECT_EQ(net_server.counters().partial_drops, 1u);
  EXPECT_EQ(net_server.counters().decode_errors, 0u);
  EXPECT_EQ(net_server.counters().accepted, 2u);
  EXPECT_EQ(net_server.counters().dropped_responses, 0u);
  // The wire-level shed is folded into the operator-facing serve.shed
  // total; the net.partial_drops counter above says why.
  EXPECT_EQ(obs::counter("serve.shed").value(), shed_before + 1);
  // The serve layer saw exactly the two complete requests.
  EXPECT_EQ(server.counters().requests, 2u);
  EXPECT_EQ(server.counters().ok, 2u);
}

// A peer that sends its last frames and then resets (SO_LINGER 0 here; a
// close with a reply still unread does the same) is still heard: the server
// reads what was queued before it drops the connection. The shutdown and the
// reset are both queued before run() first looks at the socket.
TEST(NetFault, FramesQueuedBeforeAResetAreStillRead) {
  NetFaultGuard guard;
  serve::Server server(fixture().source, fault_serve_config());
  NetServerConfig nc;
  nc.listen.port = 0;
  NetServer net_server(server, nc);
  const int fd = connect_tcp({"127.0.0.1", net_server.port()});
  const std::string frame = encode_shutdown();
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  const linger reset{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  close_fd(fd);

  std::promise<void> done;
  std::future<void> stopped = done.get_future();
  std::thread server_thread([&] {
    net_server.run();
    done.set_value();
  });
  const bool heard =
      stopped.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  if (!heard) net_server.stop();
  server_thread.join();
  EXPECT_TRUE(heard) << "the shutdown queued before the reset was dropped";
}

TEST(NetFault, DroppedResponsesLoseOnlyTheReply) {
  NetFaultGuard guard;
  serve::Server server(fixture().source, fault_serve_config());
  NetServerConfig nc;
  nc.listen.port = 0;
  NetServer net_server(server, nc);
  std::thread server_thread([&net_server] { net_server.run(); });

  {
    // Sends one complete request, then hangs up without waiting: the
    // result has nowhere to go.
    BlockingClient impatient({"127.0.0.1", net_server.port()},
                             /*stream_id=*/70);
    impatient.send_request(user_request(2, 1, 1000));
  }
  {
    // Everyone else is unaffected.
    BlockingClient patient({"127.0.0.1", net_server.port()},
                           /*stream_id=*/80);
    patient.send_request(user_request(4, 1, 2000));
    patient.send_drain();
    WireResponse r;
    ASSERT_TRUE(patient.recv_response(r));
    EXPECT_TRUE(r.error.empty());
    EXPECT_EQ(r.user_id, 4u);
    patient.send_shutdown();
  }
  server_thread.join();

  // The impatient client's request was fully received, processed (its
  // session update committed), and only the reply dropped.
  EXPECT_EQ(net_server.counters().dropped_responses, 1u);
  EXPECT_EQ(net_server.counters().partial_drops, 0u);
  EXPECT_EQ(net_server.counters().decode_errors, 0u);
  EXPECT_EQ(server.counters().requests, 2u);
  EXPECT_EQ(server.counters().ok, 2u);
}

}  // namespace
}  // namespace clear::net
