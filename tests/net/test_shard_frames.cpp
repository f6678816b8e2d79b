// Shard-coordination frames over a real loopback socket: ping/pong
// liveness (including the injected heartbeat drop), session export /
// import handoff, and journal adoption — the wire mechanics the
// coordinator (src/shard) drives during rebalances and crash healing.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "clear/pipeline.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "wemac/dataset.hpp"

namespace clear::net {
namespace {

namespace fs = std::filesystem;

core::ClearConfig shard_config() {
  core::ClearConfig c = core::smoke_config();
  c.data.seed = 77;
  c.data.n_volunteers = 6;
  c.data.trials_per_volunteer = 4;
  c.train.epochs = 1;
  c.finetune.epochs = 1;
  c.finalize();
  return c;
}

struct ShardFixture {
  wemac::WemacDataset dataset;
  core::ClearPipeline pipeline;
  serve::ModelSource source;

  ShardFixture()
      : dataset(wemac::generate_wemac(shard_config().data)),
        pipeline(shard_config()) {
    std::vector<std::size_t> users;
    for (std::size_t u = 0; u + 2 < dataset.n_volunteers(); ++u)
      users.push_back(u);
    pipeline.fit(dataset, users);
    source = serve::ModelSource::from_pipeline(pipeline);
  }
};

ShardFixture& fixture() {
  static ShardFixture f;
  return f;
}

serve::ServeConfig shard_serve_config(const std::string& journal_dir = "") {
  serve::ServeConfig sc;
  sc.session.ca_windows = 2;
  sc.session.ft_maps = 2;
  sc.journal.directory = journal_dir;
  return sc;
}

WireRequest wire_req(std::uint64_t user, std::uint64_t id, std::uint64_t t,
                     std::optional<int> label = std::nullopt) {
  auto& f = fixture();
  const auto& samples = f.dataset.samples_of(f.dataset.n_volunteers() - 1);
  const std::size_t s = samples[id % samples.size()];
  WireRequest r;
  r.user_id = user;
  r.request_id = id;
  r.arrival_us = t;
  r.quality = 1.0;
  r.label = label;
  r.map = f.dataset.samples()[s].feature_map;
  return r;
}

/// One NetServer on an ephemeral port, run on a background thread; the
/// test drives it through a BlockingClient and must send_shutdown before
/// the harness joins.
struct WireHarness {
  serve::Server server;
  NetServer net_server;
  std::thread thread;

  explicit WireHarness(const serve::ServeConfig& sc)
      : server(fixture().source, sc), net_server(server, make_net_config()) {
    if (!sc.journal.directory.empty()) server.open_journal();
    thread = std::thread([this] { net_server.run(); });
  }

  static NetServerConfig make_net_config() {
    NetServerConfig nc;
    nc.listen.port = 0;
    return nc;
  }

  ~WireHarness() {
    if (thread.joinable()) thread.join();
  }
};

/// Submit requests [0, n) for `user`, labelling requests 2 and 3 so the
/// session crosses into PERSONALIZED, then collect every response.
void personalize_over_wire(BlockingClient& client, std::uint64_t user) {
  for (std::uint64_t i = 0; i < 5; ++i) {
    std::optional<int> label;
    if (i == 2) label = 0;
    if (i == 3) label = 1;
    client.send_request(wire_req(user, i, i * 1000, label));
  }
  client.send_drain();
  Frame frame;
  std::size_t responses = 0;
  while (client.recv_frame(frame)) {
    if (frame.type == FrameType::kDrainAck) break;
    ASSERT_EQ(frame.type, FrameType::kResponse);
    ++responses;
  }
  ASSERT_EQ(responses, 5u);
}

TEST(ShardFrames, PingPongEchoesNonceAndSessionCount) {
  WireHarness h(shard_serve_config());
  BlockingClient client({"127.0.0.1", h.net_server.port()});
  personalize_over_wire(client, 1);

  client.send_bytes(encode_ping(0xABCDEF).data(),
                    encode_ping(0xABCDEF).size());
  Frame frame;
  ASSERT_TRUE(client.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kPong);
  WirePong pong;
  std::string error;
  ASSERT_TRUE(parse_pong(frame, pong, error)) << error;
  EXPECT_EQ(pong.nonce, 0xABCDEFu);
  EXPECT_EQ(pong.sessions, 1u);
  client.send_shutdown();
}

TEST(ShardFrames, ArmedHeartbeatDropSwallowsExactlyOnePing) {
  WireHarness h(shard_serve_config());
  BlockingClient client({"127.0.0.1", h.net_server.port()});
  fault::arm_shard_drop_heartbeat(1);
  const std::string ping1 = encode_ping(111);
  const std::string ping2 = encode_ping(222);
  client.send_bytes(ping1.data(), ping1.size());  // swallowed
  client.send_bytes(ping2.data(), ping2.size());
  Frame frame;
  ASSERT_TRUE(client.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kPong);
  WirePong pong;
  std::string error;
  ASSERT_TRUE(parse_pong(frame, pong, error)) << error;
  // The first pong on the wire answers the *second* ping: the armed drop
  // fired once and disarmed itself.
  EXPECT_EQ(pong.nonce, 222u);
  fault::disarm_shard_drop_heartbeat();
  client.send_shutdown();
}

TEST(ShardFrames, ExportImportHandoffOverTheWire) {
  WireHarness losing(shard_serve_config());
  BlockingClient client_a({"127.0.0.1", losing.net_server.port()});
  personalize_over_wire(client_a, 1);

  // Export of a user this shard has never seen: found = false.
  std::string exp = encode_export(99);
  client_a.send_bytes(exp.data(), exp.size());
  Frame frame;
  ASSERT_TRUE(client_a.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kSessionImage);
  WireSessionImage image;
  std::string error;
  ASSERT_TRUE(parse_session_image(frame, image, error)) << error;
  EXPECT_FALSE(image.found);

  // Real export: image + personal checkpoint come back...
  exp = encode_export(1);
  client_a.send_bytes(exp.data(), exp.size());
  ASSERT_TRUE(client_a.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kSessionImage);
  ASSERT_TRUE(parse_session_image(frame, image, error)) << error;
  EXPECT_TRUE(image.found);
  EXPECT_FALSE(image.image.empty());
  EXPECT_FALSE(image.checkpoint.empty());

  // ...and the losing shard retired the session: a second export is empty.
  client_a.send_bytes(exp.data(), exp.size());
  ASSERT_TRUE(client_a.recv_frame(frame));
  WireSessionImage gone;
  ASSERT_TRUE(parse_session_image(frame, gone, error)) << error;
  EXPECT_FALSE(gone.found);
  client_a.send_shutdown();

  // The gaining shard accepts the image once and refuses the duplicate.
  WireHarness gaining(shard_serve_config());
  BlockingClient client_b({"127.0.0.1", gaining.net_server.port()});
  const std::string import_frame = encode_session_image(image);
  client_b.send_bytes(import_frame.data(), import_frame.size());
  ASSERT_TRUE(client_b.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kImportAck);
  WireImportAck ack;
  ASSERT_TRUE(parse_import_ack(frame, ack, error)) << error;
  EXPECT_TRUE(ack.ok) << ack.error;
  EXPECT_EQ(ack.user_id, 1u);

  client_b.send_bytes(import_frame.data(), import_frame.size());
  ASSERT_TRUE(client_b.recv_frame(frame));
  ASSERT_TRUE(parse_import_ack(frame, ack, error)) << error;
  EXPECT_FALSE(ack.ok);
  EXPECT_FALSE(ack.error.empty());

  // The migrated session serves on the gaining shard. (A drain forces the
  // flush — a lone request would otherwise sit in the batcher.)
  client_b.send_request(wire_req(1, 10, 50000));
  client_b.send_drain();
  std::optional<WireResponse> response;
  while (client_b.recv_frame(frame)) {
    if (frame.type == FrameType::kDrainAck) break;
    ASSERT_EQ(frame.type, FrameType::kResponse);
    WireResponse r;
    ASSERT_TRUE(parse_response(frame, r, error)) << error;
    response = r;
  }
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->user_id, 1u);
  client_b.send_shutdown();
}

TEST(ShardFrames, AdoptReplaysADeadShardsJournal) {
  const std::string dir =
      (fs::temp_directory_path() / "clear_shard_adopt_jd").string();
  fs::remove_all(dir);
  {
    // The "dead" shard: personalize one session, then shut down. (recover()
    // reads snapshot + journal the same way after SIGKILL — the soak covers
    // the kill; here the wire mechanics are under test.)
    WireHarness victim(shard_serve_config(dir));
    BlockingClient client({"127.0.0.1", victim.net_server.port()});
    personalize_over_wire(client, 1);
    client.send_shutdown();
  }
  ASSERT_TRUE(fs::exists(dir));

  WireHarness survivor(shard_serve_config());
  BlockingClient client({"127.0.0.1", survivor.net_server.port()});
  const std::string adopt = encode_adopt(dir);
  client.send_bytes(adopt.data(), adopt.size());
  Frame frame;
  ASSERT_TRUE(client.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kAdoptAck);
  WireAdoptAck ack;
  std::string error;
  ASSERT_TRUE(parse_adopt_ack(frame, ack, error)) << error;
  EXPECT_EQ(ack.sessions, 1u);
  EXPECT_EQ(ack.personalized, 1u);
  EXPECT_EQ(ack.failed, 0u);

  // The adopted session is live here now.
  client.send_request(wire_req(1, 20, 90000));
  client.send_drain();
  std::optional<WireResponse> response;
  while (client.recv_frame(frame)) {
    if (frame.type == FrameType::kDrainAck) break;
    ASSERT_EQ(frame.type, FrameType::kResponse);
    WireResponse r;
    std::string parse_err;
    ASSERT_TRUE(parse_response(frame, r, parse_err)) << parse_err;
    response = r;
  }
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->user_id, 1u);
  client.send_shutdown();
  fs::remove_all(dir);
}

TEST(ShardFrames, MetricsPullReturnsJson) {
  WireHarness h(shard_serve_config());
  BlockingClient client({"127.0.0.1", h.net_server.port()});
  const std::string pull = encode_metrics_pull();
  client.send_bytes(pull.data(), pull.size());
  Frame frame;
  ASSERT_TRUE(client.recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kMetricsJson);
  std::string json;
  std::string error;
  ASSERT_TRUE(parse_metrics_json(frame, json, error)) << error;
  // The payload is the same snapshot `--metrics-out` would write — the
  // coordinator folds it through obs::parse_snapshot / merge_snapshot.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  client.send_shutdown();
}

}  // namespace
}  // namespace clear::net
