// Session migration: the export / retire / import API the shard
// coordinator drives during rebalances. The contract under test is
// bit-identity — a session restored on the gaining server must answer
// exactly as it would have on the losing server — plus clean, addressed
// degradation when the handoff's durability IO fails.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "clear/pipeline.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "wemac/dataset.hpp"

namespace clear::serve {
namespace {

namespace fs = std::filesystem;

core::ClearConfig migration_config() {
  core::ClearConfig c = core::smoke_config();
  c.data.seed = 77;
  c.data.n_volunteers = 8;
  c.data.trials_per_volunteer = 5;
  c.train.epochs = 2;
  c.finetune.epochs = 1;
  c.finalize();
  return c;
}

struct MigrationFixture {
  wemac::WemacDataset dataset;
  core::ClearPipeline pipeline;
  ModelSource source;

  MigrationFixture()
      : dataset(wemac::generate_wemac(migration_config().data)),
        pipeline(migration_config()) {
    std::vector<std::size_t> users;
    for (std::size_t u = 0; u + 2 < dataset.n_volunteers(); ++u)
      users.push_back(u);
    pipeline.fit(dataset, users);
    source = ModelSource::from_pipeline(pipeline);
  }
};

MigrationFixture& fixture() {
  static MigrationFixture f;
  return f;
}

ServeRequest req(std::uint64_t user, std::uint64_t id, std::uint64_t t,
                 std::optional<int> label = std::nullopt) {
  auto& f = fixture();
  const auto& samples = f.dataset.samples_of(f.dataset.n_volunteers() - 1);
  const std::size_t s = samples[id % samples.size()];
  ServeRequest r;
  r.user_id = user;
  r.request_id = id;
  r.arrival_us = t;
  r.map = f.dataset.samples()[s].feature_map;
  r.quality = 1.0;
  r.label = label;
  return r;
}

/// Fresh per-test journal directories, removed on teardown.
struct MigrationTest : ::testing::Test {
  std::string dir_a;
  std::string dir_b;

  void SetUp() override {
    const std::string base =
        (fs::temp_directory_path() /
         ("clear_migrate_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name())))
            .string();
    dir_a = base + "_a";
    dir_b = base + "_b";
    fs::remove_all(dir_a);
    fs::remove_all(dir_b);
  }

  void TearDown() override {
    fault::disarm_migrate_io_fail();
    fs::remove_all(dir_a);
    fs::remove_all(dir_b);
  }

  ServeConfig config_with(const std::string& dir) {
    ServeConfig sc;
    sc.session.ca_windows = 2;
    sc.session.ft_maps = 2;
    sc.journal.directory = dir;
    return sc;
  }

  /// Drive user 1 to PERSONALIZED (two labelled maps trigger the
  /// fine-tune) and return the server ready for export.
  static void personalize(Server& server) {
    std::vector<ServeRequest> stream;
    stream.push_back(req(1, 0, 0));
    stream.push_back(req(1, 1, 1000));
    stream.push_back(req(1, 2, 2000, 0));
    stream.push_back(req(1, 3, 3000, 1));
    stream.push_back(req(1, 4, 4000));
    const auto out = server.run(std::move(stream));
    ASSERT_EQ(out.size(), 5u);
    ASSERT_EQ(out.back().session_state, SessionState::kPersonalized);
  }

  static std::vector<ServeRequest> followup_stream() {
    std::vector<ServeRequest> stream;
    for (std::uint64_t i = 5; i < 11; ++i)
      stream.push_back(req(1, i, i * 1000));
    return stream;
  }
};

void expect_bit_identical(const std::vector<ServeResult>& a,
                          const std::vector<ServeResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user_id, b[i].user_id) << "result " << i;
    EXPECT_EQ(a[i].request_id, b[i].request_id) << "result " << i;
    EXPECT_EQ(a[i].status, b[i].status) << "result " << i;
    EXPECT_EQ(a[i].predicted, b[i].predicted) << "result " << i;
    EXPECT_EQ(a[i].session_state, b[i].session_state) << "result " << i;
    EXPECT_EQ(a[i].route.kind, b[i].route.kind) << "result " << i;
    // Bit pattern, not approximate: the migrated engine must be the same
    // network, not a retrained sibling.
    std::uint32_t bits_a, bits_b;
    static_assert(sizeof(bits_a) == sizeof(a[i].fear_probability));
    std::memcpy(&bits_a, &a[i].fear_probability, sizeof(bits_a));
    std::memcpy(&bits_b, &b[i].fear_probability, sizeof(bits_b));
    EXPECT_EQ(bits_a, bits_b) << "result " << i;
  }
}

TEST_F(MigrationTest, ExportedSessionRestoresBitIdentically) {
  auto& f = fixture();
  Server losing(f.source, config_with(dir_a));
  personalize(losing);

  const auto exported = losing.export_session(1);
  ASSERT_TRUE(exported.has_value());
  EXPECT_TRUE(exported->image.has_personal);
  EXPECT_FALSE(exported->checkpoint.empty());
  EXPECT_EQ(exported->image.user_id, 1u);

  Server gaining(f.source, config_with(dir_b));
  ASSERT_TRUE(gaining.import_session(exported->image, exported->checkpoint));

  // The same continuation stream must produce bit-identical answers on the
  // original (export is non-mutating) and on the migrated copy.
  const auto on_losing = losing.run(followup_stream());
  const auto on_gaining = gaining.run(followup_stream());
  expect_bit_identical(on_losing, on_gaining);
}

// An export re-encodes the personal checkpoint for the wire but stores
// nothing, so the delta counters, which count what a fine-tune's commit
// persisted, must not move.
TEST_F(MigrationTest, ExportLeavesTheDeltaCountersAlone) {
  auto& f = fixture();
  Server server(f.source, config_with(dir_a));
  server.open_journal();
  personalize(server);
  const ServeCounters before = server.counters();
  ASSERT_EQ(before.finetunes, 1u);
  ASSERT_EQ(before.delta_encoded, before.finetunes);

  ASSERT_TRUE(server.export_session(1).has_value());
  const ServeCounters& after = server.counters();
  EXPECT_EQ(after.delta_encoded, after.finetunes);
  EXPECT_EQ(after.delta_full_fallbacks, before.delta_full_fallbacks);
  EXPECT_EQ(after.delta_bytes_saved, before.delta_bytes_saved);
}

TEST_F(MigrationTest, ExportIsAbsentForUnknownUserAndAfterRetire) {
  auto& f = fixture();
  Server server(f.source, config_with(dir_a));
  personalize(server);
  EXPECT_FALSE(server.export_session(99).has_value());
  ASSERT_TRUE(server.export_session(1).has_value());
  server.retire_session(1);
  EXPECT_FALSE(server.export_session(1).has_value());
  // Retiring an absent session is a harmless no-op.
  server.retire_session(1);
}

// A fine-tune in flight must commit before its session is exported, as
// pending rows must complete; retiring the session drops the job with it.
TEST_F(MigrationTest, ExportRefusesAFinetuneInFlightAndRetireDropsIt) {
  auto& f = fixture();
  Server server(f.source, config_with(dir_a));
  server.submit(req(1, 0, 0));
  server.submit(req(1, 1, 1000));
  server.submit(req(1, 2, 2000, 0));
  server.submit(req(1, 3, 3000, 1));  // Starts the fine-tune.
  server.advance(std::numeric_limits<std::uint64_t>::max());  // No commit.
  ASSERT_EQ(server.in_flight(), 0u);
  EXPECT_THROW(server.export_session(1), Error);
  server.retire_session(1);
  EXPECT_FALSE(server.export_session(1).has_value());
  server.drain();
  EXPECT_EQ(server.counters().finetunes, 0u);
}

TEST_F(MigrationTest, SessionImageCodecRoundTripsByteExactly) {
  auto& f = fixture();
  Server server(f.source, config_with(dir_a));
  personalize(server);
  const auto exported = server.export_session(1);
  ASSERT_TRUE(exported.has_value());

  const std::string bytes = encode_session_image(exported->image);
  const SessionImage decoded = decode_session_image(bytes);
  EXPECT_EQ(decoded.user_id, exported->image.user_id);
  EXPECT_EQ(decoded.state, exported->image.state);
  EXPECT_EQ(decoded.cluster, exported->image.cluster);
  EXPECT_EQ(decoded.has_personal, exported->image.has_personal);
  EXPECT_EQ(decoded.requests, exported->image.requests);
  EXPECT_EQ(decoded.observations.size(), exported->image.observations.size());
  EXPECT_EQ(decoded.labelled.size(), exported->image.labelled.size());
  // Decode-encode is a fixed point: the formats carry no hidden state.
  EXPECT_EQ(encode_session_image(decoded), bytes);
}

TEST_F(MigrationTest, ImportFailsCleanlyWhenDurabilityIoFails) {
  auto& f = fixture();
  Server losing(f.source, config_with(dir_a));
  personalize(losing);
  const auto exported = losing.export_session(1);
  ASSERT_TRUE(exported.has_value());

  Server gaining(f.source, config_with(dir_b));
  fault::arm_migrate_io_fail(1);
  EXPECT_FALSE(gaining.import_session(exported->image, exported->checkpoint));
  // The failed import must leave no half-installed session behind...
  EXPECT_FALSE(gaining.export_session(1).has_value());
  // ...so a retry after the fault clears lands cleanly.
  fault::disarm_migrate_io_fail();
  EXPECT_TRUE(gaining.import_session(exported->image, exported->checkpoint));
  const auto on_losing = losing.run(followup_stream());
  const auto on_gaining = gaining.run(followup_stream());
  expect_bit_identical(on_losing, on_gaining);
}

TEST_F(MigrationTest, ImportRejectsDuplicateAndClaimsWithoutCheckpoint) {
  auto& f = fixture();
  Server losing(f.source, config_with(dir_a));
  personalize(losing);
  const auto exported = losing.export_session(1);
  ASSERT_TRUE(exported.has_value());

  Server gaining(f.source, config_with(dir_b));
  ASSERT_TRUE(gaining.import_session(exported->image, exported->checkpoint));
  // A second import of the same user must refuse, not fork the session.
  EXPECT_FALSE(gaining.import_session(exported->image, exported->checkpoint));
  // An image claiming a personal engine without its checkpoint is refused.
  Server empty(f.source, config_with(dir_a + "_c"));
  EXPECT_FALSE(empty.import_session(exported->image, ""));
  fs::remove_all(dir_a + "_c");
}

}  // namespace
}  // namespace clear::serve
