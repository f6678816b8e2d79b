// Crash-recovery suite: journaled serving, deterministic replay, and the
// per-session fallback paths. The "crash" in these tests is dropping a
// journaled Server without any graceful shutdown — exactly what SIGKILL
// leaves behind on disk (the chaos gate, tools/run_chaos_soak.sh, does the
// same thing at the process level against the wire front end).
#include "serve/recovery.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "clear/config.hpp"
#include "clear/pipeline.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "serve/delta.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "wemac/dataset.hpp"

namespace clear::serve {
namespace {

namespace fs = std::filesystem;

core::ClearConfig recovery_config() {
  core::ClearConfig c = core::smoke_config();
  c.data.seed = 77;
  c.data.n_volunteers = 8;
  c.data.trials_per_volunteer = 5;
  c.train.epochs = 2;
  c.finetune.epochs = 1;
  c.finalize();
  return c;
}

struct SharedFixture {
  wemac::WemacDataset dataset;
  core::ClearPipeline pipeline;
  ModelSource source;

  SharedFixture()
      : dataset(wemac::generate_wemac(recovery_config().data)),
        pipeline(recovery_config()) {
    std::vector<std::size_t> users;
    for (std::size_t u = 0; u + 2 < dataset.n_volunteers(); ++u)
      users.push_back(u);
    pipeline.fit(dataset, users);
    source = ModelSource::from_pipeline(pipeline);
  }
};

SharedFixture& fixture() {
  static SharedFixture f;
  return f;
}

ServeRequest req(std::uint64_t user, std::uint64_t id, std::uint64_t t,
                 std::optional<int> label = std::nullopt,
                 double quality = 1.0) {
  auto& f = fixture();
  const auto& samples = f.dataset.samples_of(f.dataset.n_volunteers() - 1);
  const std::size_t s = samples[id % samples.size()];
  ServeRequest r;
  r.user_id = user;
  r.request_id = id;
  r.arrival_us = t;
  r.map = f.dataset.samples()[s].feature_map;
  r.quality = quality;
  r.label = label;
  return r;
}

void expect_identical(const std::vector<ServeResult>& a,
                      const std::vector<ServeResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user_id, b[i].user_id) << "result " << i;
    EXPECT_EQ(a[i].request_id, b[i].request_id) << "result " << i;
    EXPECT_EQ(a[i].status, b[i].status) << "result " << i;
    EXPECT_EQ(a[i].error, b[i].error) << "result " << i;
    EXPECT_EQ(a[i].predicted, b[i].predicted) << "result " << i;
    // Bit-identical, not approximately equal — the recovery contract.
    EXPECT_EQ(a[i].fear_probability, b[i].fear_probability) << "result " << i;
    EXPECT_EQ(a[i].route, b[i].route) << "result " << i;
    EXPECT_EQ(a[i].session_state, b[i].session_state) << "result " << i;
    EXPECT_EQ(a[i].batch_rows, b[i].batch_rows) << "result " << i;
    EXPECT_EQ(a[i].exec_us, b[i].exec_us) << "result " << i;
  }
}

ServeConfig journaled_config(const std::string& dir) {
  ServeConfig sc;
  sc.session.ca_windows = 2;
  sc.session.ft_maps = 2;
  sc.journal.directory = dir;
  return sc;
}

/// Phase 1: drives users 1 and 2 from COLD through assignment and a
/// fine-tune — both end PERSONALIZED. A third user stays mid-lifecycle
/// (observations buffered, not yet assigned).
std::vector<ServeRequest> phase1() {
  std::vector<ServeRequest> s;
  s.push_back(req(1, 0, 0));
  s.push_back(req(2, 0, 100));
  s.push_back(req(1, 1, 1000));
  s.push_back(req(2, 1, 1100));
  s.push_back(req(1, 2, 2000, 0));
  s.push_back(req(2, 2, 2100, 1));
  s.push_back(req(1, 3, 3000, 1));
  s.push_back(req(2, 3, 3100, 0));
  s.push_back(req(3, 0, 3200));
  return s;
}

/// Phase 2: the continuation stream served after the crash (or, for the
/// golden run, after an uneventful phase 1).
std::vector<ServeRequest> phase2() {
  std::vector<ServeRequest> s;
  s.push_back(req(1, 4, 4000));
  s.push_back(req(2, 4, 4100));
  s.push_back(req(3, 1, 4200));
  s.push_back(req(1, 5, 5000));
  s.push_back(req(2, 5, 5100, 0));
  s.push_back(req(3, 2, 5200, 1));
  return s;
}

struct RecoveryTest : ::testing::Test {
  std::string dir;

  void SetUp() override {
    dir = (fs::temp_directory_path() /
           ("clear_recovery_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name())))
              .string();
    fs::remove_all(dir);
  }

  void TearDown() override {
    fault::disarm_io_failure();
    fault::disarm_journal_io_fail();
    fault::disarm_journal_torn_write();
    fs::remove_all(dir);
  }

  /// Run phase 1 on a journaled server and "crash" it (destroy with no
  /// snapshot, like SIGKILL). Returns its counters for later comparison.
  ServeCounters crash_after_phase1(ServeConfig sc) {
    auto& f = fixture();
    Server server(f.source, sc);
    server.open_journal();
    server.run(phase1());
    EXPECT_EQ(server.counters().finetunes, 2u);
    EXPECT_TRUE(server.journaling());
    return server.counters();
  }
};

TEST_F(RecoveryTest, ReplayRestoresSessionsAndCountersBitIdentically) {
  auto& f = fixture();
  const ServeCounters crashed = crash_after_phase1(journaled_config(dir));

  Server restored(f.source, journaled_config(dir));
  const RecoveryReport report = restored.recover();
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_EQ(report.sessions, 3u);
  EXPECT_EQ(report.personalized, 2u);
  EXPECT_EQ(report.personalized_expected, 2u);
  EXPECT_EQ(report.session_fallbacks, 0u);
  EXPECT_EQ(report.tail_bytes_dropped, 0u);
  EXPECT_FALSE(report.snapshot_corrupt);
  EXPECT_TRUE(restored.journaling());  // Recovery reopens the journal.

  // The deterministic counters survive the crash exactly.
  EXPECT_EQ(restored.counters().requests, crashed.requests);
  EXPECT_EQ(restored.counters().ok, crashed.ok);
  EXPECT_EQ(restored.counters().shed, crashed.shed);
  EXPECT_EQ(restored.counters().assignments, crashed.assignments);
  EXPECT_EQ(restored.counters().finetunes, crashed.finetunes);

  for (const Session* s : restored.sessions().sessions()) {
    if (s->user_id() == 3) {
      EXPECT_NE(s->state(), SessionState::kPersonalized);
    } else {
      EXPECT_EQ(s->state(), SessionState::kPersonalized)
          << "user " << s->user_id();
      EXPECT_TRUE(s->has_personal_engine());
    }
  }
}

TEST_F(RecoveryTest, PostRecoveryServingMatchesUninterruptedGoldenRun) {
  auto& f = fixture();
  // Golden: same two-phase cadence, no crash in between.
  Server golden(f.source, ServeConfig(journaled_config("")));
  golden.run(phase1());
  const std::vector<ServeResult> golden_tail = golden.run(phase2());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const NumThreadsGuard guard(threads);
    const std::string d = dir + "_t" + std::to_string(threads);
    fs::remove_all(d);
    crash_after_phase1(journaled_config(d));
    Server restored(f.source, journaled_config(d));
    const RecoveryReport report = restored.recover();
    EXPECT_TRUE(report.clean()) << report.str();
    const std::vector<ServeResult> tail = restored.run(phase2());
    expect_identical(golden_tail, tail);
    fs::remove_all(d);
  }
}

// Delta storage (the default) must be invisible end-to-end: the persisted
// personal checkpoints are CLRART01 delta artifacts, and a crash + recovery
// over them serves bit-identically to a full-checkpoint golden run.
TEST_F(RecoveryTest, DeltaStorageRecoversBitIdenticallyToFullStorage) {
  auto& f = fixture();
  ServeConfig full_sc = journaled_config("");
  full_sc.delta_checkpoints = false;
  Server golden(f.source, full_sc);
  golden.run(phase1());
  const std::vector<ServeResult> golden_tail = golden.run(phase2());

  const ServeCounters crashed = crash_after_phase1(journaled_config(dir));
  EXPECT_EQ(crashed.delta_encoded, crashed.finetunes);
  EXPECT_EQ(crashed.delta_full_fallbacks, 0u);
  EXPECT_GT(crashed.delta_bytes_saved, 0u);
  for (const std::uint64_t user : {1ull, 2ull}) {
    const std::string stored = read_user_checkpoint(dir, user);
    ASSERT_FALSE(stored.empty()) << "user " << user;
    EXPECT_TRUE(delta::is_delta(stored)) << "user " << user;
  }

  Server restored(f.source, journaled_config(dir));
  const RecoveryReport report = restored.recover();
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_EQ(report.personalized, 2u);
  EXPECT_GE(restored.counters().delta_loads, 2u);
  expect_identical(golden_tail, restored.run(phase2()));
}

// The docs/OPERATIONS.md migration runbook: a directory written with full
// checkpoints recovers under delta config unchanged, and
// rewrite_user_checkpoints() converts it in place — after which recovery
// still serves bit-identically.
TEST_F(RecoveryTest, RewriteMigratesFullCheckpointsToDeltas) {
  auto& f = fixture();
  ServeConfig golden_sc = journaled_config("");
  golden_sc.delta_checkpoints = false;
  Server golden(f.source, golden_sc);
  golden.run(phase1());
  const std::vector<ServeResult> golden_tail = golden.run(phase2());

  ServeConfig legacy_sc = journaled_config(dir);
  legacy_sc.delta_checkpoints = false;
  crash_after_phase1(legacy_sc);
  EXPECT_FALSE(delta::is_delta(read_user_checkpoint(dir, 1)));

  {
    // Recover with delta storage on: the legacy full files load unchanged.
    Server restored(f.source, journaled_config(dir));
    EXPECT_TRUE(restored.recover().clean());
    EXPECT_EQ(restored.counters().delta_loads, 0u);
    EXPECT_EQ(restored.rewrite_user_checkpoints(), 2u);
    EXPECT_TRUE(delta::is_delta(read_user_checkpoint(dir, 1)));
    EXPECT_TRUE(delta::is_delta(read_user_checkpoint(dir, 2)));
    // Idempotent: the second pass finds everything already converted.
    EXPECT_EQ(restored.rewrite_user_checkpoints(), 0u);
  }

  Server again(f.source, journaled_config(dir));
  const RecoveryReport report = again.recover();
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_EQ(report.personalized, 2u);
  EXPECT_GE(again.counters().delta_loads, 2u);
  expect_identical(golden_tail, again.run(phase2()));
}

TEST_F(RecoveryTest, RecoversFromSnapshotPlusJournalTail) {
  auto& f = fixture();
  ServeConfig sc = journaled_config(dir);
  sc.journal.snapshot_every = 4;  // Force mid-run compactions.
  crash_after_phase1(sc);
  ASSERT_TRUE(fs::exists(snapshot_path(dir)));

  Server restored(f.source, sc);
  const RecoveryReport report = restored.recover();
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_GT(report.snapshot_sessions, 0u);
  EXPECT_EQ(report.personalized, 2u);

  // And the recovered server still serves the continuation.
  const std::vector<ServeResult> tail = restored.run(phase2());
  for (const ServeResult& r : tail)
    EXPECT_EQ(r.status, ServeResult::Status::kOk);
}

// Regression: compaction used to fire from inside journal_append, so a
// snapshot boundary landing on a kRequest (appended before its quality tick)
// or kPredict (appended before ++ok) stamped a half-applied record as
// covered and replay lost its effects. With snapshot_every=1 every record is
// a boundary, so any such split shows up as counter or streak drift.
TEST_F(RecoveryTest, SnapshotOnEveryRecordNeverSplitsARecordsEffects) {
  auto& f = fixture();
  ServeConfig sc = journaled_config(dir);
  sc.journal.snapshot_every = 1;
  ServeCounters crashed;
  {
    Server server(f.source, sc);
    server.open_journal();
    std::vector<ServeRequest> stream = phase1();
    // A low-quality burst drives user 3 into DEGRADED — quality streaks are
    // exactly the state an append-time snapshot used to lose.
    stream.push_back(req(3, 1, 3300, std::nullopt, 0.1));
    stream.push_back(req(3, 2, 3400, std::nullopt, 0.1));
    stream.push_back(req(3, 3, 3500, std::nullopt, 0.1));
    server.run(stream);
    crashed = server.counters();
    EXPECT_EQ(crashed.degraded, 1u);
  }
  Server restored(f.source, sc);
  const RecoveryReport report = restored.recover();
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_EQ(restored.counters().requests, crashed.requests);
  EXPECT_EQ(restored.counters().ok, crashed.ok);
  EXPECT_EQ(restored.counters().degraded, crashed.degraded);
  EXPECT_EQ(restored.counters().recovered, crashed.recovered);
  for (const Session* s : restored.sessions().sessions()) {
    if (s->user_id() == 3) {
      EXPECT_TRUE(s->degraded());
    }
  }
}

// Regression: table-full sheds used to write no journal record, so the
// recovered requests/shed counters read lower than the crashed process's.
TEST_F(RecoveryTest, TableFullShedsSurviveRecovery) {
  auto& f = fixture();
  ServeConfig tiny = journaled_config(dir);
  tiny.max_sessions = 2;  // Users 1 and 2 seat; user 3 is turned away.
  const ServeCounters crashed = crash_after_phase1(tiny);
  EXPECT_EQ(crashed.shed, 1u);

  Server restored(f.source, tiny);
  const RecoveryReport report = restored.recover();
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_EQ(report.sessions, 2u);
  EXPECT_EQ(restored.counters().requests, crashed.requests);
  EXPECT_EQ(restored.counters().shed, crashed.shed);
}

// Regression: with a corrupt snapshot, replayed kRequest records used to
// recreate snapshot-resident sessions as fresh COLD ones via get_or_create;
// later records then applied cleanly on top of silently wrong state. Every
// session first seen via replay must be quarantined instead.
TEST_F(RecoveryTest, CorruptSnapshotQuarantinesEverySessionSeenInReplay) {
  auto& f = fixture();
  {
    Server server(f.source, journaled_config(dir));
    server.open_journal();
    server.run(phase1());
    server.snapshot_now();
    server.run(phase2());  // Journal tail names users 1, 2, and 3.
  }
  // Flip one payload byte: the snapshot fails its CRC on read.
  std::fstream snap(snapshot_path(dir),
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(snap.good());
  char byte = 0;
  snap.seekg(24);
  snap.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  snap.seekp(24);
  snap.write(&byte, 1);
  snap.close();

  Server restored(f.source, journaled_config(dir));
  const RecoveryReport report = restored.recover();
  EXPECT_TRUE(report.snapshot_corrupt);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.records_replayed, 0u);  // Nothing silently restored...
  EXPECT_EQ(report.sessions, 0u);
  EXPECT_EQ(report.session_fallbacks, 3u);  // ...everyone quarantined.
  EXPECT_GT(report.records_skipped, 0u);

  // Quarantined users restart COLD on next contact and keep being served.
  std::vector<ServeRequest> next;
  next.push_back(req(1, 6, 6000));
  next.push_back(req(2, 6, 6100));
  const std::vector<ServeResult> tail = restored.run(next);
  ASSERT_EQ(tail.size(), 2u);
  for (const ServeResult& r : tail)
    EXPECT_EQ(r.status, ServeResult::Status::kOk);
  EXPECT_EQ(restored.sessions().sessions().size(), 2u);
}

TEST_F(RecoveryTest, CorruptPersonalCheckpointDemotesOnlyThatSession) {
  auto& f = fixture();
  crash_after_phase1(journaled_config(dir));

  // Damage user 1's fine-tuned checkpoint; user 2's stays intact.
  const std::string path = user_checkpoint_path(dir, 1);
  ASSERT_TRUE(fs::exists(path));
  std::fstream ck(path, std::ios::in | std::ios::out | std::ios::binary);
  ck.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
  ck.write("\xFF", 1);
  ck.close();

  Server restored(f.source, journaled_config(dir));
  const RecoveryReport report = restored.recover();
  EXPECT_FALSE(report.clean());  // A personalized session was lost...
  EXPECT_EQ(report.personalized_expected, 2u);
  EXPECT_EQ(report.personalized, 1u);
  EXPECT_EQ(report.session_fallbacks, 0u);  // ...but nobody was evicted.
  EXPECT_EQ(report.sessions, 3u);

  for (const Session* s : restored.sessions().sessions()) {
    if (s->user_id() == 1) {
      // Demoted to its cluster assignment, history intact.
      EXPECT_EQ(s->state(), SessionState::kAssigned);
      EXPECT_FALSE(s->has_personal_engine());
    } else if (s->user_id() == 2) {
      EXPECT_EQ(s->state(), SessionState::kPersonalized);
      EXPECT_TRUE(s->has_personal_engine());
    }
  }
  // The demoted user keeps being served (from the cluster model).
  const std::vector<ServeResult> tail = restored.run(phase2());
  for (const ServeResult& r : tail)
    EXPECT_EQ(r.status, ServeResult::Status::kOk);
}

TEST_F(RecoveryTest, TornJournalTailDropsOnlyTheTornRecord) {
  auto& f = fixture();
  crash_after_phase1(journaled_config(dir));
  const std::string log = journal_log_path(dir);
  fs::resize_file(log, fs::file_size(log) - 3);  // Torn final write.

  Server restored(f.source, journaled_config(dir));
  const RecoveryReport report = restored.recover();
  EXPECT_GT(report.tail_bytes_dropped, 0u);
  EXPECT_EQ(report.sessions, 3u);
  // The torn record was a kPredict tail event; every personalization
  // survived.
  EXPECT_EQ(report.personalized, 2u);
  EXPECT_EQ(report.personalized, report.personalized_expected);
}

// A crash between a fine-tune's trigger and its commit leaves the trigger's
// kLabelled record in the log and no kFinetune record. Recovery must run that
// fine-tune again: a session left ASSIGNED with a full buffer would serve its
// cluster route, then fine-tune on one map more than the run that never
// crashed, and answer differently from then on.
TEST_F(RecoveryTest, CrashBetweenFinetuneTriggerAndCommitServesTheSameAnswers) {
  auto& f = fixture();
  Server golden(f.source, journaled_config(""));
  golden.run(phase1());
  const std::vector<ServeResult> golden_tail = golden.run(phase2());

  crash_after_phase1(journaled_config(dir));
  // Cut the log where its first kFinetune record starts.
  std::optional<std::uint64_t> cut;
  for (const JournalRecord& rec : read_journal(dir).records)
    if (rec.type == RecordType::kFinetune) {
      cut = rec.file_offset;
      break;
    }
  ASSERT_TRUE(cut.has_value());
  fs::resize_file(journal_log_path(dir), *cut);

  Server restored(f.source, journaled_config(dir));
  const RecoveryReport report = restored.recover();
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_EQ(report.finetunes_resumed, 2u);
  EXPECT_EQ(restored.counters().finetunes, 2u);
  for (const std::uint64_t user : {1ull, 2ull})
    EXPECT_FALSE(read_user_checkpoint(dir, user).empty()) << "user " << user;
  expect_identical(golden_tail, restored.run(phase2()));

  // The re-run fine-tunes were journaled: a second crash recovers them by
  // replay, without training.
  Server again(f.source, journaled_config(dir));
  const RecoveryReport second = again.recover();
  EXPECT_TRUE(second.clean()) << second.str();
  EXPECT_EQ(second.finetunes_resumed, 0u);
  EXPECT_EQ(second.personalized, 2u);
  EXPECT_EQ(second.personalized_expected, 2u);
}

TEST_F(RecoveryTest, SessionTableFullFallsBackPerSessionNotPerProcess) {
  auto& f = fixture();
  crash_after_phase1(journaled_config(dir));

  ServeConfig tiny = journaled_config(dir);
  tiny.max_sessions = 1;  // Recovery cannot seat everyone.
  Server restored(f.source, tiny);
  const RecoveryReport report = restored.recover();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.sessions, 1u);
  EXPECT_EQ(report.session_fallbacks, 2u);
  EXPECT_GT(report.records_skipped, 0u);  // Quarantined users' records.
  // The surviving session is intact and the server still serves.
  EXPECT_EQ(restored.sessions().sessions().size(), 1u);
}

TEST_F(RecoveryTest, OpenJournalRefusesToClobberExistingState) {
  auto& f = fixture();
  crash_after_phase1(journaled_config(dir));
  Server fresh(f.source, journaled_config(dir));
  try {
    fresh.open_journal();
    FAIL() << "open_journal over existing state must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--recover"), std::string::npos)
        << "error should point at --recover: " << e.what();
  }
}

TEST_F(RecoveryTest, JournalIoFailureDisablesJournalingButKeepsServing) {
  auto& f = fixture();
  Server server(f.source, journaled_config(dir));
  server.open_journal();
  fault::arm_journal_io_fail(3);  // Fail the third journal operation.
  const std::vector<ServeResult> out = server.run(phase1());
  fault::disarm_journal_io_fail();
  EXPECT_FALSE(server.journaling());  // Disabled, not crashed.
  EXPECT_EQ(server.counters().journal_io_errors, 1u);
  ASSERT_EQ(out.size(), phase1().size());
  for (const ServeResult& r : out)
    EXPECT_EQ(r.status, ServeResult::Status::kOk);
}

TEST_F(RecoveryTest, SnapshotIoFailureDisablesJournalingButKeepsServing) {
  auto& f = fixture();
  Server server(f.source, journaled_config(dir));
  server.open_journal();
  server.run(phase1());
  fault::arm_io_failure(1);  // Trip the snapshot's atomic-write path.
  server.snapshot_now();
  fault::disarm_io_failure();
  EXPECT_FALSE(server.journaling());
  EXPECT_EQ(server.counters().journal_io_errors, 1u);
  const std::vector<ServeResult> tail = server.run(phase2());
  for (const ServeResult& r : tail)
    EXPECT_EQ(r.status, ServeResult::Status::kOk);
}

// -- Online adaptation (drift / re-assessment / shadowing) -------------------

/// Like req(), but drawing the feature map from a chosen volunteer — the
/// lever that makes a user's stream drift toward another cluster.
ServeRequest req_from(std::size_t volunteer, std::uint64_t user,
                      std::uint64_t id, std::uint64_t t) {
  auto& f = fixture();
  const auto& samples = f.dataset.samples_of(volunteer);
  const std::size_t s = samples[id % samples.size()];
  ServeRequest r;
  r.user_id = user;
  r.request_id = id;
  r.arrival_us = t;
  r.map = f.dataset.samples()[s].feature_map;
  return r;
}

/// Two fitted volunteers the global clustering put in different clusters.
std::pair<std::size_t, std::size_t> cross_cluster_volunteers() {
  const auto& uc = fixture().source.clustering.user_cluster;
  for (std::size_t a = 0; a < uc.size(); ++a)
    for (std::size_t b = a + 1; b < uc.size(); ++b)
      if (uc[a] != uc[b]) return {a, b};
  ADD_FAILURE() << "fixture clustering collapsed to one cluster";
  return {0, 0};
}

ServeConfig drift_config(const std::string& dir) {
  ServeConfig sc = journaled_config(dir);
  sc.session.drift_after = 2;
  sc.session.drift_ratio = 1.0;  // Drift as soon as another cluster fits.
  sc.session.reassess_windows = 2;
  sc.session.shadow_windows = 3;
  return sc;
}

/// The first `n` requests of a stream that walks user 9 through the whole
/// adaptation arc: two windows from volunteer `a` assign it, then every
/// window comes from volunteer `b` (a different cluster), so the session
/// triggers at request 3, buffers re-assessment windows at 4-5, shadows at
/// 6-8, and promotes on the 3-0 sweep.
std::vector<ServeRequest> drifting_stream(std::size_t n) {
  const auto [a, b] = cross_cluster_volunteers();
  std::vector<ServeRequest> s;
  for (std::size_t i = 0; i < n; ++i)
    s.push_back(req_from(i < 2 ? a : b, 9, i, 1000 * (i + 1)));
  return s;
}

void expect_image_identical(const SessionImage& x, const SessionImage& y) {
  EXPECT_EQ(x.user_id, y.user_id);
  EXPECT_EQ(x.state, y.state);
  EXPECT_EQ(x.saved_state, y.saved_state);
  EXPECT_EQ(x.bad_streak, y.bad_streak);
  EXPECT_EQ(x.good_streak, y.good_streak);
  EXPECT_EQ(x.cluster, y.cluster);
  EXPECT_EQ(x.observations, y.observations);
  EXPECT_EQ(x.finetune_enabled, y.finetune_enabled);
  EXPECT_EQ(x.requests, y.requests);
  EXPECT_EQ(x.predictions, y.predictions);
  EXPECT_EQ(x.has_personal, y.has_personal);
  EXPECT_EQ(x.drift_streak, y.drift_streak);
  EXPECT_EQ(x.reassess_from, y.reassess_from);
  EXPECT_EQ(x.candidate_cluster, y.candidate_cluster);
  EXPECT_EQ(x.shadow_wins, y.shadow_wins);
  EXPECT_EQ(x.shadow_seen, y.shadow_seen);
}

SessionImage image_of(const Server& server, std::uint64_t user) {
  for (const Session* s : server.sessions().sessions())
    if (s->user_id() == user) return s->image();
  ADD_FAILURE() << "no session for user " << user;
  return {};
}

TEST_F(RecoveryTest, CrashMidReassessmentRestoresAdaptationBitIdentically) {
  auto& f = fixture();
  const std::vector<ServeRequest> full = drifting_stream(9);
  const std::vector<ServeRequest> head(full.begin(), full.begin() + 5);
  const std::vector<ServeRequest> rest(full.begin() + 5, full.end());

  // Golden: the full arc with no crash in between.
  Server golden(f.source, ServeConfig(drift_config("")));
  golden.run(head);  // Ends with one re-assess window buffered.
  ASSERT_EQ(image_of(golden, 9).state, SessionState::kReassessing);
  const std::vector<ServeResult> golden_tail = golden.run(rest);
  EXPECT_EQ(golden.counters().promotions, 1u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const NumThreadsGuard guard(threads);
    const std::string d = dir + "_t" + std::to_string(threads);
    fs::remove_all(d);
    SessionImage crashed_image;
    ServeCounters crashed;
    {
      Server server(f.source, drift_config(d));
      server.open_journal();
      server.run(head);
      crashed_image = image_of(server, 9);
      crashed = server.counters();
      EXPECT_EQ(crashed_image.state, SessionState::kReassessing);
      EXPECT_GT(crashed.drift_ticks, 0u);
      EXPECT_EQ(crashed.drift_detected, 1u);
    }
    Server restored(f.source, drift_config(d));
    const RecoveryReport report = restored.recover();
    EXPECT_TRUE(report.clean()) << report.str();
    EXPECT_EQ(report.reassessing, 1u);
    EXPECT_EQ(report.shadowing, 0u);
    expect_image_identical(image_of(restored, 9), crashed_image);
    EXPECT_EQ(restored.counters().drift_ticks, crashed.drift_ticks);
    EXPECT_EQ(restored.counters().drift_detected, crashed.drift_detected);
    EXPECT_EQ(restored.counters().reassessments, crashed.reassessments);

    // The continuation stream is byte-identical to the uninterrupted run.
    const std::vector<ServeResult> tail = restored.run(rest);
    expect_identical(golden_tail, tail);
    EXPECT_EQ(restored.counters().promotions, 1u);
    fs::remove_all(d);
  }
}

TEST_F(RecoveryTest, CrashMidShadowingRestoresShadowBookkeeping) {
  auto& f = fixture();
  SessionImage crashed_image;
  ServeCounters crashed;
  {
    Server server(f.source, drift_config(dir));
    server.open_journal();
    server.run(drifting_stream(7));  // One shadow window scored, two to go.
    crashed_image = image_of(server, 9);
    crashed = server.counters();
    ASSERT_EQ(crashed_image.state, SessionState::kShadowing);
    EXPECT_EQ(crashed_image.shadow_seen, 1u);
    EXPECT_EQ(crashed.reassessments, 1u);
    EXPECT_EQ(crashed.shadow_ticks, 1u);
  }
  Server restored(f.source, drift_config(dir));
  const RecoveryReport report = restored.recover();
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_EQ(report.shadowing, 1u);
  EXPECT_EQ(report.reassessing, 0u);
  EXPECT_NE(report.str().find("1 shadowing restored"), std::string::npos)
      << report.str();
  expect_image_identical(image_of(restored, 9), crashed_image);
  EXPECT_EQ(restored.counters().shadow_ticks, crashed.shadow_ticks);
  EXPECT_EQ(restored.counters().drift_false_alarms,
            crashed.drift_false_alarms);

  // Finishing the arc on the recovered server promotes exactly as the
  // uninterrupted run would.
  const std::vector<ServeRequest> full = drifting_stream(9);
  restored.run({full.begin() + 7, full.end()});
  EXPECT_EQ(restored.counters().promotions, 1u);
  const SessionImage finished = image_of(restored, 9);
  EXPECT_EQ(finished.state, SessionState::kAssigned);
  EXPECT_EQ(finished.cluster, crashed_image.candidate_cluster);
}

TEST_F(RecoveryTest, UnknownKindRecordQuarantinesOnlyThatSession) {
  auto& f = fixture();
  crash_after_phase1(journaled_config(dir));
  // Append a CRC-intact record of kind 99 naming user 2 — what a newer
  // format revision that kept the framing would have written.
  bytes::Writer w;
  const std::size_t at = bytes::begin_record(w);
  w.u64(1000);  // seq (past everything journaled so far)
  w.u64(99);    // kind
  w.u64(2);     // user_id
  bytes::end_record(w, at);
  const std::string frame = w.take();
  {
    std::ofstream os(journal_log_path(dir),
                     std::ios::binary | std::ios::app);
    os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }

  Server restored(f.source, journaled_config(dir));
  const RecoveryReport report = restored.recover();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.unknown_kind_records, 1u);
  EXPECT_EQ(report.session_fallbacks, 1u);  // User 2, nobody else.
  EXPECT_EQ(report.sessions, 2u);
  for (const Session* s : restored.sessions().sessions())
    EXPECT_NE(s->user_id(), 2u);
  // Users 1 and 3 replayed in full; user 1 keeps its personalization.
  EXPECT_EQ(report.personalized, 1u);

  // The quarantined user restarts COLD and keeps being served.
  const std::vector<ServeResult> tail = restored.run({req(2, 9, 9000)});
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].status, ServeResult::Status::kOk);
}

TEST_F(RecoveryTest, GracefulSnapshotMakesReplayJournalFree) {
  auto& f = fixture();
  ServeCounters crashed;
  {
    Server server(f.source, journaled_config(dir));
    server.open_journal();
    server.run(phase1());
    server.snapshot_now();  // What SIGTERM's graceful drain does.
    crashed = server.counters();
  }
  Server restored(f.source, journaled_config(dir));
  const RecoveryReport report = restored.recover();
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.records_replayed, 0u);  // Everything was in the snapshot.
  EXPECT_EQ(restored.counters().requests, crashed.requests);
  EXPECT_EQ(report.personalized, 2u);
}

}  // namespace
}  // namespace clear::serve
