#include "serve/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"

namespace clear::serve {
namespace {

namespace fs = std::filesystem;

/// Fresh journal directory per test, removed on teardown.
struct JournalTest : ::testing::Test {
  std::string dir;

  void SetUp() override {
    dir = (fs::temp_directory_path() /
           ("clear_journal_" +
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
};

JournalRecord request_record(std::uint64_t user, std::uint64_t t,
                             double quality = 0.9) {
  JournalRecord r;
  r.type = RecordType::kRequest;
  r.user_id = user;
  r.time_us = t;
  r.quality = quality;
  return r;
}

TEST_F(JournalTest, EveryRecordTypeRoundTrips) {
  std::vector<JournalRecord> written;
  written.push_back(request_record(7, 1000, 0.8125));
  {
    JournalRecord r;
    r.type = RecordType::kObservation;
    r.user_id = 7;
    r.point = {0.25, -1.5, 3.0};
    written.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kAssign;
    r.user_id = 7;
    r.cluster = 2;
    written.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kLabelled;
    r.user_id = 7;
    r.label = 1;
    r.map = Tensor({2, 3});
    auto flat = r.map.flat();
    for (std::size_t i = 0; i < flat.size(); ++i)
      flat[i] = static_cast<float>(i) * 0.5f - 1.0f;
    written.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kFinetune;
    r.user_id = 7;
    r.ckpt_bytes = 12345;
    r.ckpt_crc = 0xDEADBEEF;
    written.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kFinetuneAbort;
    r.user_id = 9;
    written.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kShed;
    r.user_id = 9;
    r.shed_charged = true;
    written.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kShed;
    r.user_id = 10;
    r.shed_unadmitted = true;  // Table-full: no session, counts a request.
    written.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kPredict;
    r.user_id = 7;
    r.time_us = 4000;
    written.push_back(r);
  }

  {
    Journal journal({dir});
    for (const JournalRecord& r : written) EXPECT_GT(journal.append(r), 0u);
    EXPECT_EQ(journal.records_appended(), written.size());
    EXPECT_EQ(journal.next_seq(), written.size() + 1);
  }

  const JournalReadResult read = read_journal(dir);
  EXPECT_FALSE(read.missing);
  EXPECT_EQ(read.tail_bytes_dropped, 0u);
  ASSERT_EQ(read.records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    const JournalRecord& a = written[i];
    const JournalRecord& b = read.records[i];
    EXPECT_EQ(b.seq, i + 1) << "record " << i;
    EXPECT_EQ(b.type, a.type) << "record " << i;
    EXPECT_EQ(b.user_id, a.user_id) << "record " << i;
    EXPECT_EQ(b.time_us, a.time_us) << "record " << i;
    EXPECT_EQ(b.quality, a.quality) << "record " << i;  // Bit-exact.
    EXPECT_EQ(b.point, a.point) << "record " << i;
    EXPECT_EQ(b.cluster, a.cluster) << "record " << i;
    EXPECT_EQ(b.label, a.label) << "record " << i;
    EXPECT_EQ(b.ckpt_bytes, a.ckpt_bytes) << "record " << i;
    EXPECT_EQ(b.ckpt_crc, a.ckpt_crc) << "record " << i;
    EXPECT_EQ(b.shed_charged, a.shed_charged) << "record " << i;
    EXPECT_EQ(b.shed_unadmitted, a.shed_unadmitted) << "record " << i;
    ASSERT_EQ(b.map.flat().size(), a.map.flat().size()) << "record " << i;
    for (std::size_t j = 0; j < a.map.flat().size(); ++j)
      EXPECT_EQ(b.map.flat()[j], a.map.flat()[j])
          << "record " << i << " map[" << j << "]";
  }
}

TEST_F(JournalTest, MissingDirectoryReadsAsMissingNotError) {
  const JournalReadResult read = read_journal(dir);
  EXPECT_TRUE(read.missing);
  EXPECT_TRUE(read.records.empty());
  EXPECT_FALSE(journal_state_exists(dir));
}

TEST_F(JournalTest, TruncatedTailRecordIsDroppedNotFatal) {
  {
    Journal journal({dir});
    for (int i = 0; i < 3; ++i)
      journal.append(request_record(1, 1000 * (i + 1)));
  }
  // Chop the last record mid-frame, like a crash between write() and disk.
  const std::string log = journal_log_path(dir);
  const std::uintmax_t full = fs::file_size(log);
  fs::resize_file(log, full - 5);

  const JournalReadResult read = read_journal(dir);
  EXPECT_FALSE(read.missing);
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_GT(read.tail_bytes_dropped, 0u);
  EXPECT_EQ(read.records[1].seq, 2u);
}

TEST_F(JournalTest, CorruptRecordStopsReplayAtTheDamage) {
  std::size_t first_bytes = 0;
  {
    Journal journal({dir});
    first_bytes = journal.append(request_record(1, 1000));
    journal.append(request_record(1, 2000));
    journal.append(request_record(1, 3000));
  }
  // Flip one payload byte inside record 2; its frame CRC must catch it and
  // nothing after the damage may be trusted.
  const std::string log = journal_log_path(dir);
  std::fstream f(log, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(16 + first_bytes + 12));
  char byte = 0;
  f.seekg(f.tellp());
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(16 + first_bytes + 12));
  f.write(&byte, 1);
  f.close();

  const JournalReadResult read = read_journal(dir);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0].seq, 1u);
  EXPECT_GT(read.tail_bytes_dropped, 0u);
}

TEST_F(JournalTest, BadHeaderDropsTheWholeFile) {
  {
    Journal journal({dir});
    journal.append(request_record(1, 1000));
  }
  std::fstream f(journal_log_path(dir),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(0);
  f.write("GARBAGE!", 8);
  f.close();
  const JournalReadResult read = read_journal(dir);
  EXPECT_TRUE(read.records.empty());
  EXPECT_EQ(read.tail_bytes_dropped, fs::file_size(journal_log_path(dir)));
}

TEST_F(JournalTest, TornWriteFaultLeavesAPrefixThatReadsClean) {
  Journal journal({dir});
  journal.append(request_record(1, 1000));
  fault::arm_journal_torn_write(1, 7);
  EXPECT_THROW(journal.append(request_record(1, 2000)), Error);
  fault::disarm_journal_torn_write();

  const JournalReadResult read = read_journal(dir);
  ASSERT_EQ(read.records.size(), 1u);  // The intact first record survives.
  EXPECT_EQ(read.tail_bytes_dropped, 7u);
}

TEST_F(JournalTest, JournalIoFaultThrowsBeforeWritingAnything) {
  Journal journal({dir});
  journal.append(request_record(1, 1000));
  const std::uintmax_t before = fs::file_size(journal_log_path(dir));
  fault::arm_journal_io_fail(1);
  EXPECT_THROW(journal.append(request_record(1, 2000)), Error);
  fault::disarm_journal_io_fail();
  EXPECT_EQ(fs::file_size(journal_log_path(dir)), before);
  const JournalReadResult read = read_journal(dir);
  EXPECT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.tail_bytes_dropped, 0u);
}

SnapshotData sample_snapshot() {
  SnapshotData snap;
  snap.last_seq = 42;
  snap.last_arrival_us = 99000;
  snap.counters.requests = 10;
  snap.counters.ok = 8;
  snap.counters.shed = 2;
  snap.counters.assignments = 1;
  SessionImage image;
  image.user_id = 3;
  image.state = SessionState::kAssigned;
  image.saved_state = SessionState::kAssigned;
  image.cluster = 1;
  image.observations = {{0.5, 1.5}, {-2.0, 0.25}};
  image.requests = 10;
  image.predictions = 8;
  image.first_arrival_us = 1000;
  image.first_prediction_us = 3000;
  snap.sessions.push_back(image);
  return snap;
}

TEST_F(JournalTest, SnapshotRoundTripsAndCompactsTheLog) {
  Journal journal({dir});
  for (int i = 0; i < 5; ++i) journal.append(request_record(3, 1000 * i));

  SnapshotData snap = sample_snapshot();
  snap.last_seq = 5;
  journal.write_snapshot(snap);

  // The log was truncated back to its header; new records continue the
  // sequence numbering past the snapshot.
  journal.append(request_record(3, 9000));
  const JournalReadResult read = read_journal(dir);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0].seq, 6u);

  const std::optional<SnapshotData> loaded = read_snapshot(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->last_seq, 5u);
  EXPECT_EQ(loaded->last_arrival_us, snap.last_arrival_us);
  EXPECT_EQ(loaded->counters.requests, snap.counters.requests);
  EXPECT_EQ(loaded->counters.shed, snap.counters.shed);
  ASSERT_EQ(loaded->sessions.size(), 1u);
  const SessionImage& image = loaded->sessions[0];
  EXPECT_EQ(image.user_id, 3u);
  EXPECT_EQ(image.state, SessionState::kAssigned);
  EXPECT_EQ(image.cluster, 1u);
  ASSERT_EQ(image.observations.size(), 2u);
  EXPECT_EQ(image.observations[1], (cluster::Point{-2.0, 0.25}));
  ASSERT_TRUE(image.first_prediction_us.has_value());
  EXPECT_EQ(*image.first_prediction_us, 3000u);
}

TEST_F(JournalTest, SnapshotDueEverySnapshotEveryRecords) {
  JournalConfig config{dir};
  config.snapshot_every = 3;
  Journal journal(config);
  journal.append(request_record(1, 0));
  journal.append(request_record(1, 1000));
  EXPECT_FALSE(journal.due_for_snapshot());
  journal.append(request_record(1, 2000));
  EXPECT_TRUE(journal.due_for_snapshot());
  journal.write_snapshot(sample_snapshot());
  EXPECT_FALSE(journal.due_for_snapshot());
}

TEST_F(JournalTest, SnapshotWriteIsAtomicUnderInjectedIoFailure) {
  Journal journal({dir});
  journal.append(request_record(3, 1000));
  journal.write_snapshot(sample_snapshot());

  // Fault each guarded site in turn: write, fsync, rename. Whichever step
  // dies, the previous snapshot must stay intact and loadable.
  for (std::uint64_t countdown = 1; countdown <= 3; ++countdown) {
    SnapshotData next = sample_snapshot();
    next.last_seq = 100 + countdown;
    fault::arm_io_failure(countdown);
    EXPECT_THROW(write_snapshot_file(dir, next, true), Error);
    fault::disarm_io_failure();
    const std::optional<SnapshotData> loaded = read_snapshot(dir);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->last_seq, 42u) << "countdown " << countdown;
  }
}

TEST_F(JournalTest, CorruptSnapshotThrowsOnRead) {
  Journal journal({dir});
  journal.write_snapshot(sample_snapshot());
  std::fstream f(snapshot_path(dir),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(24);
  char byte = 0;
  f.seekg(24);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  f.seekp(24);
  f.write(&byte, 1);
  f.close();
  EXPECT_THROW(read_snapshot(dir), Error);
}

TEST_F(JournalTest, UserCheckpointsRoundTripAndReportAbsence) {
  EXPECT_TRUE(read_user_checkpoint(dir, 5).empty());
  fs::create_directories(dir);
  const std::string blob = "not a real checkpoint, any bytes round-trip";
  write_user_checkpoint(dir, 5, blob, false);
  EXPECT_EQ(read_user_checkpoint(dir, 5), blob);
  EXPECT_TRUE(read_user_checkpoint(dir, 6).empty());
}

TEST_F(JournalTest, StateExistsAfterAnyDurableArtifact) {
  EXPECT_FALSE(journal_state_exists(dir));
  { Journal journal({dir}); }
  EXPECT_TRUE(journal_state_exists(dir));
}

// -- Format versioning (other-version refusal, unknown kinds) ----------------

/// CRC-frame a payload exactly like Journal::append does.
std::string framed(const std::string& payload) {
  bytes::Writer w;
  const std::size_t at = bytes::begin_record(w);
  w.raw(payload);
  bytes::end_record(w, at);
  return w.take();
}

/// The 16-byte log header an arbitrary-version writer would emit.
std::string log_header(std::uint64_t version) {
  bytes::Writer w;
  w.raw("CLRWAL");
  w.u8(static_cast<std::uint8_t>('0' + (version / 10) % 10));
  w.u8(static_cast<std::uint8_t>('0' + version % 10));
  w.u32(static_cast<std::uint32_t>(version));
  w.u32(0);
  return w.take();
}

/// A record payload from its u64 fields.
std::string u64_payload(std::initializer_list<std::uint64_t> fields) {
  bytes::Writer w;
  for (const std::uint64_t v : fields) w.u64(v);
  return w.take();
}

TEST_F(JournalTest, AdaptationRecordKindsRoundTrip) {
  std::vector<JournalRecord> written;
  {
    JournalRecord r;
    r.type = RecordType::kDriftTick;
    r.user_id = 7;
    r.drifting = true;
    written.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kReassessObs;
    r.user_id = 7;
    r.point = {1.25, -0.5};
    written.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kReassign;
    r.user_id = 7;
    r.cluster = 3;
    written.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kShadowTick;
    r.user_id = 7;
    r.shadow_won = true;
    written.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kPromote;
    r.user_id = 7;
    r.cluster = 3;
    written.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kDemote;
    r.user_id = 9;
    written.push_back(r);
  }
  {
    Journal journal({dir});
    for (const JournalRecord& r : written) EXPECT_GT(journal.append(r), 0u);
  }
  const JournalReadResult read = read_journal(dir);
  EXPECT_TRUE(read.header_error.empty());
  ASSERT_EQ(read.records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    const JournalRecord& a = written[i];
    const JournalRecord& b = read.records[i];
    EXPECT_EQ(b.type, a.type) << "record " << i;
    EXPECT_EQ(b.user_id, a.user_id) << "record " << i;
    EXPECT_EQ(b.drifting, a.drifting) << "record " << i;
    EXPECT_EQ(b.shadow_won, a.shadow_won) << "record " << i;
    EXPECT_EQ(b.cluster, a.cluster) << "record " << i;
    EXPECT_EQ(b.point, a.point) << "record " << i;
  }
}

TEST_F(JournalTest, RefusesFutureFormatVersionsAtTheHeader) {
  // A v3 writer may have changed the framing itself, so a v2 reader must
  // refuse the whole file with a versioned error.
  bytes::Writer p;
  p.u64(1);
  p.u64(static_cast<std::uint64_t>(RecordType::kRequest));
  p.u64(7);
  p.u64(1000);
  p.f64(1.0);
  fs::create_directories(dir);
  {
    std::ofstream os(journal_log_path(dir), std::ios::binary);
    const std::string bytes = log_header(3) + framed(p.take());
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const JournalReadResult read = read_journal(dir);
  EXPECT_FALSE(read.missing);
  EXPECT_TRUE(read.records.empty());
  EXPECT_EQ(read.tail_bytes_dropped, fs::file_size(journal_log_path(dir)));
  EXPECT_NE(read.header_error.find("format version 3"), std::string::npos)
      << read.header_error;
  EXPECT_NE(read.header_error.find("supports v2"), std::string::npos)
      << read.header_error;
}

TEST_F(JournalTest, UnknownKindRecordsSurfaceAsSentinelsAndReadingContinues) {
  // A CRC-intact record of a kind 99 (hypothetically written by a newer
  // minor revision that kept the framing): the reader must surface it as
  // kUnknown with diagnostics and keep trusting the records after it —
  // corruption stops the replay, an unknown kind only quarantines a session.
  std::size_t first_bytes = 0;
  {
    Journal journal({dir});
    first_bytes = journal.append(request_record(7, 1000));
  }
  // seq, a kind this reader has never heard of, user_id (the stable prefix
  // across versions), then opaque payload bytes.
  const std::string unknown = u64_payload({2, 99, 42, 0xFEEDFACE});
  const std::string after = u64_payload(
      {3, static_cast<std::uint64_t>(RecordType::kPredict), 8, 5000});
  {
    std::ofstream os(journal_log_path(dir),
                     std::ios::binary | std::ios::app);
    const std::string bytes = framed(unknown) + framed(after);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const JournalReadResult read = read_journal(dir);
  EXPECT_TRUE(read.header_error.empty());
  EXPECT_EQ(read.tail_bytes_dropped, 0u);
  ASSERT_EQ(read.records.size(), 3u);
  EXPECT_EQ(read.records[0].type, RecordType::kRequest);
  const JournalRecord& u = read.records[1];
  EXPECT_EQ(u.type, RecordType::kUnknown);
  EXPECT_EQ(u.raw_kind, 99u);
  EXPECT_EQ(u.user_id, 42u);  // Recovery quarantines exactly this session.
  EXPECT_EQ(u.file_offset, 16u + first_bytes);
  EXPECT_EQ(read.records[2].type, RecordType::kPredict);
  EXPECT_EQ(read.records[2].user_id, 8u);
}

TEST_F(JournalTest, SnapshotRoundTripsAdaptationState) {
  SnapshotData snap = sample_snapshot();
  snap.counters.drift_ticks = 40;
  snap.counters.drift_detected = 2;
  snap.counters.reassessments = 2;
  snap.counters.drift_false_alarms = 1;
  snap.counters.shadow_ticks = 5;
  snap.counters.promotions = 1;
  snap.counters.demotions = 0;
  SessionImage& img = snap.sessions[0];
  img.state = SessionState::kShadowing;
  img.saved_state = SessionState::kShadowing;
  img.reassess_from = SessionState::kPersonalized;
  img.drift_streak = 0;
  img.candidate_cluster = 2;
  img.shadow_wins = 3;
  img.shadow_seen = 5;
  Journal journal({dir});
  journal.write_snapshot(snap);

  const std::optional<SnapshotData> loaded = read_snapshot(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->counters.drift_ticks, 40u);
  EXPECT_EQ(loaded->counters.drift_detected, 2u);
  EXPECT_EQ(loaded->counters.reassessments, 2u);
  EXPECT_EQ(loaded->counters.drift_false_alarms, 1u);
  EXPECT_EQ(loaded->counters.shadow_ticks, 5u);
  EXPECT_EQ(loaded->counters.promotions, 1u);
  ASSERT_EQ(loaded->sessions.size(), 1u);
  const SessionImage& got = loaded->sessions[0];
  EXPECT_EQ(got.state, SessionState::kShadowing);
  EXPECT_EQ(got.reassess_from, SessionState::kPersonalized);
  EXPECT_EQ(got.candidate_cluster, 2u);
  EXPECT_EQ(got.shadow_wins, 3u);
  EXPECT_EQ(got.shadow_seen, 5u);
}

}  // namespace
}  // namespace clear::serve
