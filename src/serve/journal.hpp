// Write-ahead session journal + compacting snapshots (the durability layer
// behind CLEAR-Serve crash recovery).
//
// A serving gateway's most expensive artifact is a PERSONALIZED session —
// cold-start assignment plus an on-device fine-tune over many buffered
// windows — and before this layer existed a crash discarded every one of
// them. The journal records every *session-mutating event* (admission,
// window buffering, CA assignment, fine-tune completion with a checkpoint
// reference, degrade/recover transitions, sheds, predictions) as it
// happens; recovery (src/serve/recovery.cpp) replays snapshot + journal to
// rebuild every session bit-identically. Replay applies recorded outcomes —
// it never re-runs CA math or fine-tune training, so recovery is fast and
// exact.
//
// Disk layout under the journal directory:
//
//   journal.log       append-only WAL: 16-byte header (magic "CLRWAL02" +
//                     version), then CRC-framed records
//                     `[u32 len][u32 crc][payload]` with monotonically
//                     increasing sequence numbers.
//   snapshot.snap     atomic (temp + rename) image of the whole session
//                     table, CRC-checked, stamped with the last journal
//                     sequence number it folds in.
//   user_<id>.ckpt    one fine-tuned model checkpoint per PERSONALIZED
//                     user, in the nn CRC-v2 checkpoint format, written
//                     atomically *before* its kFinetune journal record.
//
// Crash-consistency argument: records are flushed with one write() each, so
// anything acknowledged to a client is durable against SIGKILL (an fsync
// knob extends that to machine crashes). Compaction writes the snapshot
// first and truncates the log second; a crash in between leaves a snapshot
// plus stale records, which replay skips by sequence number. A torn final
// record fails its CRC and is dropped — by construction it can only be the
// tail, and its session-level effect was never acknowledged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/session.hpp"

namespace clear::serve {

/// On-disk format version this build writes ("CLRWAL02"/"CLRSNP02"), and
/// the only one its readers accept: any other is refused at the header
/// (see JournalReadResult::header_error).
inline constexpr std::uint64_t kJournalFormatVersion = 2;

struct JournalConfig {
  /// Journal directory; empty disables journaling entirely.
  std::string directory;
  /// Records appended between automatic compacting snapshots; 0 disables
  /// auto-compaction (snapshots still happen on graceful shutdown).
  std::size_t snapshot_every = 1024;
  /// fsync the log after every record: survives machine crashes, not just
  /// process kills. Off by default — write() alone survives SIGKILL.
  bool fsync = false;
};

/// One session-mutating event. Replay applies the recorded outcome with the
/// same Session mutators the live path used, in the same order.
enum class RecordType : std::uint8_t {
  /// Read-side sentinel for a CRC-intact record whose kind this reader does
  /// not know (written by a newer format). Never written; recovery
  /// quarantines the session the record names instead of distrusting the
  /// whole journal. raw_kind/file_offset carry the diagnostics.
  kUnknown = 0,
  kRequest = 1,        ///< Admission + quality tick (may degrade/recover).
  kObservation = 2,    ///< Unlabeled window buffered for CA.
  kAssign = 3,         ///< CA verdict: session -> cluster.
  kLabelled = 4,       ///< Labelled map buffered for fine-tuning.
  kFinetune = 5,       ///< Fine-tune completed; user_<id>.ckpt references.
  kFinetuneAbort = 6,  ///< Fine-tune failed; retries disabled.
  kShed = 7,           ///< Admission-control shed (see the shed_* flags).
  kPredict = 8,        ///< One completed prediction.
  // Online adaptation (format v2, "CLRWAL02"):
  kDriftTick = 9,      ///< One monitored window's drift verdict.
  kReassessObs = 10,   ///< Window buffered for re-assessment.
  kReassign = 11,      ///< Re-assessment CA verdict (candidate cluster).
  kShadowTick = 12,    ///< One shadow window scored (candidate won/lost).
  kPromote = 13,       ///< Shadow won; candidate becomes the assignment.
  kDemote = 14,        ///< Shadow lost; back to the incumbent state.
};

const char* record_type_name(RecordType t);

/// One journal record (a tagged union kept flat for simplicity; unused
/// fields stay at their defaults and cost a few bytes on disk at most).
struct JournalRecord {
  std::uint64_t seq = 0;  ///< Assigned by Journal::append.
  RecordType type = RecordType::kRequest;
  std::uint64_t user_id = 0;
  std::uint64_t time_us = 0;     ///< Arrival (kRequest) / exec (kPredict).
  double quality = 1.0;          ///< Effective quality (kRequest).
  cluster::Point point;          ///< kObservation.
  std::uint64_t cluster = 0;     ///< kAssign.
  Tensor map;                    ///< Normalized labelled map (kLabelled).
  std::int32_t label = 0;        ///< kLabelled.
  std::uint64_t ckpt_bytes = 0;  ///< Checkpoint size (kFinetune).
  std::uint32_t ckpt_crc = 0;    ///< Checkpoint CRC-32 (kFinetune).
  /// kShed: the shed was charged to a live session (++session->shed).
  bool shed_charged = false;
  /// kShed: the request was turned away before admission journaled its
  /// kRequest record (session table full), so replay counts the request
  /// here — without this the recovered requests/shed counters drift.
  bool shed_unadmitted = false;
  bool drifting = false;    ///< kDriftTick: this window counted as drifting.
  bool shadow_won = false;  ///< kShadowTick: the candidate won this window.
  // Read-side diagnostics (never serialized):
  std::uint64_t raw_kind = 0;     ///< On-disk kind byte (kUnknown records).
  std::uint64_t file_offset = 0;  ///< Frame offset of this record in the log.
};

/// The deterministic run counters a snapshot persists (the per-process
/// batching stats — batches/rows/max_batch — restart at zero on recovery).
struct SnapshotCounters {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t assignments = 0;
  std::uint64_t finetunes = 0;
  std::uint64_t finetune_failures = 0;
  std::uint64_t sanitized = 0;
  std::uint64_t degraded = 0;
  std::uint64_t recovered = 0;
  // Online adaptation.
  std::uint64_t drift_ticks = 0;
  std::uint64_t drift_detected = 0;
  std::uint64_t reassessments = 0;
  std::uint64_t drift_false_alarms = 0;
  std::uint64_t shadow_ticks = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
};

/// A full image of the session table at one journal position.
struct SnapshotData {
  /// Last journal sequence number folded into this snapshot; replay skips
  /// records at or below it.
  std::uint64_t last_seq = 0;
  std::uint64_t last_arrival_us = 0;  ///< Virtual-clock high-water mark.
  SnapshotCounters counters;
  std::vector<SessionImage> sessions;  ///< In user-id order.
};

// -- Paths ------------------------------------------------------------------

std::string journal_log_path(const std::string& directory);
std::string snapshot_path(const std::string& directory);
std::string user_checkpoint_path(const std::string& directory,
                                 std::uint64_t user_id);

/// True when the directory already holds journal state (a journal.log or a
/// snapshot.snap) — i.e. opening fresh would destroy a recoverable run.
bool journal_state_exists(const std::string& directory);

// -- Writer -----------------------------------------------------------------

class Journal {
 public:
  /// Creates the directory if needed and opens journal.log *truncated*
  /// (callers recover first; see Server::open_journal's existing-state
  /// guard). `first_seq` continues a recovered run's numbering.
  explicit Journal(JournalConfig config, std::uint64_t first_seq = 1);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Append one record (assigning it the next sequence number) and flush it
  /// to the OS with a single write(). Returns bytes appended. Throws
  /// clear::Error on real or injected IO failure; the torn-write fault
  /// persists a byte prefix first, exactly like a crash mid-write.
  std::size_t append(JournalRecord record);

  /// Compaction: atomically replace snapshot.snap with `data`, then
  /// truncate journal.log back to its header. Crash-safe in that order —
  /// stale records left by a crash between the two steps are skipped by
  /// sequence number on replay.
  void write_snapshot(const SnapshotData& data);

  /// True once `snapshot_every` records accumulated since the last
  /// compaction.
  bool due_for_snapshot() const;

  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t records_appended() const { return records_; }
  std::uint64_t bytes_appended() const { return bytes_; }
  const JournalConfig& config() const { return config_; }

 private:
  void open_truncated();

  JournalConfig config_;
  int fd_ = -1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t since_snapshot_ = 0;
};

// -- Read side (recovery and tests) -----------------------------------------

struct JournalReadResult {
  std::vector<JournalRecord> records;  ///< Every intact record, in order.
  /// Bytes discarded at the end of the log: a torn final write, a corrupt
  /// record (CRC mismatch), or — when the header itself is bad — the whole
  /// file. Recovery reports these; nothing after the first bad byte is
  /// trusted.
  std::uint64_t tail_bytes_dropped = 0;
  bool missing = false;  ///< No journal.log at all (a fresh directory).
  /// Non-empty when the header names a format version other than
  /// kJournalFormatVersion: the whole file is untrusted. Distinct from
  /// kUnknown records, which quarantine one session inside the supported
  /// version.
  std::string header_error;
};

/// Read every intact record. Never throws for corruption — a damaged tail
/// is an expected crash artifact, reported in the result instead. Accepts
/// "CLRWAL02" logs only; CRC-intact records with an unrecognized kind come
/// back as RecordType::kUnknown (raw_kind + file_offset set) and reading
/// continues past them.
JournalReadResult read_journal(const std::string& directory);

/// nullopt when snapshot.snap does not exist; throws clear::Error when it
/// exists but fails validation (the caller decides whether to continue
/// journal-only). Accepts "CLRSNP02" snapshots only.
std::optional<SnapshotData> read_snapshot(const std::string& directory);

/// Atomically write a snapshot file without a Journal instance (recovery
/// persists its restored state this way *before* truncating the log).
void write_snapshot_file(const std::string& directory,
                         const SnapshotData& data, bool do_fsync);

/// Atomically write one user's fine-tuned checkpoint blob (an nn
/// checkpoint or delta artifact; either carries its own CRC).
void write_user_checkpoint(const std::string& directory,
                           std::uint64_t user_id, const std::string& blob,
                           bool do_fsync);

/// The stored blob, or an empty string when absent.
std::string read_user_checkpoint(const std::string& directory,
                                 std::uint64_t user_id);

// -- Session-image codec (shard migration) ----------------------------------

/// Serialize one session image in the current snapshot format (the exact
/// bytes a snapshot embeds per session). This is the payload a shard
/// migration moves over the wire; the carrier frame supplies CRC framing,
/// like the snapshot file does on disk.
std::string encode_session_image(const SessionImage& image);

/// Parse encode_session_image bytes. Throws clear::Error on truncated or
/// trailing input — migration carriers are CRC-checked, so damage here is a
/// protocol bug, not line noise.
SessionImage decode_session_image(const std::string& bytes);

}  // namespace clear::serve
