// Crash recovery for CLEAR-Serve (the read side of serve/journal.hpp).
//
// `Server::recover()` (implemented in recovery.cpp) rebuilds a freshly
// constructed server from its journal directory: load the snapshot, replay
// every journal record past the snapshot's sequence number with the same
// Session mutators the live path used, re-attach fine-tuned engines from
// their CRC-verified checkpoints, and resume journaling into a compacted
// log. Corruption is handled *per session*: a bad record, image, or
// checkpoint quarantines only the session it names (which restarts COLD on
// next contact, or is demoted to ASSIGNED when only its personal checkpoint
// is unusable) — never the whole process.
#pragma once

#include <cstdint>
#include <string>

namespace clear::serve {

/// What recovery found and did; printed by `clear serve --recover` and
/// asserted on by the chaos gate (zero PERSONALIZED loss means
/// `personalized == personalized_expected`).
struct RecoveryReport {
  bool snapshot_loaded = false;   ///< snapshot.snap existed and verified.
  bool snapshot_corrupt = false;  ///< Existed but failed validation.
  std::uint64_t snapshot_sessions = 0;  ///< Sessions restored from it.
  std::uint64_t records_replayed = 0;
  /// Records skipped: quarantined sessions' records plus any that failed to
  /// apply (each failure also quarantines its session).
  std::uint64_t records_skipped = 0;
  std::uint64_t tail_bytes_dropped = 0;  ///< Torn/corrupt journal tail.
  /// Sessions that lost state: quarantined to COLD or demoted from
  /// PERSONALIZED to ASSIGNED. Zero on a clean recovery.
  std::uint64_t session_fallbacks = 0;
  std::uint64_t sessions = 0;      ///< Live sessions after recovery.
  /// Sessions whose fine-tuned engine is re-attached and serving.
  std::uint64_t personalized = 0;
  /// Sessions the journal/snapshot say *should* be personalized.
  std::uint64_t personalized_expected = 0;
  /// Fine-tunes that started before the crash but never committed, run
  /// again during recovery (not counted in `personalized`).
  std::uint64_t finetunes_resumed = 0;
  /// Sessions restored mid-adaptation (drift monitor; includes sessions
  /// frozen in one of these states under DEGRADED).
  std::uint64_t reassessing = 0;
  std::uint64_t shadowing = 0;
  /// Records whose kind this binary does not know (written by a newer
  /// journal format); each quarantines the session it names.
  std::uint64_t unknown_kind_records = 0;

  /// True when nothing was lost: no fallbacks, no corrupt snapshot, and
  /// every expected personalization is serving again.
  bool clean() const {
    return session_fallbacks == 0 && !snapshot_corrupt &&
           personalized == personalized_expected;
  }

  /// Multi-line human-readable summary (the recovery runbook's output).
  std::string str() const;
};

}  // namespace clear::serve
