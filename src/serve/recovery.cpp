// Crash recovery by deterministic replay (see recovery.hpp).
//
// Invariants this file leans on:
//   * The journal records *outcomes* (the CA verdict, the checkpoint the
//     fine-tune produced), so replay touches no cluster math and no
//     training — it re-applies each mutation with the same Session calls
//     the live path used, in the same order, which is what makes the
//     restored table bit-identical. The one exception is a fine-tune that
//     started but never committed: its trigger's kLabelled record is in the
//     log and its kFinetune record is not, so the session comes back
//     ASSIGNED with a full labelled buffer, and recover() runs that
//     fine-tune again (it is a pure function of the buffer) before it
//     returns.
//   * Records at or below the snapshot's sequence number are already folded
//     into it (they only exist when a crash landed between snapshot commit
//     and log truncation) and are skipped silently.
//   * Failures quarantine the session a record names, never the process.
//     A session whose only damage is its personal checkpoint is demoted to
//     ASSIGNED instead of erased — its history survives, its engine is
//     rebuilt from the cluster model on the next fine-tune or lost for
//     good, but it never silently serves wrong weights.
#include "serve/recovery.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/obs.hpp"
#include "serve/server.hpp"

namespace clear::serve {

std::string RecoveryReport::str() const {
  std::ostringstream os;
  os << "recovery: snapshot "
     << (snapshot_corrupt ? "CORRUPT" : snapshot_loaded ? "loaded" : "absent");
  if (snapshot_loaded) os << " (" << snapshot_sessions << " sessions)";
  os << "\n  journal: " << records_replayed << " records replayed, "
     << records_skipped << " skipped, " << tail_bytes_dropped
     << " torn tail bytes dropped";
  os << "\n  sessions: " << sessions << " restored, " << personalized << "/"
     << personalized_expected << " personalized re-attached, "
     << session_fallbacks << " fell back";
  os << "\n  fine-tunes: " << finetunes_resumed
     << " interrupted fine-tunes run again";
  os << "\n  adaptation: " << reassessing << " re-assessing, " << shadowing
     << " shadowing restored, " << unknown_kind_records
     << " unknown-kind records";
  os << "\n  result: " << (clean() ? "CLEAN" : "DEGRADED") << "\n";
  return os.str();
}

RecoveryReport Server::recover() {
  CLEAR_CHECK_MSG(!config_.journal.directory.empty(),
                  "recover requires a configured journal directory");
  CLEAR_CHECK_MSG(!journal_, "recover must run before journaling starts");
  CLEAR_CHECK_MSG(counters_.requests == 0 && sessions_.size() == 0,
                  "recover requires a freshly constructed server");
  const std::string& dir = config_.journal.directory;
  RecoveryReport report;
  CLEAR_OBS_SPAN("serve.recovery.replay");

  // 1. Snapshot: the bulk of the state, one image per session.
  SnapshotData snap;
  try {
    if (std::optional<SnapshotData> loaded = read_snapshot(dir)) {
      snap = std::move(*loaded);
      report.snapshot_loaded = true;
    }
  } catch (const Error& e) {
    // Journal-only recovery: with the snapshot gone there is no way to
    // prove any journaled user had no pre-snapshot history, so the replay
    // loop below quarantines every session it sees rather than recreating
    // one COLD over lost state.
    report.snapshot_corrupt = true;
    CLEAR_WARN("recovery: snapshot unusable (" << e.what()
                                               << "); continuing journal-only");
  }

  std::set<std::uint64_t> quarantined;
  const auto quarantine = [&](std::uint64_t user, const std::string& why) {
    if (!quarantined.insert(user).second) return;
    ++report.session_fallbacks;
    sessions_.erase(user);
    CLEAR_WARN("recovery: user " << user << ": " << why
                                 << "; session quarantined (restarts COLD on "
                                    "next contact)");
  };
  // Softer than quarantine, and counted separately: the session survives
  // with its history, only the personalization is lost — which the report
  // surfaces as personalized < personalized_expected (never CLEAN).
  const auto demote_finetune = [&](std::uint64_t user, const Error& e) {
    CLEAR_WARN("recovery: user " << user << ": personal checkpoint unusable ("
                                 << e.what()
                                 << "); demoting PERSONALIZED -> ASSIGNED");
  };

  if (report.snapshot_loaded) {
    report.snapshot_sessions = snap.sessions.size();
    last_arrival_us_ = snap.last_arrival_us;
    counters_.requests = snap.counters.requests;
    counters_.ok = snap.counters.ok;
    counters_.shed = snap.counters.shed;
    counters_.assignments = snap.counters.assignments;
    counters_.finetunes = snap.counters.finetunes;
    counters_.finetune_failures = snap.counters.finetune_failures;
    counters_.sanitized = snap.counters.sanitized;
    counters_.degraded = snap.counters.degraded;
    counters_.recovered = snap.counters.recovered;
    counters_.drift_ticks = snap.counters.drift_ticks;
    counters_.drift_detected = snap.counters.drift_detected;
    counters_.reassessments = snap.counters.reassessments;
    counters_.drift_false_alarms = snap.counters.drift_false_alarms;
    counters_.shadow_ticks = snap.counters.shadow_ticks;
    counters_.promotions = snap.counters.promotions;
    counters_.demotions = snap.counters.demotions;
    for (const SessionImage& original : snap.sessions) {
      SessionImage image = original;
      std::unique_ptr<edge::EdgeEngine> engine;
      if (image.has_personal) {
        ++report.personalized_expected;
        try {
          const std::string blob = read_user_checkpoint(dir, image.user_id);
          CLEAR_CHECK_MSG(!blob.empty(), "personal checkpoint missing");
          engine = build_engine(blob, sessions_.precision_for(image.user_id));
        } catch (const Error& e) {
          // Demote, don't erase: the state machine survives, only the
          // engine is lost. The session serves its cluster model again and
          // may fine-tune afresh from future labelled requests.
          demote_finetune(image.user_id, e);
          image.has_personal = false;
          if (image.state == SessionState::kPersonalized)
            image.state = SessionState::kAssigned;
          if (image.saved_state == SessionState::kPersonalized)
            image.saved_state = SessionState::kAssigned;
          // A session frozen mid-adaptation would otherwise demote back
          // into PERSONALIZED with no engine behind it.
          if (image.reassess_from == SessionState::kPersonalized)
            image.reassess_from = SessionState::kAssigned;
        }
      }
      try {
        Session* restored = sessions_.restore(image, std::move(engine));
        CLEAR_CHECK_MSG(restored, "session table full during recovery");
      } catch (const Error& e) {
        quarantine(image.user_id, e.what());
      }
    }
  }

  // 2. Replay journal records past the snapshot, oldest first.
  const auto find_session = [&](std::uint64_t user) -> Session& {
    Session* s = sessions_.find(user);
    CLEAR_CHECK_MSG(s != nullptr, "record for an unknown session");
    return *s;
  };
  const auto apply = [&](const JournalRecord& rec) {
    switch (rec.type) {
      case RecordType::kRequest: {
        Session* s = sessions_.get_or_create(rec.user_id);
        CLEAR_CHECK_MSG(s != nullptr, "session table full during replay");
        ++counters_.requests;
        ++s->requests;
        if (s->requests == 1) s->first_arrival_us = rec.time_us;
        switch (s->note_quality(rec.quality)) {
          case Session::QualityEvent::kDegraded:
            ++counters_.degraded;
            break;
          case Session::QualityEvent::kRecovered:
            ++counters_.recovered;
            break;
          case Session::QualityEvent::kNone:
            break;
        }
        last_arrival_us_ = std::max(last_arrival_us_, rec.time_us);
        break;
      }
      case RecordType::kObservation:
        find_session(rec.user_id).add_observation(rec.point);
        break;
      case RecordType::kAssign:
        find_session(rec.user_id)
            .set_assignment(static_cast<std::size_t>(rec.cluster));
        ++counters_.assignments;
        break;
      case RecordType::kLabelled:
        find_session(rec.user_id)
            .add_labelled(rec.map, static_cast<int>(rec.label));
        break;
      case RecordType::kFinetune: {
        Session& s = find_session(rec.user_id);
        ++report.personalized_expected;
        std::unique_ptr<edge::EdgeEngine> engine;
        try {
          const std::string blob = read_user_checkpoint(dir, rec.user_id);
          CLEAR_CHECK_MSG(!blob.empty(), "personal checkpoint missing");
          CLEAR_CHECK_MSG(
              blob.size() == rec.ckpt_bytes && crc32(blob) == rec.ckpt_crc,
              "personal checkpoint does not match its journal record");
          engine = build_engine(blob, s.precision());
        } catch (const Error& e) {
          // Demote: keep the session's history, drop only the fine-tune.
          // The on-disk checkpoint is known-bad, so retries stay off.
          demote_finetune(rec.user_id, e);
          ++counters_.finetune_failures;
          s.begin_finetune();
          s.abort_finetune();
          break;
        }
        s.begin_finetune();
        s.set_personal_engine(std::move(engine));
        ++counters_.finetunes;
        break;
      }
      case RecordType::kFinetuneAbort: {
        Session& s = find_session(rec.user_id);
        ++counters_.finetune_failures;
        s.begin_finetune();
        s.abort_finetune();
        break;
      }
      case RecordType::kShed: {
        // Table-full sheds were turned away before admission journaled a
        // kRequest, so the request count rides on this record; they also
        // name no session, so only charged sheds touch the table.
        if (rec.shed_unadmitted) ++counters_.requests;
        if (rec.shed_charged) ++find_session(rec.user_id).shed;
        ++counters_.shed;
        break;
      }
      case RecordType::kPredict: {
        Session& s = find_session(rec.user_id);
        ++s.predictions;
        if (!s.first_prediction_us) s.first_prediction_us = rec.time_us;
        ++counters_.ok;
        break;
      }
      // Online adaptation: replay re-applies each recorded verdict with the
      // same Session mutators drift_monitor used, in the same order.
      case RecordType::kDriftTick: {
        Session& s = find_session(rec.user_id);
        ++counters_.drift_ticks;
        if (s.drift_tick(rec.drifting) == Session::DriftEvent::kTriggered)
          ++counters_.drift_detected;
        break;
      }
      case RecordType::kReassessObs:
        find_session(rec.user_id).add_reassess_observation(rec.point);
        break;
      case RecordType::kReassign: {
        Session& s = find_session(rec.user_id);
        ++counters_.reassessments;
        if (!s.reassess_verdict(static_cast<std::size_t>(rec.cluster)))
          ++counters_.drift_false_alarms;
        break;
      }
      case RecordType::kShadowTick:
        ++counters_.shadow_ticks;
        find_session(rec.user_id).shadow_tick(rec.shadow_won);
        break;
      case RecordType::kPromote: {
        Session& s = find_session(rec.user_id);
        // No batches are pending during replay, so the displaced personal
        // engine (if any) can be dropped outright.
        s.promote_to_candidate();
        ++counters_.promotions;
        break;
      }
      case RecordType::kDemote:
        find_session(rec.user_id).demote_to_incumbent();
        ++counters_.demotions;
        break;
      case RecordType::kUnknown:
        // Handled before apply() in the replay loop; unreachable here.
        CLEAR_CHECK_MSG(false, "unknown-kind record reached apply()");
        break;
    }
  };

  const JournalReadResult wal = read_journal(dir);
  report.tail_bytes_dropped = wal.tail_bytes_dropped;
  if (!wal.header_error.empty())
    CLEAR_WARN("recovery: " << wal.header_error);
  std::uint64_t max_seq = snap.last_seq;
  for (const JournalRecord& rec : wal.records) {
    max_seq = std::max(max_seq, rec.seq);
    if (rec.seq <= snap.last_seq) continue;  // Folded into the snapshot.
    if (quarantined.count(rec.user_id) != 0) {
      ++report.records_skipped;
      continue;
    }
    if (rec.type == RecordType::kUnknown) {
      // A CRC-intact record of a kind this binary does not know: a newer
      // format wrote it, and replaying *around* it would rebuild the
      // session wrong. Quarantine just that session; the rest of the
      // journal stays trusted.
      ++report.unknown_kind_records;
      ++report.records_skipped;
      std::ostringstream why;
      why << "journal format v" << kJournalFormatVersion
          << " reader: record of unknown kind " << rec.raw_kind
          << " at journal.log offset " << rec.file_offset
          << " (written by a newer format?)";
      quarantine(rec.user_id, why.str());
      continue;
    }
    if (report.snapshot_corrupt && sessions_.find(rec.user_id) == nullptr) {
      // A post-snapshot record cannot distinguish a genuinely new user
      // from one whose pre-snapshot history died with the snapshot;
      // get_or_create would silently rebuild the latter COLD and later
      // records (observations, sheds) would apply cleanly on top of the
      // wrong state. Quarantine instead — the user restarts COLD on next
      // contact, loudly.
      ++report.records_skipped;
      quarantine(rec.user_id, "first seen via replay after a corrupt "
                              "snapshot; pre-snapshot history cannot be "
                              "ruled out");
      continue;
    }
    try {
      apply(rec);
      ++report.records_replayed;
    } catch (const Error& e) {
      ++report.records_skipped;
      quarantine(rec.user_id, std::string("replaying a ") +
                                  record_type_name(rec.type) +
                                  " record failed (" + e.what() + ")");
    }
  }

  // 3. Tally what came back. drift_active_ is derived, not journaled:
  // recount the sessions restored mid-adaptation so the serve.drift.adapting
  // gauge resumes exactly where the crashed process left it.
  drift_active_ = 0;
  for (const Session* s : sessions_.sessions()) {
    ++report.sessions;
    if (s->has_personal_engine()) ++report.personalized;
    if (s->adapting()) {
      ++drift_active_;
      if (s->effective_state() == SessionState::kShadowing)
        ++report.shadowing;
      else
        ++report.reassessing;
    }
  }
  CLEAR_OBS_COUNT("serve.recovery.sessions", report.sessions);
  CLEAR_OBS_COUNT("serve.recovery.personalized", report.personalized);
  CLEAR_OBS_COUNT("serve.recovery.records", report.records_replayed);
  CLEAR_OBS_COUNT("serve.recovery.skipped_records", report.records_skipped);
  CLEAR_OBS_COUNT("serve.recovery.session_fallbacks",
                  report.session_fallbacks);
  CLEAR_OBS_COUNT("serve.recovery.torn_tail_bytes",
                  report.tail_bytes_dropped);

  // 4. Resume journaling. The recovered state becomes the new baseline
  // snapshot *before* the Journal constructor truncates the log — the
  // crash-safe order — and sequence numbers continue where the old run
  // stopped, so a pre-truncation crash still replays correctly.
  try {
    write_snapshot_file(dir, make_snapshot(max_seq), config_.journal.fsync);
    journal_ = std::make_unique<Journal>(config_.journal, max_seq + 1);
    ++counters_.journal_snapshots;
    CLEAR_OBS_COUNT("serve.journal.snapshots", 1);
  } catch (const Error& e) {
    journal_disable(e, "post-recovery snapshot");
  }

  // 5. Finish every fine-tune the crash interrupted, journaling each commit
  // after the baseline snapshot (which holds the session ASSIGNED with its
  // full buffer), so recovery never leaves a session mid-fine-tune.
  std::vector<std::uint64_t> interrupted;
  for (const Session* s : sessions_.sessions())
    if (s->ft_ready()) interrupted.push_back(s->user_id());
  for (const std::uint64_t user : interrupted) {
    Session& s = *sessions_.find(user);
    start_finetune(s);
    commit_finetune(s);
    ++report.finetunes_resumed;
  }
  return report;
}

}  // namespace clear::serve
