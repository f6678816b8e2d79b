// Per-user serving sessions (DESIGN.md §12).
//
// Each user connecting to the server walks the paper's cold-start protocol
// as a state machine:
//
//   COLD ── first request ──▶ ASSIGNING ── CA ready ──▶ ASSIGNED
//     ASSIGNED ── enough labelled maps ──▶ FINE_TUNING ──▶ PERSONALIZED
//
// COLD/ASSIGNING users are served by the population-general model while the
// session buffers unlabeled observations for Cluster Assignment; ASSIGNED
// users get their cluster's pre-trained model, and so do FINE_TUNING users
// while the server's trainer thread fine-tunes; PERSONALIZED users get their
// own fine-tuned engine (owned by the session), installed at the user's next
// request.
//
// DEGRADED is a parallel failure state: `degrade_after` consecutive requests
// below the signal-quality floor park the session on the general model (a
// cluster/personal model fed garbage is worse than the population prior) and
// pause CA/FT buffering; `recover_after` consecutive good requests restore
// the exact pre-degradation state.
//
// Online adaptation (DESIGN.md §16) adds two states past the one-shot
// protocol: when the drift monitor fires for `drift_after` consecutive
// windows an ASSIGNED/PERSONALIZED session enters RE_ASSESSING (re-runs CA
// on a fresh window buffer) and, if the verdict names a different cluster,
// SHADOWING (keep serving the incumbent engine while the candidate cluster
// is scored on the same windows; a strict majority promotes it, anything
// less demotes back to the incumbent). Both states keep serving the
// incumbent route throughout — adaptation never degrades a live user — and
// both freeze/thaw under DEGRADED exactly like the other states.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/kmeans.hpp"
#include "edge/engine.hpp"
#include "serve/batcher.hpp"
#include "tensor/tensor.hpp"

namespace clear::serve {

enum class SessionState {
  kCold,          ///< No data seen yet.
  kAssigning,     ///< Buffering unlabeled observations for CA.
  kAssigned,      ///< Serving the assigned cluster's model.
  kFineTuning,    ///< Labelled buffer full; personalization in progress.
  kPersonalized,  ///< Serving the user's own fine-tuned engine.
  kDegraded,      ///< Sustained bad signal; parked on the general model.
  // New states append after kDegraded: the numeric values above are baked
  // into journals and snapshots and must never shift.
  kReassessing,   ///< Drift confirmed; re-running CA on a fresh buffer.
  kShadowing,     ///< Candidate cluster under shadow evaluation.
};

const char* session_state_name(SessionState s);

struct SessionPolicy {
  std::size_t ca_windows = 6;   ///< Observations buffered before CA runs.
  std::size_t ft_maps = 4;      ///< Labelled maps buffered before fine-tune.
  bool enable_finetune = true;  ///< false: sessions stop at ASSIGNED.
  double min_quality = 0.7;     ///< Quality floor for a "good" request.
  std::size_t degrade_after = 3;  ///< Consecutive bad requests to degrade.
  std::size_t recover_after = 3;  ///< Consecutive good requests to recover.
  // -- Online adaptation (drift detection / re-assessment / shadowing) ------
  /// Consecutive drifting windows before RE_ASSESSING fires; 0 disables the
  /// drift monitor entirely (the default — adaptation is opt-in).
  std::size_t drift_after = 0;
  /// A window is "drifting" when the assigned cluster's CA score exceeds
  /// drift_ratio x the best other cluster's score (lower scores are better,
  /// so 1.0 fires as soon as any other cluster fits the window strictly
  /// better; higher values demand a wider margin).
  double drift_ratio = 1.25;
  std::size_t reassess_windows = 6;  ///< Fresh CA buffer size in RE_ASSESSING.
  std::size_t shadow_windows = 8;    ///< Verdict windows scored in SHADOWING.
};

/// One labelled (normalized) feature map buffered for fine-tuning.
struct LabelledMap {
  Tensor map;
  int label = 0;
};

/// Complete serializable session state: everything needed to rebuild the
/// session bit-identically except the personal engine itself, which the
/// recovery path re-attaches from the CRC-verified checkpoint store (the
/// image only records that one exists). Snapshots persist these; the
/// journal replays mutations on top of them.
struct SessionImage {
  std::uint64_t user_id = 0;
  SessionState state = SessionState::kCold;
  SessionState saved_state = SessionState::kCold;
  std::uint64_t bad_streak = 0;
  std::uint64_t good_streak = 0;
  std::uint64_t cluster = 0;
  std::vector<cluster::Point> observations;
  std::vector<LabelledMap> labelled;
  /// false after abort_finetune() disabled retries for this session.
  bool finetune_enabled = true;
  std::uint64_t requests = 0;
  std::uint64_t shed = 0;
  std::uint64_t predictions = 0;
  std::uint64_t first_arrival_us = 0;
  std::optional<std::uint64_t> first_prediction_us;
  /// True when a personal checkpoint backs this session on disk.
  bool has_personal = false;
  // -- Online adaptation ---------------------------------------------------
  std::uint64_t drift_streak = 0;  ///< Consecutive drifting windows seen.
  /// State the session re-enters if re-assessment turns out a false alarm
  /// or the shadow loses (ASSIGNED or PERSONALIZED).
  SessionState reassess_from = SessionState::kAssigned;
  std::uint64_t candidate_cluster = 0;  ///< Under SHADOWING.
  std::uint64_t shadow_wins = 0;        ///< Windows the candidate won.
  std::uint64_t shadow_seen = 0;        ///< Windows scored so far.
};

class Session {
 public:
  Session(std::uint64_t user_id, SessionPolicy policy,
          edge::Precision precision);

  std::uint64_t user_id() const { return user_id_; }
  edge::Precision precision() const { return precision_; }
  SessionState state() const { return state_; }
  /// The live state, looking through a DEGRADED freeze (the state the
  /// session resumes when its signal recovers).
  SessionState effective_state() const {
    return state_ == SessionState::kDegraded ? saved_state_ : state_;
  }
  bool degraded() const { return state_ == SessionState::kDegraded; }

  // -- Signal quality / degradation -----------------------------------------
  enum class QualityEvent { kNone, kDegraded, kRecovered };
  /// Track one request's quality; may flip into/out of DEGRADED.
  QualityEvent note_quality(double quality);

  // -- Cluster assignment ----------------------------------------------------
  /// Buffer one unlabeled observation (COLD/ASSIGNING only; COLD advances
  /// to ASSIGNING).
  void add_observation(cluster::Point observation);
  bool ca_ready() const;
  const std::vector<cluster::Point>& observations() const {
    return observations_;
  }
  /// Record the CA verdict and advance to ASSIGNED (drops the buffer).
  void set_assignment(std::size_t cluster);
  std::size_t cluster() const { return cluster_; }
  bool assigned() const;

  // -- Fine-tuning -----------------------------------------------------------
  /// Buffer one labelled map (ASSIGNED only; ignored when fine-tuning is
  /// disabled or the session has already personalized).
  void add_labelled(Tensor normalized_map, int label);
  bool ft_ready() const;
  const std::vector<LabelledMap>& labelled() const { return labelled_; }
  /// Enter FINE_TUNING. The server trains on its trainer thread and commits
  /// at the user's next request (or drain), serving the cluster route until
  /// then.
  void begin_finetune();
  /// Install the fine-tuned engine and advance to PERSONALIZED.
  void set_personal_engine(std::unique_ptr<edge::EdgeEngine> engine);
  edge::EdgeEngine* personal_engine() { return personal_engine_.get(); }
  bool has_personal_engine() const { return personal_engine_ != nullptr; }
  /// Hand the personal engine to the caller (the server parks it while a
  /// promotion displaces it with batches still pending on it).
  std::unique_ptr<edge::EdgeEngine> release_personal_engine() {
    return std::move(personal_engine_);
  }
  /// Roll back a failed fine-tune to ASSIGNED and stop retrying (e.g. the
  /// cluster checkpoint turned out to be unusable).
  void abort_finetune();

  // -- Online adaptation -----------------------------------------------------
  /// True in the states the drift monitor watches (ASSIGNED/PERSONALIZED).
  bool drift_monitorable() const {
    return state_ == SessionState::kAssigned ||
           state_ == SessionState::kPersonalized;
  }
  /// True while the session is mid-adaptation — live RE_ASSESSING/SHADOWING
  /// or frozen in one of them under DEGRADED.
  bool adapting() const;
  enum class DriftEvent { kNone, kTriggered };
  /// Record one monitored window's drift verdict. After `drift_after`
  /// consecutive drifting windows the session enters RE_ASSESSING with a
  /// fresh observation buffer and kTriggered is returned.
  DriftEvent drift_tick(bool drifting);
  std::size_t drift_streak() const { return drift_streak_; }
  /// Buffer one window for re-assessment (RE_ASSESSING only).
  void add_reassess_observation(cluster::Point observation);
  bool reassess_ready() const;
  /// Record the re-assessment CA verdict. The incumbent cluster again is a
  /// false alarm — the session returns to its pre-drift state and false is
  /// returned; a different cluster starts SHADOWING and returns true.
  bool reassess_verdict(std::size_t candidate);
  std::size_t candidate_cluster() const { return candidate_cluster_; }
  /// Score one shadow window (SHADOWING only): did the candidate cluster
  /// fit it strictly better than the incumbent?
  void shadow_tick(bool candidate_won);
  bool shadow_done() const;
  /// Strict majority of scored windows won by the candidate.
  bool shadow_promotes() const;
  std::size_t shadow_wins() const { return shadow_wins_; }
  std::size_t shadow_seen() const { return shadow_seen_; }
  /// Commit the shadow win: the candidate becomes the assigned cluster and
  /// the session re-enters ASSIGNED. Any personal engine (fine-tuned on the
  /// old cluster's model) and labelled buffer are dropped — the session may
  /// personalize afresh on the new cluster.
  void promote_to_candidate();
  /// Shadow lost: return to the exact pre-drift state (incumbent cluster
  /// and engine untouched).
  void demote_to_incumbent();

  // -- Durability ------------------------------------------------------------
  /// Freeze the full session state. A FINE_TUNING session images as
  /// ASSIGNED with its full labelled buffer (the fine-tune is journaled only
  /// when it commits), so FINE_TUNING never appears in an image.
  SessionImage image() const;
  /// Rebuild from an image. `engine` must be non-null exactly when
  /// `image.has_personal` — recovery demotes the image first when the
  /// backing checkpoint turned out to be unusable.
  void restore_image(const SessionImage& image,
                     std::unique_ptr<edge::EdgeEngine> engine);

  // -- Bookkeeping -----------------------------------------------------------
  std::size_t requests = 0;
  std::size_t shed = 0;
  std::size_t predictions = 0;
  std::uint64_t first_arrival_us = 0;
  /// Virtual time of the first completed prediction (time-to-first-
  /// prediction = this - first_arrival_us).
  std::optional<std::uint64_t> first_prediction_us;

 private:
  std::uint64_t user_id_;
  SessionPolicy policy_;
  edge::Precision precision_;
  SessionState state_ = SessionState::kCold;
  SessionState saved_state_ = SessionState::kCold;  ///< Restored on recovery.
  std::size_t bad_streak_ = 0;
  std::size_t good_streak_ = 0;
  std::size_t cluster_ = 0;
  std::vector<cluster::Point> observations_;
  std::vector<LabelledMap> labelled_;
  std::unique_ptr<edge::EdgeEngine> personal_engine_;
  // Online adaptation bookkeeping (journaled; restored bit-identically).
  std::size_t drift_streak_ = 0;
  SessionState reassess_from_ = SessionState::kAssigned;
  std::size_t candidate_cluster_ = 0;
  std::size_t shadow_wins_ = 0;
  std::size_t shadow_seen_ = 0;
};

class SessionManager {
 public:
  SessionManager(SessionPolicy policy,
                 std::vector<edge::Precision> precisions,
                 std::size_t max_sessions);

  /// The user's session, created on first contact. Returns nullptr when the
  /// session table is full and the user is new (admission control).
  Session* get_or_create(std::uint64_t user_id);
  Session* find(std::uint64_t user_id);
  /// Install a recovered session from its image (the user must not already
  /// have one; admission control applies as for get_or_create).
  Session* restore(const SessionImage& image,
                   std::unique_ptr<edge::EdgeEngine> engine);
  /// Drop one session (recovery quarantines corrupt ones this way; the
  /// user's next request starts a fresh COLD session).
  void erase(std::uint64_t user_id);
  /// The precision get_or_create would hand this user.
  edge::Precision precision_for(std::uint64_t user_id) const {
    return precisions_[user_id % precisions_.size()];
  }
  std::size_t size() const { return sessions_.size(); }

  /// Sessions in user-id order (deterministic reporting).
  std::vector<const Session*> sessions() const;

 private:
  SessionPolicy policy_;
  std::vector<edge::Precision> precisions_;
  std::size_t max_sessions_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
};

}  // namespace clear::serve
