// CLEAR-Serve: multi-user session & dynamic-batching inference server
// (DESIGN.md §12).
//
// The server replays a request stream on a *virtual clock* — every decision
// (batch composition, load shedding, fine-tune trigger) is driven by request
// arrival timestamps, never the wall clock or the thread count. Combined
// with the deterministic parallel runtime executing released batches, the
// same request stream produces bit-identical per-user predictions at any
// --threads setting; wall time only shows up in the observability layer.
// A wire front end may also advance() the clock from a timer: that moves
// batch boundaries, never what a row is answered (DESIGN.md §14).
//
// Per request, in order: session lookup/admission → commit of the user's
// finished fine-tune → signal sanitization → normalization → quality
// tracking (may degrade/recover the session) → cold-start cluster
// assignment from buffered unlabeled windows → labelled buffering (a full
// buffer starts a fine-tune on the trainer thread) → routing to a (model,
// precision) batch key → micro-batcher admission (or an addressed shed
// error).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clear/config.hpp"
#include "clear/pipeline.hpp"
#include "serve/batcher.hpp"
#include "serve/cache.hpp"
#include "serve/journal.hpp"
#include "serve/recovery.hpp"
#include "serve/session.hpp"
#include "serve/trainer.hpp"

namespace clear {
class Error;
}

namespace clear::serve {

/// Everything the server needs from the cloud stage: routing metadata plus
/// lazy access to checkpoint blobs. From a live pipeline the blobs are
/// captured eagerly; from an artifact directory they stream off disk on
/// demand through the checkpoint cache.
struct ModelSource {
  core::ClearConfig config;
  features::FeatureNormalizer normalizer;
  cluster::GlobalClusteringResult clustering;
  std::function<std::string(std::size_t)> cluster_blob;
  std::function<std::string()> general_blob;

  std::size_t n_clusters() const { return clustering.clusters.size(); }

  static ModelSource from_pipeline(core::ClearPipeline& pipeline);
  static ModelSource from_artifacts(const std::string& directory);
};

/// One inference request: a raw (unnormalized) feature map from a user's
/// wearable, optionally labelled (labelled requests feed personalization).
struct ServeRequest {
  std::uint64_t user_id = 0;
  std::uint64_t request_id = 0;  ///< Unique per user.
  std::uint64_t arrival_us = 0;  ///< Virtual arrival time (nondecreasing).
  Tensor map;                    ///< [F, W], unnormalized.
  double quality = 1.0;          ///< Upstream signal-quality estimate [0,1].
  std::optional<int> label;      ///< Ground truth when the user reported it.
};

struct ServeResult {
  enum class Status { kOk, kShed };

  std::uint64_t user_id = 0;
  std::uint64_t request_id = 0;
  Status status = Status::kOk;
  std::string error;  ///< Addressed shed/failure reason (kShed only).

  int predicted = -1;             ///< 1 = fear, 0 = non-fear.
  float fear_probability = 0.0f;  ///< Softmax probability of class 1.
  BatchKey route;                 ///< Engine that served the request.
  SessionState session_state = SessionState::kCold;  ///< At completion.
  bool degraded = false;
  std::size_t batch_rows = 0;    ///< Size of the batch this rode in.
  std::uint64_t arrival_us = 0;
  std::uint64_t exec_us = 0;     ///< Virtual batch execution time.
};

struct ServeConfig {
  BatchPolicy batch;
  SessionPolicy session;
  std::size_t cache_budget_bytes = 4u << 20;
  std::size_t max_sessions = 4096;
  /// Users cycle through these (user_id % size). int8 requires
  /// calibration_maps.
  std::vector<edge::Precision> precisions{edge::Precision::kFp32};
  /// Normalized maps for int8 activation calibration.
  std::vector<Tensor> calibration_maps;
  /// Durability: write-ahead session journal. An empty directory disables
  /// journaling; see open_journal()/recover().
  JournalConfig journal;
  /// Persist personal checkpoints as deltas against their cluster (or
  /// general) base whenever that is smaller (src/serve/delta.hpp;
  /// docs/FORMATS.md). Loading sniffs the stored format, so flipping this
  /// only changes new writes — legacy full checkpoints keep loading either
  /// way, and rewrite_user_checkpoints() migrates a directory in place.
  bool delta_checkpoints = true;
};

/// Deterministic run counters (plain values, independent of CLEAR_OBS).
struct ServeCounters {
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t assignments = 0;
  std::size_t finetunes = 0;
  std::size_t finetune_failures = 0;
  std::size_t sanitized = 0;  ///< Requests that needed gap-filling.
  std::size_t degraded = 0;   ///< Sessions entering DEGRADED.
  std::size_t recovered = 0;  ///< Sessions recovering from DEGRADED.
  // Online adaptation (all zero unless session.drift_after > 0).
  std::size_t drift_ticks = 0;        ///< Windows the drift monitor scored.
  std::size_t drift_detected = 0;     ///< Sessions entering RE_ASSESSING.
  std::size_t reassessments = 0;      ///< Re-assessment CA verdicts.
  std::size_t drift_false_alarms = 0; ///< Verdicts naming the incumbent.
  std::size_t shadow_ticks = 0;       ///< Shadow windows scored.
  std::size_t promotions = 0;         ///< Candidates promoted.
  std::size_t demotions = 0;          ///< Shadows demoted to the incumbent.
  std::size_t batches = 0;
  std::size_t rows = 0;
  std::size_t max_batch_rows = 0;
  // Journal health (zero when journaling is disabled).
  std::size_t journal_records = 0;
  std::size_t journal_bytes = 0;
  std::size_t journal_snapshots = 0;
  std::size_t journal_ckpts = 0;  ///< Personal checkpoints persisted.
  /// Journal/snapshot write failures. Durability degrades (journaling shuts
  /// off after the first); serving never does.
  std::size_t journal_io_errors = 0;
  // Delta checkpoint codec (zero when delta_checkpoints is off and no
  // delta-stored blobs are ever loaded).
  std::size_t delta_encoded = 0;         ///< Personal blobs stored as deltas.
  std::size_t delta_full_fallbacks = 0;  ///< Encodes that stayed full-size.
  std::size_t delta_loads = 0;     ///< Delta blobs decoded into engines.
  std::size_t delta_bytes_saved = 0;  ///< Sum of full-minus-delta bytes.
};

class Server {
 public:
  Server(ModelSource source, ServeConfig config);

  /// Feed one request. Arrival times must be nondecreasing across calls.
  /// A fine-tune the user started earlier commits first (waiting for the
  /// trainer if it is still running); then time advancing releases due
  /// batches before the request is processed.
  void submit(ServeRequest request);

  /// Commit every outstanding fine-tune, then flush every pending batch
  /// (virtual time runs to the last deadline).
  void drain();

  /// True while `user_id` has a fine-tune still running on the trainer
  /// thread, so that a submit() for the user would wait for it. A front end
  /// holds the user's frames until it turns false (trainer_fd()).
  bool would_block(std::uint64_t user_id) const;
  /// Readable after a fine-tune finishes on the trainer thread. An event
  /// loop polls it, calls clear_trainer_wake(), and re-checks would_block().
  int trainer_fd() const { return trainer_.wake_fd(); }
  void clear_trainer_wake() { trainer_.clear_wake(); }

  /// Release every batch due at virtual time `now_us` (a full queue, or an
  /// oldest deadline at or before it) without admitting anything. A wire
  /// front end calls this from its wall-clock timer. last_arrival_us() is
  /// left alone, so a frame stamped before `now_us` is still admitted with
  /// its own stamp and starts the next batch.
  void advance(std::uint64_t now_us);

  /// Earliest pending deadline in virtual µs, UINT64_MAX when none.
  std::uint64_t next_deadline_us() const {
    return batcher_.next_deadline_us();
  }

  /// Completed results accumulated so far, in completion order (moved out).
  std::vector<ServeResult> take_results();

  /// submit() everything (sorted by arrival), drain(), and return results
  /// sorted by (user_id, request_id).
  std::vector<ServeResult> run(std::vector<ServeRequest> requests);

  // -- Durability ------------------------------------------------------------
  /// Start journaling into config.journal.directory, which must be fresh —
  /// a directory that already holds journal state is refused (recover()
  /// instead; an accidental fresh open would orphan a recoverable run).
  /// No fine-tune may be in flight (drain() first).
  void open_journal();
  /// Rebuild this (freshly constructed, never-served-on) server from
  /// config.journal.directory — snapshot restore + journal replay, personal
  /// engines re-attached from CRC-verified checkpoints — then continue
  /// journaling into a compacted log. A fine-tune that started before the
  /// crash but never committed runs again before this returns, and is
  /// journaled after the post-recovery snapshot. An empty/missing directory
  /// is a fresh start. Corruption falls back per session, never per process.
  RecoveryReport recover();
  /// Write a compacting snapshot now (no-op unless journaling). Called on
  /// graceful shutdown so restarts replay nothing.
  void snapshot_now();
  bool journaling() const { return journal_ != nullptr; }

  // -- Shard migration (src/shard checkpoint handoff) ------------------------
  /// One session frozen for a migration handoff: the snapshot-format image
  /// plus the personal fine-tuned checkpoint blob (empty when the session
  /// has none). The blob is the same bytes the fine-tune's commit persisted
  /// to user_<id>.ckpt, so a restore on the gaining shard is bit-identical.
  struct ExportedSession {
    SessionImage image;
    std::string checkpoint;
  };
  /// Freeze one session for handoff. Non-mutating; nullopt when the user
  /// has no session here. The caller must drain() first — exporting with
  /// the user's rows pending or fine-tune in flight would fork the
  /// session's history.
  std::optional<ExportedSession> export_session(std::uint64_t user_id);
  /// Drop a handed-off session (and any fine-tune it has in flight) and
  /// snapshot, so this shard's journal no longer claims it. The user's next
  /// request *here* starts COLD (the coordinator routes them elsewhere).
  void retire_session(std::uint64_t user_id);
  /// Install a migrated session. Returns false — counting
  /// serve.migration.failed, importing nothing — when the user already has
  /// a session here, the table is full, or the personal checkpoint cannot
  /// be rebuilt/persisted (real or injected migrate-IO failure); the
  /// coordinator decides whether to retry or let the user restart COLD.
  bool import_session(const SessionImage& image,
                      const std::string& checkpoint);

  /// Storage migration (docs/OPERATIONS.md runbook): re-encode every
  /// persisted personal checkpoint in the *current* storage format — delta
  /// when config.delta_checkpoints, full otherwise. Snapshots first, so no
  /// outstanding journal record still pins the old bytes' size/CRC. Files
  /// that fail to re-encode are left as they were (both formats keep
  /// loading). Returns the number of files rewritten. Requires journaling.
  std::size_t rewrite_user_checkpoints();

  const ServeConfig& config() const { return config_; }
  const ServeCounters& counters() const { return counters_; }
  /// Virtual-clock high-water mark: the latest arrival submitted so far.
  /// Front ends merging multiple connections clamp to this to satisfy the
  /// nondecreasing-arrival contract.
  std::uint64_t last_arrival_us() const { return last_arrival_us_; }
  /// Requests admitted to the batcher but not yet executed.
  std::size_t in_flight() const { return pending_.size(); }
  const CheckpointCache& cache() const { return cache_; }
  const SessionManager& sessions() const { return sessions_; }
  const ModelSource& source() const { return source_; }

 private:
  struct PendingRequest {
    ServeRequest request;  ///< map already sanitized + normalized.
    BatchKey route;
  };

  /// A personal checkpoint encoded for storage, and how: kFull when delta
  /// storage is off or nothing was encoded, kFullFallback when a delta
  /// would not have been smaller. count_encode() records the outcome.
  struct PersonalBlob {
    enum class Kind { kFull, kDelta, kFullFallback };
    std::string bytes;
    Kind kind = Kind::kFull;
    std::size_t bytes_saved = 0;  ///< Full minus delta size (kDelta only).
  };

  /// One fine-tune: inputs copied on the serving thread when it starts,
  /// outputs written by whichever thread runs it and read back by the
  /// commit once `done` is ready.
  struct FinetuneJob {
    std::uint64_t user_id = 0;
    std::size_t cluster = 0;
    edge::Precision precision = edge::Precision::kFp32;
    bool journaled = false;  ///< Encode the checkpoint for storage.
    std::vector<LabelledMap> labelled;
    std::unique_ptr<edge::EdgeEngine> engine;  ///< Null: no usable base.
    PersonalBlob blob;
    std::future<void> done;

    bool running() const {
      return done.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready;
    }
  };

  void execute(std::vector<Batch> batches);
  BatchKey route_for(const Session& session) const;
  /// Drift monitor (session.drift_after > 0 only): score the request's
  /// window against the clustering, drive the RE_ASSESSING/SHADOWING state
  /// machine, and journal every verdict. Runs on the serial submit path.
  void drift_monitor(Session& session, const Tensor& normalized_map);
  /// `admitted` is false only for table-full sheds, where the request was
  /// turned away before its kRequest record was journaled — the kShed
  /// record then carries the request count for replay.
  void shed(const ServeRequest& request, const BatchKey& route,
            Session* session, const std::string& why, bool admitted = true);
  /// Enter FINE_TUNING and post a job on the session's labelled buffer to
  /// the trainer thread.
  void start_finetune(Session& session);
  /// The job's work: load the cluster (else general) base, fine-tune,
  /// calibrate int8, encode the checkpoint. Touches no counter and writes
  /// no file, so it can run on the trainer thread.
  void run_finetune(FinetuneJob& job) const;
  /// Install the session's finished fine-tune (waiting for it if it is
  /// still running), count it, and persist it: user_<id>.ckpt, then the
  /// kFinetune record.
  void commit_finetune(Session& session);
  /// Engine from checkpoint bytes (a delta-stored blob is reconstructed
  /// against its base first), its int8 activations not yet calibrated.
  std::unique_ptr<edge::EdgeEngine> load_engine(const std::string& blob,
                                                edge::Precision precision);
  /// load_engine(), ready to serve: an int8 engine installs `scales` when
  /// given (the cache's, from an earlier build of the same blob) and
  /// calibrates on config.calibration_maps otherwise.
  std::unique_ptr<edge::EdgeEngine> build_engine(
      const std::string& blob, edge::Precision precision,
      const CheckpointCache::Scales* scales = nullptr);
  /// The bytes to persist for a freshly fine-tuned personal checkpoint:
  /// the delta encoding when enabled and smaller, else the full blob.
  /// Deterministic, so export_session() reproduces exactly what the
  /// fine-tune's commit stored.
  PersonalBlob encode_personal_blob(std::size_t cluster,
                                    const std::string& full_blob) const;
  /// Record an encode's outcome in the serve.delta.* counters.
  void count_encode(const PersonalBlob& blob);
  /// Append one record. Never throws: a journal failure warns, counts
  /// serve.journal.io_errors, and disables journaling — the serving path
  /// must survive a full disk.
  void journal_append(JournalRecord record);
  /// Compact (snapshot + truncate) when due. Called only at quiescent
  /// points — after submit()/execute() fully applied every appended
  /// record's effects — never from inside journal_append, where a snapshot
  /// would stamp a half-applied record as covered and replay would skip it.
  void maybe_compact();
  void journal_disable(const Error& e, const char* what);
  SnapshotData make_snapshot(std::uint64_t last_seq) const;

  ModelSource source_;
  ServeConfig config_;
  bool has_general_ = false;
  std::vector<const Tensor*> calibration_ptrs_;

  MicroBatcher batcher_;
  SessionManager sessions_;
  CheckpointCache cache_;

  std::unique_ptr<Journal> journal_;  ///< Null: journaling off/failed.
  /// Personal engines displaced by a promotion while one of their batches
  /// was still pending: the batch executes on the engine that was serving
  /// when it was admitted. Dropped once the owner has no pending personal
  /// rows (see execute()).
  std::map<std::uint64_t, std::unique_ptr<edge::EdgeEngine>>
      retired_personal_;
  std::map<std::size_t, PendingRequest> pending_;  ///< By batcher slot id.
  std::size_t next_slot_ = 0;
  std::uint64_t last_arrival_us_ = 0;
  std::vector<ServeResult> completed_;
  ServeCounters counters_;
  /// Sessions currently mid-adaptation (RE_ASSESSING/SHADOWING, live or
  /// frozen under DEGRADED); feeds the serve.drift.adapting gauge.
  std::size_t drift_active_ = 0;
  /// Fine-tunes started and not yet committed, one per FINE_TUNING session.
  std::map<std::uint64_t, std::shared_ptr<FinetuneJob>> jobs_;
  /// Last member: destroyed first, so a running job never outlives the
  /// members it reads.
  TrainerThread trainer_;
};

}  // namespace clear::serve
