#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <sstream>

#include "clear/artifacts.hpp"
#include "cluster/assignment.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "edge/finetune.hpp"
#include "features/feature_map.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "serve/delta.hpp"
#include "tensor/ops.hpp"

namespace clear::serve {

namespace {

/// Engine from a full checkpoint, its int8 activations not yet calibrated.
std::unique_ptr<edge::EdgeEngine> engine_from_blob(
    const nn::CnnLstmConfig& config, const std::string& blob,
    edge::Precision precision) {
  Rng rng(1);  // Weights are overwritten by the checkpoint.
  auto model = nn::build_cnn_lstm(config, rng);
  nn::load_checkpoint(blob, *model);
  edge::EngineConfig ec;
  ec.precision = precision;
  return std::make_unique<edge::EdgeEngine>(std::move(model), ec);
}

/// Gap-fill non-finite samples row by row (each feature's window series is
/// one stream, matching the device-side sanitizer). Returns the number of
/// samples repaired.
std::size_t sanitize_map(Tensor& map) {
  bool any_bad = false;
  for (const float v : map.flat())
    if (!std::isfinite(v)) {
      any_bad = true;
      break;
    }
  if (!any_bad) return 0;
  const std::size_t f = map.extent(0);
  const std::size_t w = map.extent(1);
  std::size_t filled = 0;
  std::vector<double> row(w);
  for (std::size_t i = 0; i < f; ++i) {
    bool row_bad = false;
    for (std::size_t j = 0; j < w; ++j) {
      row[j] = map.at2(i, j);
      row_bad = row_bad || !std::isfinite(row[j]);
    }
    if (!row_bad) continue;
    const fault::SanitizeStats stats =
        fault::sanitize(row, fault::GapFill::kHoldLast,
                        std::numeric_limits<double>::lowest(),
                        std::numeric_limits<double>::max());
    filled += stats.filled;
    for (std::size_t j = 0; j < w; ++j)
      map.at2(i, j) = static_cast<float>(row[j]);
  }
  return filled;
}

}  // namespace

ModelSource ModelSource::from_pipeline(core::ClearPipeline& pipeline) {
  CLEAR_CHECK_MSG(pipeline.fitted(), "serving requires a fitted pipeline");
  ModelSource source;
  source.config = pipeline.config();
  source.normalizer = pipeline.normalizer();
  source.clustering = pipeline.clustering();
  // Capture blobs eagerly: the source must outlive the pipeline.
  auto blobs = std::make_shared<std::vector<std::string>>();
  for (std::size_t k = 0; k < pipeline.n_clusters(); ++k)
    blobs->push_back(pipeline.serialize_cluster_model(k));
  auto general =
      std::make_shared<std::string>(pipeline.serialize_general_model());
  source.cluster_blob = [blobs](std::size_t k) {
    return k < blobs->size() ? (*blobs)[k] : std::string();
  };
  source.general_blob = [general]() { return *general; };
  return source;
}

ModelSource ModelSource::from_artifacts(const std::string& directory) {
  core::ArtifactMeta meta = core::load_artifact_meta(directory);
  ModelSource source;
  source.config = std::move(meta.config);
  source.normalizer = std::move(meta.normalizer);
  source.clustering = std::move(meta.clustering);
  // Blobs stream off disk on demand; the checkpoint cache bounds residency.
  source.cluster_blob = [directory](std::size_t k) {
    return core::read_cluster_checkpoint(directory, k);
  };
  source.general_blob = [directory]() {
    return core::read_general_checkpoint(directory);
  };
  return source;
}

Server::Server(ModelSource source, ServeConfig config)
    : source_(std::move(source)),
      config_(std::move(config)),
      batcher_(config_.batch),
      sessions_(config_.session, config_.precisions, config_.max_sessions),
      cache_(
          source_.cluster_blob, source_.general_blob,
          [this](const std::string& blob, edge::Precision p,
                 const CheckpointCache::Scales* scales) {
            return build_engine(blob, p, scales);
          },
          config_.cache_budget_bytes) {
  CLEAR_CHECK_MSG(source_.n_clusters() >= 1, "model source has no clusters");
  CLEAR_CHECK_MSG(source_.normalizer.fitted(),
                  "model source normalizer is not fitted");
  has_general_ = !source_.general_blob().empty();
  for (const Tensor& m : config_.calibration_maps)
    calibration_ptrs_.push_back(&m);
  for (const edge::Precision p : config_.precisions)
    CLEAR_CHECK_MSG(
        p != edge::Precision::kInt8 || !calibration_ptrs_.empty(),
        "serving at int8 requires calibration_maps");
}

std::unique_ptr<edge::EdgeEngine> Server::load_engine(
    const std::string& blob, edge::Precision precision) {
  // Delta-stored personal checkpoints reconstruct against their recorded
  // base before the model sees them; full blobs pass through. Any
  // decode failure throws an addressed clear::Error, which the callers
  // already treat exactly like a corrupt full checkpoint (cache fallback,
  // recovery quarantine, migration refusal).
  const std::string* payload = &blob;
  std::string decoded;
  if (delta::is_delta(blob)) {
    const delta::BaseRef ref = delta::base_of(blob);
    decoded = delta::decode(blob,
                            ref.kind == delta::BaseRef::Kind::kGeneral
                                ? source_.general_blob()
                                : source_.cluster_blob(ref.id));
    payload = &decoded;
    ++counters_.delta_loads;
    CLEAR_OBS_COUNT("serve.delta.loads", 1);
  }
  return engine_from_blob(source_.config.model, *payload, precision);
}

std::unique_ptr<edge::EdgeEngine> Server::build_engine(
    const std::string& blob, edge::Precision precision,
    const CheckpointCache::Scales* scales) {
  auto engine = load_engine(blob, precision);
  if (precision == edge::Precision::kInt8) {
    if (scales) {
      engine->set_activation_params(*scales);
    } else {
      engine->calibrate(calibration_ptrs_);
    }
  }
  return engine;
}

Server::PersonalBlob Server::encode_personal_blob(
    std::size_t cluster, const std::string& full_blob) const {
  PersonalBlob out;
  if (!config_.delta_checkpoints) {
    out.bytes = full_blob;
    return out;
  }
  delta::EncodeStats stats;
  std::optional<std::string> enc = delta::encode(
      source_.cluster_blob(cluster),
      delta::BaseRef{delta::BaseRef::Kind::kCluster, cluster}, full_blob,
      &stats);
  if (!enc && has_general_)
    enc = delta::encode(source_.general_blob(),
                        delta::BaseRef{delta::BaseRef::Kind::kGeneral, 0},
                        full_blob, &stats);
  if (!enc) {
    // Missing/corrupt base, mismatched shapes, or a delta that would not
    // be smaller: the full blob is always safe to store.
    out.bytes = full_blob;
    out.kind = PersonalBlob::Kind::kFullFallback;
    return out;
  }
  out.bytes_saved = full_blob.size() - enc->size();
  out.bytes = std::move(*enc);
  out.kind = PersonalBlob::Kind::kDelta;
  return out;
}

void Server::count_encode(const PersonalBlob& blob) {
  switch (blob.kind) {
    case PersonalBlob::Kind::kFull:
      break;
    case PersonalBlob::Kind::kFullFallback:
      ++counters_.delta_full_fallbacks;
      CLEAR_OBS_COUNT("serve.delta.full_fallbacks", 1);
      break;
    case PersonalBlob::Kind::kDelta:
      ++counters_.delta_encoded;
      counters_.delta_bytes_saved += blob.bytes_saved;
      CLEAR_OBS_COUNT("serve.delta.encoded", 1);
      CLEAR_OBS_COUNT("serve.delta.bytes_written", blob.bytes.size());
      CLEAR_OBS_COUNT("serve.delta.bytes_saved", blob.bytes_saved);
      break;
  }
}

BatchKey Server::route_for(const Session& session) const {
  BatchKey key;
  key.precision = session.precision();
  const bool cluster_ready = session.assigned() && !session.degraded();
  // RE_ASSESSING/SHADOWING serve the *incumbent* engine throughout: a
  // personalized user keeps their personal model until a promotion commits,
  // so adaptation is invisible to the user unless it wins.
  const bool personal_route =
      session.state() == SessionState::kPersonalized ||
      ((session.state() == SessionState::kReassessing ||
        session.state() == SessionState::kShadowing) &&
       session.has_personal_engine());
  if (personal_route) {
    key.kind = BatchKey::Kind::kPersonal;
    key.id = static_cast<std::size_t>(session.user_id());
  } else if (cluster_ready) {
    key.kind = BatchKey::Kind::kCluster;
    key.id = session.cluster();
  } else if (has_general_) {
    key.kind = BatchKey::Kind::kGeneral;
  } else {
    // No general model shipped: cold/degraded users ride cluster 0 (the
    // closest thing to a population prior available).
    key.kind = BatchKey::Kind::kCluster;
    key.id = 0;
  }
  return key;
}

void Server::shed(const ServeRequest& request, const BatchKey& route,
                  Session* session, const std::string& why, bool admitted) {
  ++counters_.shed;
  CLEAR_OBS_COUNT("serve.shed", 1);
  if (session) ++session->shed;
  ServeResult r;
  r.user_id = request.user_id;
  r.request_id = request.request_id;
  r.status = ServeResult::Status::kShed;
  r.error = why;
  r.route = route;
  if (session) {
    r.session_state = session->state();
    r.degraded = session->degraded();
  }
  r.arrival_us = request.arrival_us;
  r.exec_us = request.arrival_us;
  completed_.push_back(std::move(r));
  if (journal_) {
    JournalRecord rec;
    rec.type = RecordType::kShed;
    rec.user_id = request.user_id;
    rec.shed_charged = session != nullptr;
    rec.shed_unadmitted = !admitted;
    journal_append(std::move(rec));
  }
}

void Server::start_finetune(Session& session) {
  session.begin_finetune();
  auto job = std::make_shared<FinetuneJob>();
  job->user_id = session.user_id();
  job->cluster = session.cluster();
  job->precision = session.precision();
  job->journaled = journal_ != nullptr;
  job->labelled = session.labelled();
  std::packaged_task<void()> task([this, job] { run_finetune(*job); });
  job->done = task.get_future();
  jobs_[session.user_id()] = job;
  trainer_.post(std::move(task));
}

void Server::run_finetune(FinetuneJob& job) const {
  CLEAR_OBS_SPAN("serve.finetune");
  // Loaded uncalibrated: edge_finetune never reads int8 activation scales,
  // and an eval-mode calibration pass draws no randomness, so calibrating
  // here could not change the result. int8 calibrates once, after FT.
  const nn::CnnLstmConfig& model = source_.config.model;
  std::unique_ptr<edge::EdgeEngine> engine;
  try {
    engine = engine_from_blob(model, source_.cluster_blob(job.cluster),
                              job.precision);
  } catch (const Error& e) {
    CLEAR_WARN("user " << job.user_id << ": cluster " << job.cluster
                       << " checkpoint unusable (" << e.what()
                       << "); trying the general fallback");
  }
  if (!engine && has_general_) {
    try {
      engine = engine_from_blob(model, source_.general_blob(), job.precision);
    } catch (const Error& e) {
      CLEAR_WARN("user " << job.user_id << ": general checkpoint unusable ("
                         << e.what() << ")");
    }
  }
  if (!engine) return;

  nn::MapDataset data;
  for (const LabelledMap& m : job.labelled) {
    data.maps.push_back(&m.map);
    data.labels.push_back(m.label > 0 ? 1 : 0);
  }
  edge::EdgeFinetuneConfig fc;
  fc.train = source_.config.finetune;
  fc.train.seed = source_.config.seed ^ 0x5EEDull ^
                  (job.user_id * 0x9E3779B97F4A7C15ull);
  fc.freeze_boundary = nn::fine_tune_boundary();
  edge::edge_finetune(*engine, data, fc);
  if (job.precision == edge::Precision::kInt8)
    engine->calibrate(calibration_ptrs_);
  if (job.journaled)
    job.blob = encode_personal_blob(job.cluster,
                                    nn::encode_checkpoint(engine->model()));
  job.engine = std::move(engine);
}

void Server::commit_finetune(Session& session) {
  const auto it = jobs_.find(session.user_id());
  CLEAR_CHECK_MSG(it != jobs_.end(),
                  "user " << session.user_id() << " has no fine-tune to commit");
  const std::shared_ptr<FinetuneJob> job = std::move(it->second);
  jobs_.erase(it);
  if (job->running()) CLEAR_OBS_COUNT("serve.finetune.commit_waits", 1);
  job->done.get();  // Rethrows what the job threw.
  if (!job->engine) {
    ++counters_.finetune_failures;
    session.abort_finetune();
    if (journal_) {
      JournalRecord rec;
      rec.type = RecordType::kFinetuneAbort;
      rec.user_id = session.user_id();
      journal_append(std::move(rec));
    }
    return;
  }
  count_encode(job->blob);
  session.set_personal_engine(std::move(job->engine));
  ++counters_.finetunes;
  CLEAR_OBS_COUNT("serve.finetunes", 1);
  // Durability: land the checkpoint on disk before the kFinetune record
  // that references it — recovery must never find a record without its
  // backing blob unless the write was torn. Both stay on this thread: after
  // a drift promotion a session can fine-tune again while an older
  // kFinetune record of it still pins the old file's size and CRC, and a
  // write made off this thread could land before a crash that loses this
  // record; replay would then demote the session for good.
  if (journal_) {
    const std::string& ckpt_blob = job->blob.bytes;
    try {
      write_user_checkpoint(config_.journal.directory, session.user_id(),
                            ckpt_blob, config_.journal.fsync);
      ++counters_.journal_ckpts;
      CLEAR_OBS_COUNT("serve.journal.ckpts", 1);
    } catch (const Error& e) {
      journal_disable(e, "personal checkpoint write");
      return;
    }
    JournalRecord rec;
    rec.type = RecordType::kFinetune;
    rec.user_id = session.user_id();
    rec.ckpt_bytes = ckpt_blob.size();
    rec.ckpt_crc = crc32(ckpt_blob);
    journal_append(std::move(rec));
  }
}

bool Server::would_block(std::uint64_t user_id) const {
  const auto it = jobs_.find(user_id);
  return it != jobs_.end() && it->second->running();
}

void Server::drift_monitor(Session& session, const Tensor& normalized_map) {
  // Serial submit-path only: every score is a pure function of the request
  // stream, so drift decisions are bit-identical at any --threads setting.
  // With a single cluster there is nowhere to re-assign to.
  if (source_.n_clusters() < 2) return;
  const auto score_window = [&]() {
    return cluster::assign_new_user(
        {features::feature_map_mean(normalized_map)}, source_.clustering);
  };
  switch (session.state()) {
    case SessionState::kAssigned:
    case SessionState::kPersonalized: {
      const cluster::AssignmentResult scored = score_window();
      const double own = scored.scores[session.cluster()];
      double best_other = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < scored.scores.size(); ++c)
        if (c != session.cluster()) best_other = std::min(best_other,
                                                          scored.scores[c]);
      const bool drifting =
          own > config_.session.drift_ratio * best_other;
      ++counters_.drift_ticks;
      CLEAR_OBS_COUNT("serve.drift.ticks", 1);
      // The degenerate best_other == 0 ratio is exactly what the pinned
      // histogram bucket mapping exists for (+inf folds into the top
      // bucket; a 0/0 NaN lands in bucket 0).
      CLEAR_OBS_RECORD("serve.drift.score_ratio", own / best_other);
      if (journal_) {
        JournalRecord rec;
        rec.type = RecordType::kDriftTick;
        rec.user_id = session.user_id();
        rec.drifting = drifting;
        journal_append(std::move(rec));
      }
      if (session.drift_tick(drifting) == Session::DriftEvent::kTriggered) {
        ++counters_.drift_detected;
        ++drift_active_;
        CLEAR_OBS_COUNT("serve.drift.detected", 1);
      }
      break;
    }
    case SessionState::kReassessing: {
      cluster::Point observation = features::feature_map_mean(normalized_map);
      session.add_reassess_observation(observation);
      if (journal_) {
        JournalRecord rec;
        rec.type = RecordType::kReassessObs;
        rec.user_id = session.user_id();
        rec.point = std::move(observation);
        journal_append(std::move(rec));
      }
      if (session.reassess_ready()) {
        CLEAR_OBS_SPAN("serve.drift.reassess");
        const cluster::AssignmentResult verdict = cluster::assign_new_user(
            session.observations(), source_.clustering);
        ++counters_.reassessments;
        CLEAR_OBS_COUNT("serve.drift.reassessments", 1);
        if (journal_) {
          // As with cold-start CA, the *verdict* is journaled — replay
          // installs it without re-running cluster math.
          JournalRecord rec;
          rec.type = RecordType::kReassign;
          rec.user_id = session.user_id();
          rec.cluster = verdict.cluster;
          journal_append(std::move(rec));
        }
        if (!session.reassess_verdict(verdict.cluster)) {
          ++counters_.drift_false_alarms;
          --drift_active_;
          CLEAR_OBS_COUNT("serve.drift.false_alarms", 1);
        }
      }
      break;
    }
    case SessionState::kShadowing: {
      const cluster::AssignmentResult scored = score_window();
      const bool candidate_won =
          scored.scores[session.candidate_cluster()] <
          scored.scores[session.cluster()];
      ++counters_.shadow_ticks;
      CLEAR_OBS_COUNT("serve.drift.shadow_ticks", 1);
      if (journal_) {
        JournalRecord rec;
        rec.type = RecordType::kShadowTick;
        rec.user_id = session.user_id();
        rec.shadow_won = candidate_won;
        journal_append(std::move(rec));
      }
      session.shadow_tick(candidate_won);
      if (session.shadow_done()) {
        if (session.shadow_promotes()) {
          if (journal_) {
            JournalRecord rec;
            rec.type = RecordType::kPromote;
            rec.user_id = session.user_id();
            rec.cluster = session.candidate_cluster();
            journal_append(std::move(rec));
          }
          // Park the displaced personal engine: a pending personal batch
          // admitted before this promotion still executes on it.
          if (auto engine = session.release_personal_engine())
            retired_personal_[session.user_id()] = std::move(engine);
          session.promote_to_candidate();
          ++counters_.promotions;
          --drift_active_;
          CLEAR_OBS_COUNT("serve.drift.promotions", 1);
        } else {
          if (journal_) {
            JournalRecord rec;
            rec.type = RecordType::kDemote;
            rec.user_id = session.user_id();
            journal_append(std::move(rec));
          }
          session.demote_to_incumbent();
          ++counters_.demotions;
          --drift_active_;
          CLEAR_OBS_COUNT("serve.drift.demotions", 1);
        }
      }
      break;
    }
    default:
      break;
  }
  CLEAR_OBS_GAUGE("serve.drift.adapting", drift_active_);
}

void Server::submit(ServeRequest request) {
  CLEAR_CHECK_MSG(request.arrival_us >= last_arrival_us_,
                  "request arrivals must be nondecreasing ("
                      << request.arrival_us << " after " << last_arrival_us_
                      << ")");
  // The user's next request is the commit point the stream fixes for a
  // fine-tune it started: until here the session answered on its cluster
  // route.
  if (jobs_.count(request.user_id) != 0)
    commit_finetune(*sessions_.find(request.user_id));
  // Release due batches only when virtual time actually advances: a burst
  // sharing one timestamp piles into the queues (shedding when a bound is
  // hit) instead of being drained one sub-batch at a time — that is what
  // makes load-shedding observable and keeps batch composition a pure
  // function of the request stream.
  if (request.arrival_us > last_arrival_us_) advance(request.arrival_us);
  last_arrival_us_ = request.arrival_us;
  ++counters_.requests;
  CLEAR_OBS_COUNT("serve.requests", 1);

  Session* session = sessions_.get_or_create(request.user_id);
  if (!session) {
    std::ostringstream why;
    why << "session table full (" << sessions_.size() << " sessions)";
    shed(request, BatchKey{}, nullptr, why.str(), /*admitted=*/false);
    maybe_compact();
    return;
  }
  ++session->requests;
  if (session->requests == 1) session->first_arrival_us = request.arrival_us;

  CLEAR_CHECK_MSG(request.map.rank() == 2,
                  "request map must be [F, W], got "
                      << request.map.shape_str());

  // Device-side sanitization: gap-fill non-finite samples, then fold the
  // repair fraction into the upstream quality estimate.
  const std::size_t filled = sanitize_map(request.map);
  double quality = request.quality;
  if (filled > 0) {
    ++counters_.sanitized;
    CLEAR_OBS_COUNT("serve.sanitized", 1);
    const double repaired_fraction =
        static_cast<double>(filled) / static_cast<double>(request.map.numel());
    quality = std::min(quality, 1.0 - repaired_fraction);
  }
  source_.normalizer.apply_map(request.map);

  if (journal_) {
    // One kRequest record carries everything replay needs to repeat the
    // admission bookkeeping and the quality tick below.
    JournalRecord rec;
    rec.type = RecordType::kRequest;
    rec.user_id = request.user_id;
    rec.time_us = request.arrival_us;
    rec.quality = quality;
    journal_append(std::move(rec));
  }

  switch (session->note_quality(quality)) {
    case Session::QualityEvent::kDegraded:
      ++counters_.degraded;
      CLEAR_OBS_COUNT("serve.degraded", 1);
      break;
    case Session::QualityEvent::kRecovered:
      ++counters_.recovered;
      CLEAR_OBS_COUNT("serve.recovered", 1);
      break;
    case Session::QualityEvent::kNone:
      break;
  }

  if (!session->degraded()) {
    // Cold-start protocol: buffer unlabeled observations until CA can run.
    if (session->state() == SessionState::kCold ||
        session->state() == SessionState::kAssigning) {
      cluster::Point observation = features::feature_map_mean(request.map);
      session->add_observation(observation);
      if (journal_) {
        JournalRecord rec;
        rec.type = RecordType::kObservation;
        rec.user_id = request.user_id;
        rec.point = std::move(observation);
        journal_append(std::move(rec));
      }
      if (session->ca_ready()) {
        CLEAR_OBS_SPAN("serve.assign");
        const cluster::AssignmentResult assignment = cluster::assign_new_user(
            session->observations(), source_.clustering);
        session->set_assignment(assignment.cluster);
        ++counters_.assignments;
        CLEAR_OBS_COUNT("serve.assignments", 1);
        if (journal_) {
          // The CA *verdict* is journaled, not its inputs — replay installs
          // the assignment without re-running cluster math.
          JournalRecord rec;
          rec.type = RecordType::kAssign;
          rec.user_id = request.user_id;
          rec.cluster = assignment.cluster;
          journal_append(std::move(rec));
        }
      }
    }
    // Personalization: labelled requests accumulate until fine-tune fires.
    if (request.label.has_value() &&
        session->state() == SessionState::kAssigned) {
      session->add_labelled(request.map, *request.label);
      if (journal_) {
        JournalRecord rec;
        rec.type = RecordType::kLabelled;
        rec.user_id = request.user_id;
        rec.label = *request.label;
        rec.map = request.map;
        journal_append(std::move(rec));
      }
      if (session->ft_ready()) start_finetune(*session);
    }
    // Online adaptation: score the window against the clustering and drive
    // the RE_ASSESSING/SHADOWING machine. Runs after CA/FT so a session can
    // be monitored from the very window that assigned or personalized it.
    if (config_.session.drift_after > 0) drift_monitor(*session, request.map);
  }

  const BatchKey route = route_for(*session);
  const std::size_t slot = next_slot_++;
  const MicroBatcher::Admit admit =
      batcher_.admit(route, slot, request.arrival_us);
  if (admit != MicroBatcher::Admit::kQueued) {
    std::ostringstream why;
    if (admit == MicroBatcher::Admit::kQueueFull)
      why << "queue full for " << route.str() << " (capacity "
          << batcher_.policy().queue_capacity << ")";
    else
      why << "server overloaded (" << batcher_.pending()
          << " requests pending)";
    shed(request, route, session, why.str());
    maybe_compact();
    return;
  }
  pending_.emplace(slot, PendingRequest{std::move(request), route});
  CLEAR_OBS_GAUGE("serve.pending", batcher_.pending());
  CLEAR_OBS_GAUGE("serve.sessions", sessions_.size());
  maybe_compact();
}

void Server::advance(std::uint64_t now_us) {
  // pop_due releases at most one batch per key, so looping here both drains
  // every due batch and guarantees an engine never has two batches in the
  // same parallel region.
  for (;;) {
    std::vector<Batch> due = batcher_.pop_due(now_us);
    if (due.empty()) return;
    execute(std::move(due));
  }
}

void Server::drain() {
  // Commit first: the kFinetune records then precede the kPredict records
  // of the final flush in the journal.
  while (!jobs_.empty()) commit_finetune(*sessions_.find(jobs_.begin()->first));
  advance(std::numeric_limits<std::uint64_t>::max());
}

void Server::execute(std::vector<Batch> batches) {
  struct Exec {
    Batch batch;
    edge::EdgeEngine* engine = nullptr;
    std::shared_ptr<CheckpointCache::Entry> hold;  ///< Keeps engine alive.
    bool fallback = false;
    Tensor input;
    Tensor probabilities;
  };

  // Phase 1 (serial): resolve engines — cache LRU updates and session
  // lookups stay deterministic — and stack each batch's input tensor.
  std::vector<Exec> execs;
  execs.reserve(batches.size());
  for (Batch& batch : batches) {
    Exec e;
    e.batch = std::move(batch);
    if (e.batch.key.kind == BatchKey::Kind::kPersonal) {
      Session* session = sessions_.find(e.batch.key.id);
      CLEAR_CHECK_MSG(session, "personal batch for an unknown session");
      e.engine = session->personal_engine();
      if (!e.engine) {
        // A promotion displaced the personal engine while this batch was
        // pending; it executes on the engine that was serving at admission.
        const auto retired = retired_personal_.find(session->user_id());
        CLEAR_CHECK_MSG(retired != retired_personal_.end(),
                        "personal batch for a session without an engine");
        e.engine = retired->second.get();
      }
    } else {
      try {
        e.hold = cache_.acquire(e.batch.key);
        e.engine = e.hold->engine.get();
        e.fallback = e.hold->fallback;
      } catch (const Error& err) {
        for (const PendingItem& item : e.batch.items) {
          const auto it = pending_.find(item.slot);
          shed(it->second.request, e.batch.key, nullptr, err.what());
          pending_.erase(it);
        }
        continue;
      }
    }
    std::vector<const Tensor*> maps;
    std::vector<std::size_t> idx;
    maps.reserve(e.batch.items.size());
    for (const PendingItem& item : e.batch.items) {
      maps.push_back(&pending_.at(item.slot).request.map);
      idx.push_back(idx.size());
    }
    nn::stack_batch_into(maps, idx, e.input);
    execs.push_back(std::move(e));
  }

  // Phase 2 (parallel): forward each batch on its own engine. Batches are
  // independent (distinct engines), every kernel below is bit-identical at
  // any thread count, and results land in per-exec storage.
  parallel_for(0, execs.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      CLEAR_OBS_SPAN("serve.batch");
      const Tensor logits = execs[i].engine->forward(execs[i].input);
      execs[i].probabilities = ops::softmax_rows(logits);
    }
  });

  // Phase 3 (serial): emit results in batch/key order.
  for (Exec& e : execs) {
    ++counters_.batches;
    counters_.rows += e.batch.items.size();
    counters_.max_batch_rows =
        std::max(counters_.max_batch_rows, e.batch.items.size());
    CLEAR_OBS_COUNT("serve.batches", 1);
    CLEAR_OBS_COUNT("serve.rows", e.batch.items.size());
    CLEAR_OBS_RECORD("serve.batch_size", e.batch.items.size());
    for (std::size_t row = 0; row < e.batch.items.size(); ++row) {
      const PendingItem& item = e.batch.items[row];
      const auto it = pending_.find(item.slot);
      const ServeRequest& request = it->second.request;
      Session* session = sessions_.find(request.user_id);

      ServeResult r;
      r.user_id = request.user_id;
      r.request_id = request.request_id;
      r.status = ServeResult::Status::kOk;
      const std::size_t n_classes = e.probabilities.extent(1);
      float best = e.probabilities.at2(row, 0);
      std::size_t best_class = 0;
      for (std::size_t c = 1; c < n_classes; ++c)
        if (e.probabilities.at2(row, c) > best) {
          best = e.probabilities.at2(row, c);
          best_class = c;
        }
      r.predicted = static_cast<int>(best_class);
      r.fear_probability =
          n_classes > 1 ? e.probabilities.at2(row, 1) : best;
      r.route = e.batch.key;
      if (e.fallback) r.route.kind = BatchKey::Kind::kGeneral;
      r.batch_rows = e.batch.items.size();
      r.arrival_us = request.arrival_us;
      r.exec_us = e.batch.exec_us;
      if (session) {
        r.session_state = session->state();
        r.degraded = session->degraded();
        ++session->predictions;
        if (!session->first_prediction_us) {
          session->first_prediction_us = e.batch.exec_us;
          // Virtual µs, from the scheduled arrival: the `_virt_us` suffix
          // keeps it apart from every wall-clock `_us` metric.
          CLEAR_OBS_RECORD("serve.ttfp_virt_us",
                           e.batch.exec_us - session->first_arrival_us);
        }
        if (journal_) {
          JournalRecord rec;
          rec.type = RecordType::kPredict;
          rec.user_id = request.user_id;
          rec.time_us = e.batch.exec_us;
          journal_append(std::move(rec));
        }
      }
      CLEAR_OBS_RECORD("serve.queue_wait_virt_us",
                       e.batch.exec_us - item.enqueue_us);
      ++counters_.ok;
      completed_.push_back(std::move(r));
      pending_.erase(it);
    }
  }
  CLEAR_OBS_GAUGE("serve.pending", batcher_.pending());
  // Drop retired personal engines whose owner has no pending personal rows
  // left — nothing can route to them anymore.
  for (auto it = retired_personal_.begin(); it != retired_personal_.end();) {
    bool still_pending = false;
    for (const auto& [slot, p] : pending_)
      if (p.route.kind == BatchKey::Kind::kPersonal &&
          p.route.id == static_cast<std::size_t>(it->first)) {
        still_pending = true;
        break;
      }
    it = still_pending ? std::next(it) : retired_personal_.erase(it);
  }
  maybe_compact();
}

void Server::open_journal() {
  CLEAR_CHECK_MSG(!config_.journal.directory.empty(),
                  "journal directory is not configured");
  CLEAR_CHECK_MSG(!journal_, "journal is already open");
  CLEAR_CHECK_MSG(jobs_.empty(),
                  "open_journal with a fine-tune in flight (drain first)");
  CLEAR_CHECK_MSG(
      !journal_state_exists(config_.journal.directory),
      "journal directory '"
          << config_.journal.directory
          << "' already holds journal state; restart with --recover, or "
             "point --journal-dir at a fresh directory");
  journal_ = std::make_unique<Journal>(config_.journal);
}

void Server::journal_append(JournalRecord record) {
  if (!journal_) return;
  try {
    const std::size_t bytes = journal_->append(std::move(record));
    ++counters_.journal_records;
    counters_.journal_bytes += bytes;
    CLEAR_OBS_COUNT("serve.journal.records", 1);
    CLEAR_OBS_COUNT("serve.journal.bytes", bytes);
  } catch (const Error& e) {
    journal_disable(e, "append");
  }
}

void Server::maybe_compact() {
  // Quiescent-point compaction only: an append-time snapshot would stamp
  // `last_seq` at a record whose session/counter effects are still being
  // applied (kRequest's quality tick, kPredict's ok count land after the
  // append), and replay — which skips records at or below last_seq — would
  // silently lose them.
  if (journal_ && journal_->due_for_snapshot()) snapshot_now();
}

void Server::snapshot_now() {
  if (!journal_) return;
  try {
    CLEAR_OBS_SPAN("serve.journal.snapshot");
    journal_->write_snapshot(make_snapshot(journal_->next_seq() - 1));
    ++counters_.journal_snapshots;
    CLEAR_OBS_COUNT("serve.journal.snapshots", 1);
  } catch (const Error& e) {
    journal_disable(e, "snapshot");
  }
}

void Server::journal_disable(const Error& e, const char* what) {
  ++counters_.journal_io_errors;
  CLEAR_OBS_COUNT("serve.journal.io_errors", 1);
  CLEAR_WARN("journal " << what << " failed (" << e.what()
                        << "); journaling disabled, serving continues");
  journal_.reset();
}

SnapshotData Server::make_snapshot(std::uint64_t last_seq) const {
  SnapshotData data;
  data.last_seq = last_seq;
  data.last_arrival_us = last_arrival_us_;
  data.counters.requests = counters_.requests;
  data.counters.ok = counters_.ok;
  data.counters.shed = counters_.shed;
  data.counters.assignments = counters_.assignments;
  data.counters.finetunes = counters_.finetunes;
  data.counters.finetune_failures = counters_.finetune_failures;
  data.counters.sanitized = counters_.sanitized;
  data.counters.degraded = counters_.degraded;
  data.counters.recovered = counters_.recovered;
  data.counters.drift_ticks = counters_.drift_ticks;
  data.counters.drift_detected = counters_.drift_detected;
  data.counters.reassessments = counters_.reassessments;
  data.counters.drift_false_alarms = counters_.drift_false_alarms;
  data.counters.shadow_ticks = counters_.shadow_ticks;
  data.counters.promotions = counters_.promotions;
  data.counters.demotions = counters_.demotions;
  for (const Session* s : sessions_.sessions())
    data.sessions.push_back(s->image());
  return data;
}

std::optional<Server::ExportedSession> Server::export_session(
    std::uint64_t user_id) {
  Session* session = sessions_.find(user_id);
  if (!session) return std::nullopt;
  for (const auto& [slot, p] : pending_)
    CLEAR_CHECK_MSG(p.request.user_id != user_id,
                    "export with requests still pending for user "
                        << user_id << " (drain first)");
  CLEAR_CHECK_MSG(jobs_.count(user_id) == 0,
                  "export with a fine-tune still in flight for user "
                      << user_id << " (drain first)");
  ExportedSession out;
  out.image = session->image();
  if (session->has_personal_engine()) {
    // Re-encode through the same deterministic path the fine-tune's commit
    // persisted, so the wire blob carries the delta when one is stored and
    // the gaining shard's restore decodes to the bit-identical checkpoint.
    const PersonalBlob blob = encode_personal_blob(
        session->cluster(),
        nn::encode_checkpoint(session->personal_engine()->model()));
    count_encode(blob);
    out.checkpoint = blob.bytes;
  }
  CLEAR_OBS_COUNT("serve.migration.exports", 1);
  return out;
}

void Server::retire_session(std::uint64_t user_id) {
  Session* session = sessions_.find(user_id);
  if (!session) return;
  if (session->adapting() && drift_active_ > 0) --drift_active_;
  sessions_.erase(user_id);
  retired_personal_.erase(user_id);
  jobs_.erase(user_id);  // A running job finishes unread.
  CLEAR_OBS_COUNT("serve.migration.retired", 1);
  CLEAR_OBS_GAUGE("serve.sessions", sessions_.size());
  // Compact so the snapshot stops claiming the session; the orphaned
  // user_<id>.ckpt (if any) is unreferenced and harmless.
  snapshot_now();
}

bool Server::import_session(const SessionImage& image,
                            const std::string& checkpoint) {
  const std::uint64_t user = image.user_id;
  const auto fail = [&](const std::string& why) {
    CLEAR_WARN("migration import for user " << user << " failed: " << why);
    CLEAR_OBS_COUNT("serve.migration.failed", 1);
    return false;
  };
  if (sessions_.find(user)) return fail("user already has a session here");
  std::unique_ptr<edge::EdgeEngine> engine;
  if (image.has_personal) {
    if (checkpoint.empty())
      return fail("image claims a personal engine but no checkpoint came");
    try {
      fault::maybe_fail_migrate_io("import checkpoint build");
      engine = build_engine(checkpoint, sessions_.precision_for(user));
    } catch (const Error& e) {
      return fail(e.what());
    }
  }
  if (journal_ && image.has_personal) {
    // Land the checkpoint before the session becomes visible — the order a
    // fine-tune's commit uses — so a crash right after the import's
    // snapshot still recovers the personal engine.
    try {
      fault::maybe_fail_migrate_io("import checkpoint store");
      write_user_checkpoint(config_.journal.directory, user, checkpoint,
                            config_.journal.fsync);
      ++counters_.journal_ckpts;
      CLEAR_OBS_COUNT("serve.journal.ckpts", 1);
    } catch (const Error& e) {
      return fail(e.what());
    }
  }
  Session* restored = nullptr;
  try {
    restored = sessions_.restore(image, std::move(engine));
  } catch (const Error& e) {
    return fail(e.what());
  }
  if (!restored) return fail("session table full");
  if (restored->adapting()) ++drift_active_;
  CLEAR_OBS_COUNT("serve.migration.imports", 1);
  CLEAR_OBS_GAUGE("serve.sessions", sessions_.size());
  // Fold the adopted session into the baseline snapshot now: no journal
  // record admits it, so replay must find it in snapshot.snap.
  snapshot_now();
  return true;
}

std::size_t Server::rewrite_user_checkpoints() {
  CLEAR_CHECK_MSG(journal_,
                  "checkpoint rewrite requires an active journal "
                  "(open_journal() or recover() first)");
  // Fold every outstanding kFinetune record into the snapshot first: those
  // records pin the size + CRC of the *old* bytes, and replaying them
  // against rewritten files would quarantine every rewritten session. The
  // snapshot restore path re-reads user_<id>.ckpt by content, so after
  // this a crash at any point mid-rewrite recovers cleanly — each file is
  // atomically either the old or the new encoding, and both load.
  snapshot_now();
  std::size_t rewritten = 0;
  for (const Session* s : sessions_.sessions()) {
    const std::string stored =
        read_user_checkpoint(config_.journal.directory, s->user_id());
    if (stored.empty()) continue;
    std::string full = stored;
    if (delta::is_delta(stored)) {
      try {
        const delta::BaseRef ref = delta::base_of(stored);
        full = delta::decode(stored,
                             ref.kind == delta::BaseRef::Kind::kGeneral
                                 ? source_.general_blob()
                                 : source_.cluster_blob(ref.id));
      } catch (const Error& e) {
        CLEAR_WARN("user " << s->user_id()
                           << ": checkpoint left unrewritten (" << e.what()
                           << ")");
        continue;
      }
    }
    const PersonalBlob encoded = encode_personal_blob(s->cluster(), full);
    count_encode(encoded);
    const std::string& next = encoded.bytes;
    if (next == stored) continue;
    try {
      write_user_checkpoint(config_.journal.directory, s->user_id(), next,
                            config_.journal.fsync);
    } catch (const Error& e) {
      journal_disable(e, "checkpoint rewrite");
      break;
    }
    ++rewritten;
    CLEAR_OBS_COUNT("serve.delta.rewrites", 1);
  }
  return rewritten;
}

std::vector<ServeResult> Server::take_results() {
  std::vector<ServeResult> out = std::move(completed_);
  completed_.clear();
  return out;
}

std::vector<ServeResult> Server::run(std::vector<ServeRequest> requests) {
  std::stable_sort(requests.begin(), requests.end(),
                   [](const ServeRequest& a, const ServeRequest& b) {
                     return a.arrival_us < b.arrival_us;
                   });
  for (ServeRequest& r : requests) submit(std::move(r));
  drain();
  std::vector<ServeResult> out = take_results();
  std::sort(out.begin(), out.end(),
            [](const ServeResult& a, const ServeResult& b) {
              if (a.user_id != b.user_id) return a.user_id < b.user_id;
              return a.request_id < b.request_id;
            });
  return out;
}

}  // namespace clear::serve
