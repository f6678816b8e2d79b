#include "serve/session.hpp"

#include "common/error.hpp"

namespace clear::serve {

const char* session_state_name(SessionState s) {
  switch (s) {
    case SessionState::kCold: return "COLD";
    case SessionState::kAssigning: return "ASSIGNING";
    case SessionState::kAssigned: return "ASSIGNED";
    case SessionState::kFineTuning: return "FINE_TUNING";
    case SessionState::kPersonalized: return "PERSONALIZED";
    case SessionState::kDegraded: return "DEGRADED";
    case SessionState::kReassessing: return "RE_ASSESSING";
    case SessionState::kShadowing: return "SHADOWING";
  }
  return "?";
}

Session::Session(std::uint64_t user_id, SessionPolicy policy,
                 edge::Precision precision)
    : user_id_(user_id), policy_(policy), precision_(precision) {
  CLEAR_CHECK_MSG(policy_.ca_windows >= 1, "ca_windows must be >= 1");
  CLEAR_CHECK_MSG(policy_.ft_maps >= 2,
                  "ft_maps must be >= 2 (fine-tuning needs two samples)");
  CLEAR_CHECK_MSG(policy_.degrade_after >= 1 && policy_.recover_after >= 1,
                  "degrade/recover streaks must be >= 1");
  if (policy_.drift_after > 0) {
    CLEAR_CHECK_MSG(policy_.drift_ratio > 0.0,
                    "drift_ratio must be positive");
    CLEAR_CHECK_MSG(policy_.reassess_windows >= 1 &&
                        policy_.shadow_windows >= 1,
                    "reassess/shadow windows must be >= 1");
  }
}

Session::QualityEvent Session::note_quality(double quality) {
  if (quality < policy_.min_quality) {
    good_streak_ = 0;
    ++bad_streak_;
    if (state_ != SessionState::kDegraded &&
        bad_streak_ >= policy_.degrade_after) {
      saved_state_ = state_;
      state_ = SessionState::kDegraded;
      return QualityEvent::kDegraded;
    }
    return QualityEvent::kNone;
  }
  bad_streak_ = 0;
  ++good_streak_;
  if (state_ == SessionState::kDegraded &&
      good_streak_ >= policy_.recover_after) {
    state_ = saved_state_;
    return QualityEvent::kRecovered;
  }
  return QualityEvent::kNone;
}

void Session::add_observation(cluster::Point observation) {
  if (state_ == SessionState::kCold) state_ = SessionState::kAssigning;
  CLEAR_CHECK_MSG(state_ == SessionState::kAssigning,
                  "observations buffer only while ASSIGNING (state "
                      << session_state_name(state_) << ")");
  observations_.push_back(std::move(observation));
}

bool Session::ca_ready() const {
  return state_ == SessionState::kAssigning &&
         observations_.size() >= policy_.ca_windows;
}

void Session::set_assignment(std::size_t cluster) {
  CLEAR_CHECK_MSG(state_ == SessionState::kAssigning,
                  "assignment requires ASSIGNING (state "
                      << session_state_name(state_) << ")");
  cluster_ = cluster;
  state_ = SessionState::kAssigned;
  observations_.clear();
  observations_.shrink_to_fit();
}

namespace {

/// Every state at or past ASSIGNED — including the adaptation states, which
/// keep serving the incumbent cluster while they evaluate a candidate.
bool state_is_assigned(SessionState s) {
  return s == SessionState::kAssigned || s == SessionState::kFineTuning ||
         s == SessionState::kPersonalized ||
         s == SessionState::kReassessing || s == SessionState::kShadowing;
}

}  // namespace

bool Session::assigned() const {
  return state_is_assigned(state_ == SessionState::kDegraded ? saved_state_
                                                             : state_);
}

bool Session::adapting() const {
  const SessionState s = effective_state();
  return s == SessionState::kReassessing || s == SessionState::kShadowing;
}

void Session::add_labelled(Tensor normalized_map, int label) {
  if (!policy_.enable_finetune || state_ != SessionState::kAssigned) return;
  labelled_.push_back(LabelledMap{std::move(normalized_map), label});
}

bool Session::ft_ready() const {
  if (!policy_.enable_finetune || state_ != SessionState::kAssigned)
    return false;
  if (labelled_.size() < policy_.ft_maps) return false;
  // Single-class adaptation sets collapse the classifier; wait for both.
  bool has[2] = {false, false};
  for (const LabelledMap& m : labelled_) has[m.label > 0 ? 1 : 0] = true;
  return has[0] && has[1];
}

void Session::begin_finetune() {
  CLEAR_CHECK_MSG(state_ == SessionState::kAssigned,
                  "fine-tuning requires ASSIGNED (state "
                      << session_state_name(state_) << ")");
  state_ = SessionState::kFineTuning;
}

void Session::set_personal_engine(
    std::unique_ptr<edge::EdgeEngine> engine) {
  CLEAR_CHECK_MSG(state_ == SessionState::kFineTuning,
                  "personal engine lands from FINE_TUNING (state "
                      << session_state_name(state_) << ")");
  CLEAR_CHECK_MSG(engine != nullptr, "null personal engine");
  personal_engine_ = std::move(engine);
  state_ = SessionState::kPersonalized;
  labelled_.clear();
  labelled_.shrink_to_fit();
}

SessionImage Session::image() const {
  SessionImage img;
  img.user_id = user_id_;
  // A fine-tune in flight is journaled only when it commits: until then
  // the durable state is the ASSIGNED session with its full buffer, from
  // which recovery runs the fine-tune again.
  img.state = state_ == SessionState::kFineTuning ? SessionState::kAssigned
                                                  : state_;
  img.saved_state = saved_state_;
  img.bad_streak = bad_streak_;
  img.good_streak = good_streak_;
  img.cluster = cluster_;
  img.observations = observations_;
  img.labelled = labelled_;
  img.finetune_enabled = policy_.enable_finetune;
  img.requests = requests;
  img.shed = shed;
  img.predictions = predictions;
  img.first_arrival_us = first_arrival_us;
  img.first_prediction_us = first_prediction_us;
  img.has_personal = personal_engine_ != nullptr;
  img.drift_streak = drift_streak_;
  img.reassess_from = reassess_from_;
  img.candidate_cluster = candidate_cluster_;
  img.shadow_wins = shadow_wins_;
  img.shadow_seen = shadow_seen_;
  return img;
}

void Session::restore_image(const SessionImage& image,
                            std::unique_ptr<edge::EdgeEngine> engine) {
  CLEAR_CHECK_MSG(image.user_id == user_id_,
                  "session image for user " << image.user_id
                                            << " restored into session "
                                            << user_id_);
  CLEAR_CHECK_MSG(image.state != SessionState::kFineTuning &&
                      image.saved_state != SessionState::kFineTuning,
                  "FINE_TUNING is transient and never lands in an image");
  CLEAR_CHECK_MSG((engine != nullptr) == image.has_personal,
                  "personal engine presence must match the image");
  state_ = image.state;
  saved_state_ = image.saved_state;
  bad_streak_ = static_cast<std::size_t>(image.bad_streak);
  good_streak_ = static_cast<std::size_t>(image.good_streak);
  cluster_ = static_cast<std::size_t>(image.cluster);
  observations_ = image.observations;
  labelled_ = image.labelled;
  policy_.enable_finetune = image.finetune_enabled;
  requests = static_cast<std::size_t>(image.requests);
  shed = static_cast<std::size_t>(image.shed);
  predictions = static_cast<std::size_t>(image.predictions);
  first_arrival_us = image.first_arrival_us;
  first_prediction_us = image.first_prediction_us;
  personal_engine_ = std::move(engine);
  drift_streak_ = static_cast<std::size_t>(image.drift_streak);
  reassess_from_ = image.reassess_from;
  candidate_cluster_ = static_cast<std::size_t>(image.candidate_cluster);
  shadow_wins_ = static_cast<std::size_t>(image.shadow_wins);
  shadow_seen_ = static_cast<std::size_t>(image.shadow_seen);
}

void Session::abort_finetune() {
  CLEAR_CHECK_MSG(state_ == SessionState::kFineTuning,
                  "abort_finetune outside FINE_TUNING");
  state_ = SessionState::kAssigned;
  policy_.enable_finetune = false;  // Do not retry a known-bad checkpoint.
  labelled_.clear();
  labelled_.shrink_to_fit();
}

Session::DriftEvent Session::drift_tick(bool drifting) {
  CLEAR_CHECK_MSG(policy_.drift_after > 0, "drift monitor is disabled");
  CLEAR_CHECK_MSG(drift_monitorable(),
                  "drift ticks only in ASSIGNED/PERSONALIZED (state "
                      << session_state_name(state_) << ")");
  if (!drifting) {
    drift_streak_ = 0;
    return DriftEvent::kNone;
  }
  ++drift_streak_;
  if (drift_streak_ < policy_.drift_after) return DriftEvent::kNone;
  // Sustained drift: remember where to fall back to, start a fresh CA
  // buffer, and re-assess. The incumbent engine keeps serving throughout.
  reassess_from_ = state_;
  state_ = SessionState::kReassessing;
  drift_streak_ = 0;
  observations_.clear();
  return DriftEvent::kTriggered;
}

void Session::add_reassess_observation(cluster::Point observation) {
  CLEAR_CHECK_MSG(state_ == SessionState::kReassessing,
                  "re-assessment windows buffer only while RE_ASSESSING "
                  "(state "
                      << session_state_name(state_) << ")");
  observations_.push_back(std::move(observation));
}

bool Session::reassess_ready() const {
  return state_ == SessionState::kReassessing &&
         observations_.size() >= policy_.reassess_windows;
}

bool Session::reassess_verdict(std::size_t candidate) {
  CLEAR_CHECK_MSG(state_ == SessionState::kReassessing,
                  "re-assessment verdict requires RE_ASSESSING (state "
                      << session_state_name(state_) << ")");
  observations_.clear();
  observations_.shrink_to_fit();
  if (candidate == cluster_) {
    // False alarm: CA still prefers the incumbent; resume where we were.
    state_ = reassess_from_;
    return false;
  }
  candidate_cluster_ = candidate;
  shadow_wins_ = 0;
  shadow_seen_ = 0;
  state_ = SessionState::kShadowing;
  return true;
}

void Session::shadow_tick(bool candidate_won) {
  CLEAR_CHECK_MSG(state_ == SessionState::kShadowing,
                  "shadow ticks only while SHADOWING (state "
                      << session_state_name(state_) << ")");
  ++shadow_seen_;
  if (candidate_won) ++shadow_wins_;
}

bool Session::shadow_done() const {
  return state_ == SessionState::kShadowing &&
         shadow_seen_ >= policy_.shadow_windows;
}

bool Session::shadow_promotes() const {
  return 2 * shadow_wins_ > shadow_seen_;  // Strict majority.
}

void Session::promote_to_candidate() {
  CLEAR_CHECK_MSG(state_ == SessionState::kShadowing,
                  "promotion requires SHADOWING (state "
                      << session_state_name(state_) << ")");
  cluster_ = candidate_cluster_;
  // A personal engine was fine-tuned from the *old* cluster's model; it
  // does not follow the user to the new cluster. The labelled buffer is
  // stale for the same reason. Fine-tuning stays enabled (unless a previous
  // abort disabled it), so the session may re-personalize on fresh labels.
  personal_engine_.reset();
  labelled_.clear();
  labelled_.shrink_to_fit();
  state_ = SessionState::kAssigned;
  shadow_wins_ = 0;
  shadow_seen_ = 0;
}

void Session::demote_to_incumbent() {
  CLEAR_CHECK_MSG(state_ == SessionState::kShadowing,
                  "demotion requires SHADOWING (state "
                      << session_state_name(state_) << ")");
  state_ = reassess_from_;
  shadow_wins_ = 0;
  shadow_seen_ = 0;
}

SessionManager::SessionManager(SessionPolicy policy,
                               std::vector<edge::Precision> precisions,
                               std::size_t max_sessions)
    : policy_(policy),
      precisions_(std::move(precisions)),
      max_sessions_(max_sessions) {
  CLEAR_CHECK_MSG(!precisions_.empty(), "at least one serving precision");
  CLEAR_CHECK_MSG(max_sessions_ >= 1, "max_sessions must be >= 1");
}

Session* SessionManager::get_or_create(std::uint64_t user_id) {
  const auto it = sessions_.find(user_id);
  if (it != sessions_.end()) return it->second.get();
  if (sessions_.size() >= max_sessions_) return nullptr;
  // Users cycle deterministically through the configured precisions — the
  // multi-platform story (GPU/NCS2/TPU) without per-user configuration.
  const edge::Precision p = precisions_[user_id % precisions_.size()];
  auto session = std::make_unique<Session>(user_id, policy_, p);
  Session* raw = session.get();
  sessions_[user_id] = std::move(session);
  return raw;
}

Session* SessionManager::restore(const SessionImage& image,
                                 std::unique_ptr<edge::EdgeEngine> engine) {
  CLEAR_CHECK_MSG(sessions_.find(image.user_id) == sessions_.end(),
                  "user " << image.user_id << " already has a session");
  if (sessions_.size() >= max_sessions_) return nullptr;
  auto session = std::make_unique<Session>(image.user_id, policy_,
                                           precision_for(image.user_id));
  session->restore_image(image, std::move(engine));
  Session* raw = session.get();
  sessions_[image.user_id] = std::move(session);
  return raw;
}

void SessionManager::erase(std::uint64_t user_id) {
  sessions_.erase(user_id);
}

Session* SessionManager::find(std::uint64_t user_id) {
  const auto it = sessions_.find(user_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::vector<const Session*> SessionManager::sessions() const {
  std::vector<const Session*> out;
  out.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) out.push_back(s.get());
  return out;
}

}  // namespace clear::serve
