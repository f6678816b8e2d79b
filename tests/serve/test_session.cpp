#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/model.hpp"

namespace clear::serve {
namespace {

SessionPolicy quick_policy() {
  SessionPolicy p;
  p.ca_windows = 2;
  p.ft_maps = 2;
  p.degrade_after = 3;
  p.recover_after = 3;
  return p;
}

Session make_session(SessionPolicy p = quick_policy()) {
  return Session(1, p, edge::Precision::kFp32);
}

cluster::Point obs(double v) { return cluster::Point{v, v}; }

Tensor map_of(float v) {
  Tensor m({2, 2});
  for (float& x : m.flat()) x = v;
  return m;
}

std::unique_ptr<edge::EdgeEngine> tiny_engine() {
  nn::CnnLstmConfig c;
  c.feature_dim = 8;
  c.window_count = 4;
  c.conv1_channels = 2;
  c.conv2_channels = 2;
  c.lstm_hidden = 3;
  c.dropout = 0.0;
  Rng rng(1);
  return std::make_unique<edge::EdgeEngine>(nn::build_cnn_lstm(c, rng),
                                            edge::EngineConfig{});
}

TEST(Session, ColdStartWalksAssigningToAssigned) {
  Session s = make_session();
  EXPECT_EQ(s.state(), SessionState::kCold);
  EXPECT_FALSE(s.assigned());
  s.add_observation(obs(0.1));
  EXPECT_EQ(s.state(), SessionState::kAssigning);
  EXPECT_FALSE(s.ca_ready());
  s.add_observation(obs(0.2));
  EXPECT_TRUE(s.ca_ready());
  EXPECT_EQ(s.observations().size(), 2u);
  s.set_assignment(3);
  EXPECT_EQ(s.state(), SessionState::kAssigned);
  EXPECT_EQ(s.cluster(), 3u);
  EXPECT_TRUE(s.assigned());
  // The CA buffer is dropped once the verdict lands.
  EXPECT_TRUE(s.observations().empty());
}

TEST(Session, StateMachineRejectsOutOfOrderTransitions) {
  Session s = make_session();
  EXPECT_THROW(s.set_assignment(0), Error);
  EXPECT_THROW(s.begin_finetune(), Error);
  EXPECT_THROW(s.abort_finetune(), Error);
  s.add_observation(obs(0.1));
  s.add_observation(obs(0.2));
  s.set_assignment(0);
  EXPECT_THROW(s.add_observation(obs(0.3)), Error);
  EXPECT_THROW(s.set_personal_engine(tiny_engine()), Error);
}

TEST(Session, FineTuneWaitsForBothClasses) {
  Session s = make_session();
  s.add_observation(obs(0.1));
  s.add_observation(obs(0.2));
  s.set_assignment(0);
  s.add_labelled(map_of(0.0f), 0);
  s.add_labelled(map_of(0.1f), 0);
  // Enough maps, but single-class — fine-tuning on it would collapse the
  // classifier, so the session keeps waiting.
  EXPECT_FALSE(s.ft_ready());
  s.add_labelled(map_of(1.0f), 1);
  EXPECT_TRUE(s.ft_ready());
}

TEST(Session, PersonalizationLifecycle) {
  Session s = make_session();
  s.add_observation(obs(0.1));
  s.add_observation(obs(0.2));
  s.set_assignment(1);
  s.add_labelled(map_of(0.0f), 0);
  s.add_labelled(map_of(1.0f), 1);
  ASSERT_TRUE(s.ft_ready());
  s.begin_finetune();
  EXPECT_EQ(s.state(), SessionState::kFineTuning);
  EXPECT_TRUE(s.assigned());
  s.set_personal_engine(tiny_engine());
  EXPECT_EQ(s.state(), SessionState::kPersonalized);
  EXPECT_NE(s.personal_engine(), nullptr);
  EXPECT_TRUE(s.labelled().empty());
  // Once personalized, labelled maps are no longer buffered.
  s.add_labelled(map_of(0.5f), 1);
  EXPECT_TRUE(s.labelled().empty());
}

// A fine-tune is journaled only when it commits, so a session imaged while
// one runs comes back ASSIGNED with the buffer that started it: ready to
// run the same fine-tune again.
TEST(Session, FineTuningImageRestoresAsAssignedWithItsBuffer) {
  Session s = make_session();
  s.add_observation(obs(0.1));
  s.add_observation(obs(0.2));
  s.set_assignment(1);
  s.add_labelled(map_of(0.0f), 0);
  s.add_labelled(map_of(1.0f), 1);
  s.begin_finetune();
  const SessionImage img = s.image();
  EXPECT_EQ(img.state, SessionState::kAssigned);
  EXPECT_FALSE(img.has_personal);
  ASSERT_EQ(img.labelled.size(), 2u);
  Session restored = make_session();
  restored.restore_image(img, nullptr);
  EXPECT_EQ(restored.state(), SessionState::kAssigned);
  EXPECT_EQ(restored.cluster(), 1u);
  ASSERT_EQ(restored.labelled().size(), 2u);
  EXPECT_EQ(restored.labelled()[0].label, 0);
  EXPECT_EQ(restored.labelled()[1].label, 1);
  EXPECT_EQ(restored.labelled()[1].map.flat()[0], 1.0f);
  EXPECT_TRUE(restored.ft_ready());
}

TEST(Session, AbortedFineTuneStopsRetrying) {
  Session s = make_session();
  s.add_observation(obs(0.1));
  s.add_observation(obs(0.2));
  s.set_assignment(0);
  s.add_labelled(map_of(0.0f), 0);
  s.add_labelled(map_of(1.0f), 1);
  s.begin_finetune();
  s.abort_finetune();  // e.g. the cluster checkpoint turned out unusable.
  EXPECT_EQ(s.state(), SessionState::kAssigned);
  // The known-bad checkpoint is not retried: labelled maps stop buffering.
  s.add_labelled(map_of(0.0f), 0);
  s.add_labelled(map_of(1.0f), 1);
  EXPECT_FALSE(s.ft_ready());
  EXPECT_TRUE(s.labelled().empty());
}

TEST(Session, DegradeNeedsConsecutiveBadRequests) {
  Session s = make_session();
  EXPECT_EQ(s.note_quality(0.2), Session::QualityEvent::kNone);
  EXPECT_EQ(s.note_quality(0.2), Session::QualityEvent::kNone);
  // A good request resets the streak.
  EXPECT_EQ(s.note_quality(0.9), Session::QualityEvent::kNone);
  EXPECT_EQ(s.note_quality(0.2), Session::QualityEvent::kNone);
  EXPECT_EQ(s.note_quality(0.2), Session::QualityEvent::kNone);
  EXPECT_FALSE(s.degraded());
  EXPECT_EQ(s.note_quality(0.2), Session::QualityEvent::kDegraded);
  EXPECT_TRUE(s.degraded());
}

TEST(Session, RecoveryRestoresExactPreDegradationState) {
  Session s = make_session();
  s.add_observation(obs(0.1));
  s.add_observation(obs(0.2));
  s.set_assignment(2);
  for (int i = 0; i < 3; ++i) s.note_quality(0.1);
  EXPECT_EQ(s.state(), SessionState::kDegraded);
  // A degraded-but-assigned session still remembers its cluster...
  EXPECT_TRUE(s.assigned());
  EXPECT_EQ(s.cluster(), 2u);
  // ...and recovery puts it right back on it.
  EXPECT_EQ(s.note_quality(0.9), Session::QualityEvent::kNone);
  EXPECT_EQ(s.note_quality(0.9), Session::QualityEvent::kNone);
  EXPECT_EQ(s.note_quality(0.9), Session::QualityEvent::kRecovered);
  EXPECT_EQ(s.state(), SessionState::kAssigned);
}

TEST(Session, ColdSessionDegradesAndRecoversCold) {
  Session s = make_session();
  for (int i = 0; i < 3; ++i) s.note_quality(0.1);
  EXPECT_TRUE(s.degraded());
  EXPECT_FALSE(s.assigned());  // Nothing saved worth routing to.
  for (int i = 0; i < 3; ++i) s.note_quality(0.9);
  EXPECT_EQ(s.state(), SessionState::kCold);
}

TEST(Session, RecoveryStreakMustBeConsecutive) {
  Session s = make_session();
  for (int i = 0; i < 3; ++i) s.note_quality(0.1);
  s.note_quality(0.9);
  s.note_quality(0.9);
  s.note_quality(0.1);  // Streak broken; still degraded.
  EXPECT_TRUE(s.degraded());
  for (int i = 0; i < 3; ++i) s.note_quality(0.9);
  EXPECT_FALSE(s.degraded());
}

TEST(Session, PolicyValidation) {
  SessionPolicy p = quick_policy();
  p.ca_windows = 0;
  EXPECT_THROW(make_session(p), Error);
  p = quick_policy();
  p.ft_maps = 1;  // Fine-tuning needs at least two samples.
  EXPECT_THROW(make_session(p), Error);
  p = quick_policy();
  p.degrade_after = 0;
  EXPECT_THROW(make_session(p), Error);
}

SessionPolicy drift_policy() {
  SessionPolicy p = quick_policy();
  p.drift_after = 2;
  p.reassess_windows = 2;
  p.shadow_windows = 3;
  return p;
}

/// Walk a fresh session to ASSIGNED on `cluster`.
Session assigned_session(std::size_t cluster,
                         SessionPolicy p = drift_policy()) {
  Session s = make_session(p);
  s.add_observation(obs(0.1));
  s.add_observation(obs(0.2));
  s.set_assignment(cluster);
  return s;
}

TEST(Session, DriftStreakMustBeConsecutive) {
  Session s = assigned_session(0);
  EXPECT_EQ(s.drift_tick(true), Session::DriftEvent::kNone);
  EXPECT_EQ(s.drift_streak(), 1u);
  EXPECT_EQ(s.drift_tick(false), Session::DriftEvent::kNone);  // Resets.
  EXPECT_EQ(s.drift_streak(), 0u);
  EXPECT_EQ(s.drift_tick(true), Session::DriftEvent::kNone);
  EXPECT_EQ(s.drift_tick(true), Session::DriftEvent::kTriggered);
  EXPECT_EQ(s.state(), SessionState::kReassessing);
  EXPECT_TRUE(s.adapting());
  EXPECT_TRUE(s.assigned());  // Still serving the incumbent.
  EXPECT_TRUE(s.observations().empty());  // Fresh re-assessment buffer.
}

TEST(Session, ReassessFalseAlarmReturnsToPreDriftState) {
  Session s = assigned_session(2);
  s.drift_tick(true);
  s.drift_tick(true);
  s.add_reassess_observation(obs(1.0));
  EXPECT_FALSE(s.reassess_ready());
  s.add_reassess_observation(obs(1.1));
  EXPECT_TRUE(s.reassess_ready());
  // CA names the incumbent again: false alarm, straight back to ASSIGNED.
  EXPECT_FALSE(s.reassess_verdict(2));
  EXPECT_EQ(s.state(), SessionState::kAssigned);
  EXPECT_EQ(s.cluster(), 2u);
  EXPECT_FALSE(s.adapting());
}

TEST(Session, ShadowStrictMajorityPromotes) {
  Session s = assigned_session(0);
  s.drift_tick(true);
  s.drift_tick(true);
  s.add_reassess_observation(obs(1.0));
  s.add_reassess_observation(obs(1.1));
  EXPECT_TRUE(s.reassess_verdict(1));
  EXPECT_EQ(s.state(), SessionState::kShadowing);
  EXPECT_EQ(s.candidate_cluster(), 1u);
  EXPECT_EQ(s.cluster(), 0u);  // Incumbent serves until promotion commits.
  s.shadow_tick(true);
  s.shadow_tick(false);
  EXPECT_FALSE(s.shadow_done());
  s.shadow_tick(true);  // 2 of 3: strict majority.
  EXPECT_TRUE(s.shadow_done());
  EXPECT_TRUE(s.shadow_promotes());
  s.promote_to_candidate();
  EXPECT_EQ(s.state(), SessionState::kAssigned);
  EXPECT_EQ(s.cluster(), 1u);
  EXPECT_EQ(s.shadow_seen(), 0u);  // Bookkeeping cleared for the next cycle.
}

TEST(Session, ShadowTieDemotesToIncumbent) {
  SessionPolicy p = drift_policy();
  p.shadow_windows = 2;
  Session s = assigned_session(0, p);
  s.drift_tick(true);
  s.drift_tick(true);
  s.add_reassess_observation(obs(1.0));
  s.add_reassess_observation(obs(1.1));
  ASSERT_TRUE(s.reassess_verdict(1));
  s.shadow_tick(true);
  s.shadow_tick(false);  // 1 of 2: a tie is not a strict majority.
  ASSERT_TRUE(s.shadow_done());
  EXPECT_FALSE(s.shadow_promotes());
  s.demote_to_incumbent();
  EXPECT_EQ(s.state(), SessionState::kAssigned);
  EXPECT_EQ(s.cluster(), 0u);  // Incumbent untouched.
}

TEST(Session, PromotionDropsPersonalEngineAndLabelledBuffer) {
  SessionPolicy p = drift_policy();
  Session s = make_session(p);
  s.add_observation(obs(0.1));
  s.add_observation(obs(0.2));
  s.set_assignment(0);
  s.add_labelled(map_of(0.1f), 1);
  s.add_labelled(map_of(0.2f), 0);
  s.begin_finetune();
  s.set_personal_engine(tiny_engine());
  ASSERT_EQ(s.state(), SessionState::kPersonalized);
  s.drift_tick(true);
  s.drift_tick(true);
  EXPECT_EQ(s.state(), SessionState::kReassessing);
  EXPECT_TRUE(s.has_personal_engine());  // Incumbent engine still serving.
  s.add_reassess_observation(obs(2.0));
  s.add_reassess_observation(obs(2.1));
  ASSERT_TRUE(s.reassess_verdict(1));
  s.shadow_tick(true);
  s.shadow_tick(true);
  s.shadow_tick(true);
  ASSERT_TRUE(s.shadow_promotes());
  s.promote_to_candidate();
  // The personal model was fine-tuned on the *old* cluster; it cannot follow
  // the user. The session may re-personalize on the new cluster from fresh
  // labels.
  EXPECT_FALSE(s.has_personal_engine());
  EXPECT_EQ(s.state(), SessionState::kAssigned);
  EXPECT_TRUE(s.labelled().empty());
  s.add_labelled(map_of(0.3f), 1);
  EXPECT_EQ(s.labelled().size(), 1u);  // Fine-tuning still enabled.
}

TEST(Session, ShadowLossRestoresPersonalizedState) {
  SessionPolicy p = drift_policy();
  p.shadow_windows = 2;
  Session s = make_session(p);
  s.add_observation(obs(0.1));
  s.add_observation(obs(0.2));
  s.set_assignment(0);
  s.add_labelled(map_of(0.1f), 1);
  s.add_labelled(map_of(0.2f), 0);
  s.begin_finetune();
  s.set_personal_engine(tiny_engine());
  s.drift_tick(true);
  s.drift_tick(true);
  s.add_reassess_observation(obs(2.0));
  s.add_reassess_observation(obs(2.1));
  ASSERT_TRUE(s.reassess_verdict(1));
  s.shadow_tick(false);
  s.shadow_tick(false);
  ASSERT_FALSE(s.shadow_promotes());
  s.demote_to_incumbent();
  EXPECT_EQ(s.state(), SessionState::kPersonalized);
  EXPECT_TRUE(s.has_personal_engine());
}

TEST(Session, AdaptationFreezesAndThawsUnderDegraded) {
  Session s = assigned_session(0);
  s.drift_tick(true);
  s.drift_tick(true);
  ASSERT_EQ(s.state(), SessionState::kReassessing);
  for (int i = 0; i < 3; ++i) s.note_quality(0.1);
  EXPECT_EQ(s.state(), SessionState::kDegraded);
  EXPECT_TRUE(s.adapting());  // Frozen mid-adaptation, still reported.
  EXPECT_EQ(s.effective_state(), SessionState::kReassessing);
  for (int i = 0; i < 3; ++i) s.note_quality(1.0);
  EXPECT_EQ(s.state(), SessionState::kReassessing);  // Thawed exactly.
}

TEST(Session, DriftMachineGuardsItsStates) {
  Session s = assigned_session(0);
  EXPECT_THROW(s.add_reassess_observation(obs(1.0)), Error);
  EXPECT_THROW(s.shadow_tick(true), Error);
  EXPECT_THROW(s.promote_to_candidate(), Error);
  EXPECT_THROW(s.demote_to_incumbent(), Error);
  // Disabled monitor: drift_tick must refuse outright.
  Session off = make_session();  // quick_policy has drift_after = 0.
  off.add_observation(obs(0.1));
  off.add_observation(obs(0.2));
  off.set_assignment(0);
  EXPECT_THROW(off.drift_tick(false), Error);
}

TEST(Session, ImageRoundTripsAdaptationFields) {
  SessionPolicy p = drift_policy();
  Session s = assigned_session(3, p);
  s.drift_tick(true);
  s.drift_tick(true);
  s.add_reassess_observation(obs(2.0));
  s.add_reassess_observation(obs(2.1));
  ASSERT_TRUE(s.reassess_verdict(1));
  s.shadow_tick(true);
  const SessionImage img = s.image();
  EXPECT_EQ(img.state, SessionState::kShadowing);
  EXPECT_EQ(img.candidate_cluster, 1u);
  EXPECT_EQ(img.shadow_wins, 1u);
  EXPECT_EQ(img.shadow_seen, 1u);
  Session restored(1, p, edge::Precision::kFp32);
  restored.restore_image(img, nullptr);
  EXPECT_EQ(restored.state(), SessionState::kShadowing);
  EXPECT_EQ(restored.candidate_cluster(), 1u);
  EXPECT_EQ(restored.shadow_wins(), 1u);
  EXPECT_EQ(restored.shadow_seen(), 1u);
  // The restored machine continues exactly where the original stopped.
  restored.shadow_tick(true);
  restored.shadow_tick(false);
  EXPECT_TRUE(restored.shadow_done());
  EXPECT_TRUE(restored.shadow_promotes());
}

TEST(SessionManager, AdmissionControlCapsTheTable) {
  SessionManager m(quick_policy(), {edge::Precision::kFp32}, 2);
  Session* a = m.get_or_create(10);
  Session* b = m.get_or_create(20);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Table full: new users are refused, existing ones still served.
  EXPECT_EQ(m.get_or_create(30), nullptr);
  EXPECT_EQ(m.get_or_create(10), a);
  EXPECT_EQ(m.find(20), b);
  EXPECT_EQ(m.find(30), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(SessionManager, UsersCycleThroughPrecisions) {
  SessionManager m(quick_policy(),
                   {edge::Precision::kFp32, edge::Precision::kFp16}, 16);
  EXPECT_EQ(m.get_or_create(0)->precision(), edge::Precision::kFp32);
  EXPECT_EQ(m.get_or_create(1)->precision(), edge::Precision::kFp16);
  EXPECT_EQ(m.get_or_create(2)->precision(), edge::Precision::kFp32);
}

TEST(SessionManager, SessionsReportInUserIdOrder) {
  SessionManager m(quick_policy(), {edge::Precision::kFp32}, 16);
  m.get_or_create(9);
  m.get_or_create(3);
  m.get_or_create(7);
  const std::vector<const Session*> all = m.sessions();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->user_id(), 3u);
  EXPECT_EQ(all[1]->user_id(), 7u);
  EXPECT_EQ(all[2]->user_id(), 9u);
}

}  // namespace
}  // namespace clear::serve
