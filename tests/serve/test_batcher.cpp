#include "serve/batcher.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.hpp"

namespace clear::serve {
namespace {

BatchKey general(edge::Precision p = edge::Precision::kFp32) {
  BatchKey k;
  k.kind = BatchKey::Kind::kGeneral;
  k.precision = p;
  return k;
}

BatchKey cluster(std::size_t id, edge::Precision p = edge::Precision::kFp32) {
  BatchKey k;
  k.kind = BatchKey::Kind::kCluster;
  k.id = id;
  k.precision = p;
  return k;
}

BatchKey personal(std::size_t id) {
  BatchKey k;
  k.kind = BatchKey::Kind::kPersonal;
  k.id = id;
  return k;
}

TEST(BatchKey, StableDisplayForm) {
  EXPECT_EQ(general().str(), "general/fp32");
  EXPECT_EQ(cluster(3, edge::Precision::kInt8).str(), "cluster3/int8");
  EXPECT_EQ(personal(17).str(), "user17/fp32");
  BatchKey k = cluster(1, edge::Precision::kFp16);
  EXPECT_EQ(k.str(), "cluster1/fp16");
}

TEST(BatchKey, OrderingIsKindThenIdThenPrecision) {
  EXPECT_LT(general(), cluster(0));
  EXPECT_LT(cluster(0), cluster(1));
  EXPECT_LT(cluster(9), personal(0));
  EXPECT_LT(cluster(2, edge::Precision::kFp32),
            cluster(2, edge::Precision::kInt8));
  EXPECT_EQ(cluster(2), cluster(2));
  EXPECT_FALSE(cluster(2) == cluster(3));
}

TEST(MicroBatcher, RejectsInconsistentPolicy) {
  BatchPolicy p;
  p.max_batch = 0;
  EXPECT_THROW(MicroBatcher{p}, Error);
  p = BatchPolicy{};
  p.queue_capacity = p.max_batch - 1;
  EXPECT_THROW(MicroBatcher{p}, Error);
  p = BatchPolicy{};
  p.max_pending = p.queue_capacity - 1;
  EXPECT_THROW(MicroBatcher{p}, Error);
}

TEST(MicroBatcher, PerKeyCapacityShedsPrecisely) {
  BatchPolicy p;
  p.max_batch = 2;
  p.queue_capacity = 3;
  p.max_pending = 100;
  MicroBatcher b(p);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(b.admit(general(), i, 10), MicroBatcher::Admit::kQueued);
  EXPECT_EQ(b.admit(general(), 3, 10), MicroBatcher::Admit::kQueueFull);
  // A different key still has room.
  EXPECT_EQ(b.admit(cluster(0), 4, 10), MicroBatcher::Admit::kQueued);
  EXPECT_EQ(b.depth(general()), 3u);
  EXPECT_EQ(b.depth(cluster(0)), 1u);
  EXPECT_EQ(b.pending(), 4u);
}

TEST(MicroBatcher, GlobalPendingCapSheds) {
  BatchPolicy p;
  p.max_batch = 1;
  p.queue_capacity = 2;
  p.max_pending = 3;
  MicroBatcher b(p);
  EXPECT_EQ(b.admit(cluster(0), 0, 0), MicroBatcher::Admit::kQueued);
  EXPECT_EQ(b.admit(cluster(1), 1, 0), MicroBatcher::Admit::kQueued);
  EXPECT_EQ(b.admit(cluster(2), 2, 0), MicroBatcher::Admit::kQueued);
  EXPECT_EQ(b.admit(cluster(3), 3, 0), MicroBatcher::Admit::kOverloaded);
}

TEST(MicroBatcher, FullQueueShipsImmediatelyInFifoOrder) {
  BatchPolicy p;
  p.max_batch = 3;
  p.max_wait_us = 1000;
  MicroBatcher b(p);
  for (std::size_t i = 0; i < 3; ++i) b.admit(general(), 10 + i, 50);
  const std::vector<Batch> due = b.pop_due(50);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].key, general());
  // Full queues execute as soon as virtual time reaches them.
  EXPECT_EQ(due[0].exec_us, 50u);
  ASSERT_EQ(due[0].items.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(due[0].items[i].slot, 10 + i);
  EXPECT_EQ(b.pending(), 0u);
}

TEST(MicroBatcher, PartialQueueWaitsForDeadline) {
  BatchPolicy p;
  p.max_batch = 8;
  p.max_wait_us = 1000;
  MicroBatcher b(p);
  b.admit(general(), 0, 100);
  b.admit(general(), 1, 300);
  EXPECT_TRUE(b.pop_due(1099).empty());
  EXPECT_EQ(b.next_deadline_us(), 1100u);
  // A timed-out batch executes exactly at its oldest deadline, even when the
  // driver only notices later — that keeps exec times caller-independent.
  const std::vector<Batch> due = b.pop_due(2500);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].exec_us, 1100u);
  EXPECT_EQ(due[0].items.size(), 2u);
}

TEST(MicroBatcher, AtMostOneBatchPerKeyPerPop) {
  BatchPolicy p;
  p.max_batch = 2;
  p.max_wait_us = 2000;
  p.queue_capacity = 8;
  MicroBatcher b(p);
  for (std::size_t i = 0; i < 5; ++i) b.admit(general(), i, 0);
  std::vector<Batch> due = b.pop_due(0);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].items.size(), 2u);
  EXPECT_EQ(b.depth(general()), 3u);
  due = b.pop_due(0);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].items[0].slot, 2u);
  // The leftover single item is not full and not timed out yet.
  EXPECT_TRUE(b.pop_due(0).empty());
  EXPECT_EQ(b.depth(general()), 1u);
}

TEST(MicroBatcher, DueBatchesComeOutInKeyOrder) {
  BatchPolicy p;
  p.max_batch = 1;
  MicroBatcher b(p);
  b.admit(personal(4), 0, 0);
  b.admit(cluster(1), 1, 0);
  b.admit(general(), 2, 0);
  b.admit(cluster(0), 3, 0);
  const std::vector<Batch> due = b.pop_due(0);
  ASSERT_EQ(due.size(), 4u);
  EXPECT_EQ(due[0].key, general());
  EXPECT_EQ(due[1].key, cluster(0));
  EXPECT_EQ(due[2].key, cluster(1));
  EXPECT_EQ(due[3].key, personal(4));
}

TEST(MicroBatcher, NextDeadlineTracksOldestAcrossKeys) {
  BatchPolicy p;
  p.max_batch = 8;
  p.max_wait_us = 500;
  MicroBatcher b(p);
  EXPECT_EQ(b.next_deadline_us(), UINT64_MAX);
  b.admit(cluster(1), 0, 200);
  b.admit(general(), 1, 100);
  EXPECT_EQ(b.next_deadline_us(), 600u);
  // Draining the older key moves the horizon to the remaining one.
  ASSERT_EQ(b.pop_due(600).size(), 1u);
  EXPECT_EQ(b.next_deadline_us(), 700u);
}

}  // namespace
}  // namespace clear::serve
