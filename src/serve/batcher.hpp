// Dynamic micro-batching for the serving layer (DESIGN.md §12).
//
// Pending requests are coalesced per *batch key* — the (model route,
// precision) pair that determines which engine executes them — under a
// max-batch / max-wait policy. Time is the caller's virtual clock (request
// arrival timestamps), never the wall clock, so the batches formed for a
// given request stream are a pure function of (stream, policy): bit-identical
// across runs and thread counts.
//
// The batcher holds only lightweight slot handles; request payloads stay in
// the server's pending table. Admission is bounded twice — per-key queue
// capacity and a global pending cap — and a rejected admit tells the caller
// which bound fired so load-shedding errors can be addressed precisely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "edge/engine.hpp"

namespace clear::serve {

/// Identifies which engine a request executes on. Requests only share a
/// batch when their keys compare equal.
struct BatchKey {
  enum class Kind : std::uint8_t {
    kGeneral = 0,   ///< Population-general fallback model.
    kCluster = 1,   ///< Cluster `id`'s pre-trained model.
    kPersonal = 2,  ///< User `id`'s fine-tuned model.
  };

  Kind kind = Kind::kGeneral;
  std::size_t id = 0;  ///< Cluster index (kCluster) or user id (kPersonal).
  edge::Precision precision = edge::Precision::kFp32;

  /// "general/fp32", "cluster3/int8", "user17/fp16" — stable display form.
  std::string str() const;

  friend bool operator==(const BatchKey& a, const BatchKey& b) {
    return a.kind == b.kind && a.id == b.id && a.precision == b.precision;
  }
  friend bool operator<(const BatchKey& a, const BatchKey& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.id != b.id) return a.id < b.id;
    return a.precision < b.precision;
  }
};

struct BatchPolicy {
  std::size_t max_batch = 8;       ///< Rows per executed batch.
  /// Oldest request's max queueing delay. At 0 a request's batch is due at
  /// its own arrival stamp: only same-stamp arrivals (and full queues) share
  /// a batch. A wait can pay off only where one batched invoke replaces
  /// several costly ones or a thread pool runs several due keys side by side.
  std::uint64_t max_wait_us = 0;
  std::size_t queue_capacity = 32;   ///< Per-key pending bound.
  std::size_t max_pending = 256;     ///< Global pending bound (all keys).
};

/// One queued request: an opaque slot id into the server's pending table
/// plus its virtual-time bookkeeping.
struct PendingItem {
  std::size_t slot = 0;
  std::uint64_t enqueue_us = 0;
  std::uint64_t deadline_us = 0;  ///< enqueue_us + max_wait_us.
};

/// A batch released for execution.
struct Batch {
  BatchKey key;
  std::uint64_t exec_us = 0;  ///< Virtual execution time.
  std::vector<PendingItem> items;  ///< FIFO admission order.
};

class MicroBatcher {
 public:
  explicit MicroBatcher(BatchPolicy policy);

  enum class Admit {
    kQueued,      ///< Accepted.
    kQueueFull,   ///< Per-key queue at capacity — shed this request.
    kOverloaded,  ///< Global pending cap reached — shed this request.
  };

  /// Try to queue `slot` under `key` at virtual time `now_us`.
  Admit admit(const BatchKey& key, std::size_t slot, std::uint64_t now_us);

  /// Release due batches at virtual time `now_us`, at most ONE batch per key
  /// (callers loop until empty, so one engine never sees two of its batches
  /// concurrently). A key is due when its queue has reached max_batch or its
  /// oldest request's deadline has passed. Batches come out in key order;
  /// a full queue executes "immediately" (exec_us = min(now, oldest
  /// deadline)), a timed-out one at its oldest deadline.
  std::vector<Batch> pop_due(std::uint64_t now_us);

  /// Earliest pending deadline across all keys, or UINT64_MAX when empty.
  /// Drivers use this to step virtual time during drain.
  std::uint64_t next_deadline_us() const;

  std::size_t pending() const { return pending_; }
  std::size_t depth(const BatchKey& key) const;
  const BatchPolicy& policy() const { return policy_; }

 private:
  BatchPolicy policy_;
  std::map<BatchKey, std::deque<PendingItem>> queues_;
  std::size_t pending_ = 0;
};

}  // namespace clear::serve
