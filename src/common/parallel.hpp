// Deterministic parallel runtime shared by every hot path.
//
// The design goal is *bit-identical results at any thread count*, which rules
// out work stealing and atomic floating-point accumulation. Instead:
//
//   - `parallel_for` / `parallel_for_chunks` split a [begin, end) index range
//     into fixed chunks of `grain` elements. The chunk layout is a pure
//     function of (range, grain) — never of the thread count — so any
//     per-chunk partial results a caller keeps are the same whether the
//     chunks ran on 1 thread or 16.
//   - `parallel_reduce` computes one partial value per chunk and folds the
//     partials *in ascending chunk order* on the calling thread. Floating
//     point reductions therefore associate identically at every thread
//     count (the ordered-reduction contract; see DESIGN.md §9).
//   - `parallel_for_workers` additionally hands the body a dense worker
//     index < `parallel_workers()`, for callers that keep per-worker scratch
//     (e.g. model replicas for batched inference). Results must not depend
//     on which worker ran which chunk.
//
// The process-wide thread count comes from, in priority order:
// `set_num_threads()`, the CLEAR_NUM_THREADS environment variable (read
// once), else 1 (serial). Parallelism is opt-in: with 1 thread every
// primitive runs inline on the caller with the same chunk layout.
//
// Exceptions thrown by a body propagate to the caller of the parallel
// primitive (the first one thrown wins; remaining chunks still run).
// Nested calls — a body invoking another parallel primitive — execute
// inline on the current thread, so the pool can never deadlock on itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace clear {

/// Work-stealing-free fixed-size thread pool. One parallel region runs at a
/// time; concurrent callers queue on an internal mutex. The calling thread
/// participates in every region, so a pool with W workers executes chunks
/// on up to W+1 threads.
class ThreadPool {
 public:
  /// Spawn `workers` worker threads (0 is valid: everything runs inline).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const { return n_workers_; }

  /// Execute fn(chunk, worker) for every chunk in [0, n_chunks); blocks until
  /// all chunks finished. `worker` is a dense index < workers() + 1 (the
  /// calling thread takes index workers()). Rethrows the first exception a
  /// chunk threw. Reentrant calls from inside a chunk run inline.
  void run(std::size_t n_chunks,
           const std::function<void(std::size_t chunk, std::size_t worker)>& fn);

 private:
  struct Job;
  void worker_main(std::size_t worker_id);
  static void execute_chunks(Job& job, std::size_t worker_id);

  struct Impl;
  Impl* impl_;
  std::size_t n_workers_ = 0;
};

/// std::thread::hardware_concurrency with a floor of 1.
std::size_t hardware_threads();

/// Set the process-wide thread count used by the parallel primitives.
/// 1 = serial (the default); 0 = hardware_threads(); values above 256 are
/// capped. Takes effect for the next parallel region; safe to call between
/// regions from any thread.
void set_num_threads(std::size_t n);

/// Current process-wide thread count (>= 1).
std::size_t num_threads();

/// Upper bound (exclusive) on the worker index passed to
/// parallel_for_workers bodies. Equals num_threads().
std::size_t parallel_workers();

/// True while the current thread executes inside a parallel region; further
/// parallel primitives on this thread run inline.
bool in_parallel_region();

/// Holds the current thread inside a parallel region for its lifetime, so
/// every primitive it calls runs inline on it and never queues for the
/// shared pool. A background thread (the serve layer's trainer) takes one,
/// leaving the pool to the thread that serves. Results are unchanged: the
/// inline path is bit-identical to the pooled one.
class InlineRegion {
 public:
  InlineRegion();
  ~InlineRegion();
  InlineRegion(const InlineRegion&) = delete;
  InlineRegion& operator=(const InlineRegion&) = delete;
};

/// RAII thread-count override (tests, benches): restores the previous
/// setting on destruction.
class NumThreadsGuard {
 public:
  explicit NumThreadsGuard(std::size_t n) : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~NumThreadsGuard() { set_num_threads(prev_); }
  NumThreadsGuard(const NumThreadsGuard&) = delete;
  NumThreadsGuard& operator=(const NumThreadsGuard&) = delete;

 private:
  std::size_t prev_;
};

/// body(chunk_index, chunk_begin, chunk_end) over [begin, end) in chunks of
/// exactly `grain` elements (last chunk may be short). Chunk layout is
/// independent of the thread count.
void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t chunk, std::size_t chunk_begin,
                             std::size_t chunk_end)>& body);

/// body(chunk_begin, chunk_end) — parallel_for_chunks without the index.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// body(worker, chunk_begin, chunk_end) with worker < parallel_workers().
/// The body must produce results that do not depend on the worker-to-chunk
/// mapping (worker index is for scratch storage only).
void parallel_for_workers(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t worker, std::size_t chunk_begin,
                             std::size_t chunk_end)>& body);

/// Ordered deterministic reduction: partials[c] = chunk_fn(chunk_begin,
/// chunk_end) per fixed-grain chunk (computed in parallel), folded as
/// combine(combine(identity, partials[0]), partials[1])... on the calling
/// thread. Bit-identical at every thread count.
template <typename T, typename ChunkFn, typename CombineFn>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T identity, ChunkFn chunk_fn, CombineFn combine) {
  if (end <= begin) return identity;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t n_chunks = (end - begin + g - 1) / g;
  std::vector<T> partials(n_chunks, identity);
  parallel_for_chunks(begin, end, g,
                      [&](std::size_t c, std::size_t lo, std::size_t hi) {
                        partials[c] = chunk_fn(lo, hi);
                      });
  T acc = identity;
  for (std::size_t c = 0; c < n_chunks; ++c) acc = combine(acc, partials[c]);
  return acc;
}

}  // namespace clear
