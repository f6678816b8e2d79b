#include "common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.hpp"

namespace clear {

namespace {

/// Depth of parallel regions entered on this thread (workers and callers).
thread_local int t_region_depth = 0;

}  // namespace

bool in_parallel_region() { return t_region_depth > 0; }

InlineRegion::InlineRegion() { ++t_region_depth; }
InlineRegion::~InlineRegion() { --t_region_depth; }

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

// ---------------------------------------------------------------------------
// ThreadPool

struct ThreadPool::Job {
  std::function<void(std::size_t, std::size_t)> fn;
  std::size_t n_chunks = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex error_mutex;
  std::exception_ptr error;
};

struct ThreadPool::Impl {
  std::vector<std::thread> threads;
  std::mutex mutex;
  std::condition_variable wake;      ///< Workers wait for a new job.
  std::condition_variable finished;  ///< run() waits for completion.
  std::mutex region_mutex;           ///< One region at a time.
  std::shared_ptr<Job> job;          ///< Current job (null between regions).
  std::uint64_t job_seq = 0;
  bool stop = false;
};

ThreadPool::ThreadPool(std::size_t workers) : impl_(new Impl) {
  n_workers_ = workers;
  impl_->threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    impl_->threads.emplace_back([this, w] { worker_main(w); });
}

ThreadPool::~ThreadPool() {
  {
    // Let an in-flight region drain before tearing the pool down.
    std::lock_guard<std::mutex> region(impl_->region_mutex);
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  for (std::thread& t : impl_->threads) t.join();
  delete impl_;
}

void ThreadPool::execute_chunks(Job& job, std::size_t worker_id) {
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.n_chunks) return;
    {
      InlineRegion guard;  // Nested primitives inside fn run inline.
      try {
        job.fn(c, worker_id);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
    }
    job.done.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_main(std::size_t worker_id) {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(impl_->mutex);
      impl_->wake.wait(
          lock, [&] { return impl_->stop || impl_->job_seq != seen; });
      if (impl_->stop) return;
      seen = impl_->job_seq;
      job = impl_->job;
    }
    if (!job) continue;
    execute_chunks(*job, worker_id);
    if (job->done.load(std::memory_order_acquire) == job->n_chunks) {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      impl_->finished.notify_all();
    }
  }
}

void ThreadPool::run(
    std::size_t n_chunks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n_chunks == 0) return;
  // Inline when nested, when the pool has no workers, or when there is
  // nothing to share — same chunk order, exceptions propagate directly.
  if (t_region_depth > 0 || n_workers_ == 0 || n_chunks == 1) {
    InlineRegion guard;
    for (std::size_t c = 0; c < n_chunks; ++c) fn(c, n_workers_);
    return;
  }
  std::lock_guard<std::mutex> region(impl_->region_mutex);
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->n_chunks = n_chunks;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = job;
    ++impl_->job_seq;
  }
  impl_->wake.notify_all();
  execute_chunks(*job, n_workers_);  // The caller takes worker index W.
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->finished.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->n_chunks;
    });
    impl_->job = nullptr;
  }
  if (job->error) std::rethrow_exception(job->error);
}

// ---------------------------------------------------------------------------
// Process-wide thread count + global pool

namespace {

/// Hard ceiling on the thread count: guards against absurd requests (a
/// negative CLI value cast to size_t, a typo'd env var) turning into a
/// multi-billion-thread spawn attempt.
constexpr std::size_t kMaxThreads = 256;

std::mutex g_pool_mutex;
std::shared_ptr<ThreadPool> g_pool;       ///< Null while serial.
std::size_t g_num_threads = 0;            ///< 0 = not yet resolved.

/// First-use default: CLEAR_NUM_THREADS when set and valid, else 1 (serial).
std::size_t default_num_threads() {
  const char* env = std::getenv("CLEAR_NUM_THREADS");
  if (env && *env) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end && *end == '\0' && v >= 0) {
      const std::size_t n =
          v == 0 ? hardware_threads() : static_cast<std::size_t>(v);
      return n < kMaxThreads ? n : kMaxThreads;
    }
  }
  return 1;
}

/// Resolved thread count + pool under g_pool_mutex.
std::size_t resolve_locked() {
  if (g_num_threads == 0) {
    g_num_threads = default_num_threads();
    if (g_num_threads > 1)
      g_pool = std::make_shared<ThreadPool>(g_num_threads - 1);
  }
  return g_num_threads;
}

std::shared_ptr<ThreadPool> acquire_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  resolve_locked();
  return g_pool;
}

}  // namespace

void set_num_threads(std::size_t n) {
  std::size_t target = n == 0 ? hardware_threads() : n;
  if (target > kMaxThreads) target = kMaxThreads;
  std::shared_ptr<ThreadPool> old;  // Destroyed (joined) outside the lock.
  {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_num_threads == target) return;
    old = std::move(g_pool);
    g_pool.reset();
    g_num_threads = target;
    if (target > 1) g_pool = std::make_shared<ThreadPool>(target - 1);
  }
}

std::size_t num_threads() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return resolve_locked();
}

std::size_t parallel_workers() { return num_threads(); }

// ---------------------------------------------------------------------------
// Loop primitives

void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t n_chunks = (end - begin + g - 1) / g;
  const auto chunk_body = [&](std::size_t c, std::size_t) {
    const std::size_t lo = begin + c * g;
    const std::size_t hi = lo + g < end ? lo + g : end;
    body(c, lo, hi);
  };
  std::shared_ptr<ThreadPool> pool;
  if (!in_parallel_region() && n_chunks > 1) pool = acquire_pool();
  if (pool) {
    pool->run(n_chunks, chunk_body);
  } else {
    InlineRegion guard;
    for (std::size_t c = 0; c < n_chunks; ++c) chunk_body(c, 0);
  }
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for_chunks(begin, end, grain,
                      [&](std::size_t, std::size_t lo, std::size_t hi) {
                        body(lo, hi);
                      });
}

void parallel_for_workers(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t n_chunks = (end - begin + g - 1) / g;
  const auto chunk_body = [&](std::size_t c, std::size_t worker) {
    const std::size_t lo = begin + c * g;
    const std::size_t hi = lo + g < end ? lo + g : end;
    body(worker, lo, hi);
  };
  std::shared_ptr<ThreadPool> pool;
  if (!in_parallel_region() && n_chunks > 1) pool = acquire_pool();
  if (pool) {
    CLEAR_CHECK_MSG(pool->workers() + 1 <= parallel_workers(),
                    "worker index bound mismatch");
    pool->run(n_chunks, chunk_body);
  } else {
    InlineRegion guard;
    for (std::size_t c = 0; c < n_chunks; ++c) chunk_body(c, 0);
  }
}

}  // namespace clear
