// The serve layer's trainer thread (DESIGN.md §12): fine-tunes run here, off
// the serving loop, one at a time in the order they were posted.
//
// The thread starts with the first job and holds an InlineRegion for its
// whole life, so the parallel primitives a fine-tune calls run inline on it
// and the shared pool stays the serving loop's. Each finished job makes
// wake_fd() readable; an event loop polls that fd instead of taking a
// callback, so a job finishing during teardown never writes to a descriptor
// its front end has already closed.
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

namespace clear::serve {

class TrainerThread {
 public:
  TrainerThread();
  /// Drops the jobs still queued, lets the running one finish, and joins.
  ~TrainerThread();
  TrainerThread(const TrainerThread&) = delete;
  TrainerThread& operator=(const TrainerThread&) = delete;

  /// Queue `job` behind every job posted before it.
  void post(std::packaged_task<void()> job);

  /// Readable once a job has finished since the last clear_wake().
  int wake_fd() const { return wake_fd_; }
  void clear_wake();

 private:
  void main();

  int wake_fd_ = -1;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::packaged_task<void()>> queue_;  ///< Guarded by mutex_.
  bool stop_ = false;                             ///< Guarded by mutex_.
  std::thread thread_;  ///< Last: everything above outlives it.
};

}  // namespace clear::serve
