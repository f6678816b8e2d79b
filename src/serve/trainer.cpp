#include "serve/trainer.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace clear::serve {

TrainerThread::TrainerThread() {
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  CLEAR_CHECK_MSG(wake_fd_ >= 0, "eventfd failed: " << std::strerror(errno));
}

TrainerThread::~TrainerThread() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    queue_.clear();
  }
  ready_.notify_all();
  if (thread_.joinable()) thread_.join();
  ::close(wake_fd_);
}

void TrainerThread::post(std::packaged_task<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
    if (!thread_.joinable()) thread_ = std::thread([this] { main(); });
  }
  ready_.notify_one();
}

void TrainerThread::clear_wake() {
  std::uint64_t n = 0;
  [[maybe_unused]] const ssize_t rc = ::read(wake_fd_, &n, sizeof n);
}

void TrainerThread::main() {
  const InlineRegion keep_off_the_pool;
  for (;;) {
    std::packaged_task<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();  // An exception lands in the job's future.
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t rc = ::write(wake_fd_, &one, sizeof one);
  }
}

}  // namespace clear::serve
