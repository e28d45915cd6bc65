#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace delprop {

namespace {

/// The pool whose worker is running on this thread, or null on a thread no
/// pool owns. ParallelFor reads it to run a nested loop inline.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  threads = std::max<size_t>(1, threads);
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      // Drain remaining work even during shutdown so Submit-then-destroy
      // never drops tasks.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body) {
  if (count == 0) return;
  // A body that calls ParallelFor on the pool running it would block its
  // worker on runners queued behind it; when every worker does, nothing
  // runs them. Such a nested loop runs inline instead.
  if (pool == nullptr || pool->thread_count() <= 1 || count == 1 ||
      pool == current_pool) {
    for (size_t i = 0; i < count; ++i) body(i);
    return;
  }
  struct SharedState {
    std::atomic<size_t> next{0};
    std::mutex mutex;
    std::condition_variable done;
    size_t live_runners = 0;
  };
  auto state = std::make_shared<SharedState>();
  size_t runners = std::min(pool->thread_count(), count);
  state->live_runners = runners;
  for (size_t r = 0; r < runners; ++r) {
    // `body` is captured by reference: ParallelFor does not return before
    // every runner has finished, so the reference outlives all uses.
    pool->Submit([state, count, &body] {
      for (size_t i = state->next.fetch_add(1); i < count;
           i = state->next.fetch_add(1)) {
        body(i);
      }
      std::unique_lock<std::mutex> lock(state->mutex);
      if (--state->live_runners == 0) state->done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] { return state->live_runners == 0; });
}

}  // namespace delprop
