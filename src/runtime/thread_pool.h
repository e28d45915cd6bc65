#ifndef DELPROP_RUNTIME_THREAD_POOL_H_
#define DELPROP_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace delprop {

/// A fixed-size worker pool with a single shared FIFO queue. Deliberately
/// simple (no work stealing, no priorities): solver runs and workload sweeps
/// are coarse-grained tasks, so a mutex-guarded queue is never the
/// bottleneck, and the simplicity keeps the pool easy to reason about under
/// TSan.
///
/// Tasks must not throw — the library reports failures via Status, and an
/// escaping exception would terminate the worker thread.
///
/// Determinism contract: the pool itself guarantees nothing about execution
/// order. Callers that need reproducible results must (a) write results into
/// pre-assigned slots (as ParallelFor's body does by index) and (b) seed any
/// randomness per task via DeriveTaskSeed rather than sharing one Rng stream
/// across tasks.
class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t threads);

  /// Drains the queue, waits for in-flight tasks, and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return workers_.size(); }

  /// Enqueues `task` for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void Wait();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently executing
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `body(0) ... body(count - 1)`, spreading iterations over `pool`'s
/// workers; the calling thread blocks until every iteration has finished.
/// With a null pool (or a single worker, or a single iteration) the loop runs
/// inline on the calling thread — callers write one code path and switch
/// parallelism with a flag. A call from one of `pool`'s own workers (a body
/// of an outer ParallelFor on the same pool) also runs inline: blocking that
/// worker on runners queued behind it would deadlock once every worker did.
///
/// Iterations are claimed dynamically (atomic counter), so the mapping of
/// iteration to thread is nondeterministic; bodies must be independent and
/// write only to their own index's state.
void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body);

}  // namespace delprop

#endif  // DELPROP_RUNTIME_THREAD_POOL_H_
