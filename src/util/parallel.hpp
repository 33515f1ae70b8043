// Shared-memory parallelism substrate.
//
// The library's hot loops (fault-graph construction, lower-cover candidate
// evaluation, exhaustive fault-injection sweeps) are data-parallel with
// independent iterations. This header provides a reusable fixed-size thread
// pool and a blocking `parallel_for` over an index range with static chunking.
//
// Design notes (README.md, "Parallel generation engine"):
//  * ISO C++ threads only (no OpenMP dependency), per the Core Guidelines'
//    preference for standard facilities; the pool is created lazily and
//    reused.
//  * One mechanism: every unit of pool work is a task. A fan-out publishes
//    helper tasks that claim chunk indices from a shared counter while the
//    caller claims from the same counter, then joins the helpers (a helper
//    no worker picked up is claimed inline and finds nothing left). So a
//    parallel_for nested inside pool work runs on whatever workers are idle,
//    concurrent callers interleave, and progress never depends on a free
//    worker — at any nesting depth and across pools.
//  * Results must be accumulated deterministically: use per-index output
//    slots or per-chunk partials merged in index order, never unordered
//    atomics, so that runs are reproducible regardless of thread count.
#pragma once

#include <condition_variable>
#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ffsm {

/// Cooperative cancellation flag shared between a task's submitter and its
/// body. Copies share one flag; cancel() is sticky and thread-safe. A task
/// observes cancellation by polling cancelled() at its own safe points —
/// cancellation never interrupts a running body.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const noexcept {
    flag_->store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Handle to one task submitted with ThreadPool::submit.
///
/// Lifecycle: Pending (queued) -> Running -> Done, or Pending -> Cancelled.
/// join() never deadlocks, even on a pool with zero workers: a still-pending
/// task is claimed and run inline on the joining thread. Handles are
/// copyable (they share the task's state) and outlive the pool — a task the
/// pool's destructor discarded reports Cancelled.
class TaskHandle {
 public:
  /// Empty handle; valid() is false and the other members must not be
  /// called.
  TaskHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Blocks until the task finished; a still-pending task is claimed and
  /// executed inline on this thread (so progress never depends on pool
  /// workers being available). Returns true when the body ran to
  /// completion, false when the task was cancelled before it started.
  bool join();

  /// Cancels the task's token and, when the task has not started yet,
  /// retires it unrun (join() will return false). A task already running
  /// only sees the cooperative token.
  void cancel();

  /// True once the task is Done or Cancelled (non-blocking).
  [[nodiscard]] bool finished() const;

 private:
  friend class ThreadPool;
  struct State;
  explicit TaskHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// A fixed-size pool of worker threads executing submitted tasks.
///
/// Exception policy: a task that throws terminates the program (the
/// exception escapes the worker). Library callers wrap user callbacks so
/// this only happens on contract violations inside ffsm itself.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Runs fn(chunk_index) for chunk_index in [0, chunks) across the pool and
  /// blocks until all chunks completed. The calling thread participates.
  ///
  /// Publishes up to min(chunks - 1, thread_count()) helper tasks ahead of
  /// every submitted task, so idle workers join in; safe to call from any
  /// thread, concurrently, and from inside tasks of this or another pool.
  /// When fn throws on the calling thread, no further chunk is handed out,
  /// every helper is joined, and the exception propagates.
  void run_chunks(std::size_t chunks,
                  const std::function<void(std::size_t)>& fn);

  /// Enqueues one independent task behind every fan-out helper (submitted
  /// tasks are the speculative/background tier). The token is polled
  /// before the body starts: a task cancelled while still queued is retired
  /// unrun. Tasks must not throw (same policy as run_chunks bodies: an
  /// escaped exception on a worker terminates; one escaping an inline
  /// join() propagates to the joiner).
  TaskHandle submit(std::function<void()> fn,
                    CancellationToken token = {});

  /// Process-wide default pool (lazily constructed, hardware concurrency).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  bool stopping_ = false;            // guarded by mutex_
  /// Pending tasks; guarded by mutex_. Fan-out helpers enter at the front,
  /// submitted tasks at the back. Entries are claimed under the task's own
  /// state mutex, so a joiner racing a worker for the same task resolves
  /// cleanly (one runs it, the other waits).
  std::deque<std::shared_ptr<TaskHandle::State>> tasks_;
};

/// Options controlling parallel_for execution.
struct ParallelOptions {
  /// Pool to run on; nullptr means ThreadPool::global().
  ThreadPool* pool = nullptr;
  /// Below this iteration count the loop runs serially on the caller.
  std::size_t serial_threshold = 1024;
  /// Upper bound on chunks per thread (load-balancing granularity).
  std::size_t chunks_per_thread = 4;
};

/// Calls body(i) for every i in [begin, end), potentially in parallel.
/// body must be safe to invoke concurrently for distinct i.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  const ParallelOptions& options = {});

/// Calls body(chunk_begin, chunk_end) over a partition of [begin, end) into
/// contiguous chunks. Preferred over parallel_for when the body keeps
/// per-chunk scratch state (e.g. local accumulators).
void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    const ParallelOptions& options = {});

}  // namespace ffsm
