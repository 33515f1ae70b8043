#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>

#include "util/contracts.hpp"

namespace ffsm {

// One submitted task. Claiming (Pending -> Running or Pending -> Cancelled)
// happens under `mutex`, so exactly one of {a pool worker, a joining
// thread, a canceller} retires each task; the pending deque only carries
// the pointer and never arbitrates.
struct TaskHandle::State {
  enum class Status { kPending, kRunning, kDone, kCancelled };

  std::mutex mutex;
  std::condition_variable done_cv;
  Status status = Status::kPending;  // guarded by mutex
  std::function<void()> fn;          // released on claim/cancel
  CancellationToken token;

  /// Claims a pending task and runs it on the calling thread; a no-op when
  /// some other thread already claimed it. A task whose token was
  /// cancelled before the claim retires as Cancelled without running.
  void claim_and_run() {
    std::function<void()> body;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (status != Status::kPending) return;
      if (token.cancelled()) {
        status = Status::kCancelled;
        fn = nullptr;
        done_cv.notify_all();
        return;
      }
      status = Status::kRunning;
      body = std::move(fn);
      fn = nullptr;
    }
    // Mark Done even on unwind: a body that throws during an inline join
    // must not leave concurrent joiners blocked forever (on a worker the
    // exception terminates the process anyway, per the pool's policy).
    struct MarkDone {
      State* state;
      ~MarkDone() {
        const std::lock_guard<std::mutex> lock(state->mutex);
        state->status = Status::kDone;
        state->done_cv.notify_all();
      }
    } mark{this};
    body();
  }

  /// Retires a still-pending task as Cancelled; returns false when it was
  /// already claimed.
  bool cancel_if_pending() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (status != Status::kPending) return false;
    status = Status::kCancelled;
    fn = nullptr;
    done_cv.notify_all();
    return true;
  }
};

bool TaskHandle::join() {
  FFSM_EXPECTS(state_ != nullptr);
  using Status = State::Status;
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->status == Status::kDone) return true;
    if (state_->status == Status::kCancelled) return false;
  }
  // Pending or running. A pending task is claimed and run inline — the
  // joining thread makes progress even when the pool has zero workers or
  // they are all busy.
  state_->claim_and_run();
  // claim_and_run is a no-op when a pool worker claimed the task between
  // the check above and the claim; the wait below covers that race — join
  // must not return while the body is still running elsewhere.
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->done_cv.wait(lock, [this] {
    return state_->status == Status::kDone ||
           state_->status == Status::kCancelled;
  });
  return state_->status == Status::kDone;
}

void TaskHandle::cancel() {
  FFSM_EXPECTS(state_ != nullptr);
  state_->token.cancel();
  (void)state_->cancel_if_pending();
}

bool TaskHandle::finished() const {
  FFSM_EXPECTS(state_ != nullptr);
  using Status = State::Status;
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->status == Status::kDone ||
         state_->status == Status::kCancelled;
}

TaskHandle ThreadPool::submit(std::function<void()> fn,
                              CancellationToken token) {
  FFSM_EXPECTS(fn != nullptr);
  auto state = std::make_shared<TaskHandle::State>();
  state->fn = std::move(fn);
  state->token = std::move(token);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    FFSM_EXPECTS(!stopping_);
    tasks_.push_back(state);
  }
  work_ready_.notify_one();
  return TaskHandle{std::move(state)};
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  // The calling thread participates in every fan-out, so spawn one fewer
  // worker than the requested parallelism.
  workers_.reserve(threads > 0 ? threads - 1 : 0);
  for (std::size_t i = 1; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  std::deque<std::shared_ptr<TaskHandle::State>> leftover;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    leftover.swap(tasks_);
  }
  work_ready_.notify_all();
  // Tasks still queued at teardown are discarded: mark them Cancelled so
  // outstanding handles' join() returns false instead of blocking forever.
  for (const auto& state : leftover) (void)state->cancel_if_pending();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
    if (stopping_) return;
    const std::shared_ptr<TaskHandle::State> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    // claim_and_run arbitrates against a concurrent inline join() or
    // cancel() via the task's own state mutex; losing the race is a no-op.
    task->claim_and_run();
    lock.lock();
  }
}

void ThreadPool::run_chunks(std::size_t chunks,
                            const std::function<void(std::size_t)>& fn) {
  FFSM_EXPECTS(fn != nullptr);
  if (chunks == 0) return;
  if (workers_.empty() || chunks == 1) {
    for (std::size_t i = 0; i < chunks; ++i) fn(i);
    return;
  }

  // Helpers and the caller claim chunk indices from one counter, so each
  // chunk runs exactly once whoever gets to it.
  struct Chunks {
    const std::function<void(std::size_t)>& fn;
    std::size_t count;
    std::atomic<std::size_t> next{0};
    void claim() {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        fn(i);
      }
    }
  } work{fn, chunks};

  // Every helper is joined on every exit path, including unwind: helpers
  // reference this frame. On unwind the counter is exhausted first, so
  // running helpers stop after their current chunk and pending ones,
  // claimed inline by join(), find nothing to run.
  std::vector<TaskHandle> helpers;
  struct JoinHelpers {
    Chunks& work;
    std::vector<TaskHandle>& helpers;
    ~JoinHelpers() {
      work.next.store(work.count, std::memory_order_relaxed);
      for (TaskHandle& helper : helpers) (void)helper.join();
    }
  } join_helpers{work, helpers};

  // Helpers enter at the front of the queue: they outrank submitted
  // (speculative) tasks, and the most deeply nested fan-out goes first.
  const std::size_t count = std::min(chunks - 1, workers_.size());
  helpers.reserve(count);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    FFSM_EXPECTS(!stopping_);
    for (std::size_t h = 0; h < count; ++h) {
      auto state = std::make_shared<TaskHandle::State>();
      state->fn = [&work] { work.claim(); };
      tasks_.push_front(state);
      helpers.push_back(TaskHandle{std::move(state)});
    }
  }
  for (std::size_t h = 0; h < count; ++h) work_ready_.notify_one();

  work.claim();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

namespace {

struct ChunkPlan {
  std::size_t count = 0;
  std::size_t size = 0;
};

ChunkPlan plan_chunks(std::size_t items, const ThreadPool& pool,
                      const ParallelOptions& options) {
  const std::size_t parallelism = pool.thread_count() + 1;
  const std::size_t max_chunks =
      std::max<std::size_t>(1, parallelism * options.chunks_per_thread);
  ChunkPlan plan;
  plan.count = std::min(items, max_chunks);
  plan.size = (items + plan.count - 1) / plan.count;
  plan.count = (items + plan.size - 1) / plan.size;
  return plan;
}

}  // namespace

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  const ParallelOptions& options) {
  parallel_for_chunked(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      options);
}

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    const ParallelOptions& options) {
  FFSM_EXPECTS(begin <= end);
  const std::size_t items = end - begin;
  if (items == 0) return;

  ThreadPool& pool = options.pool != nullptr ? *options.pool
                                             : ThreadPool::global();
  if (items < options.serial_threshold || pool.thread_count() == 0) {
    body(begin, end);
    return;
  }

  const ChunkPlan plan = plan_chunks(items, pool, options);
  pool.run_chunks(plan.count, [&](std::size_t chunk) {
    const std::size_t lo = begin + chunk * plan.size;
    const std::size_t hi = std::min(end, lo + plan.size);
    if (lo < hi) body(lo, hi);
  });
}

}  // namespace ffsm
