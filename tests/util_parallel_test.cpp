#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ffsm {
namespace {

// Generous bound on every wait below: a correct pool meets each rendezvous
// in microseconds, and a broken one fails the test instead of hanging it.
constexpr auto kRendezvousTimeout = std::chrono::seconds(20);

// A one-shot latch whose waits time out, so a test that would deadlock on
// a broken pool reports a failure instead.
class TimedLatch {
 public:
  explicit TimedLatch(std::size_t count) : count_(count) {}

  void count_down() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (count_ > 0 && --count_ == 0) released_.notify_all();
  }

  /// True when the latch opened before the timeout.
  bool wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    return released_.wait_for(lock, kRendezvousTimeout,
                              [this] { return count_ == 0; });
  }

  bool arrive_and_wait() {
    count_down();
    return wait();
  }

 private:
  std::mutex mutex_;
  std::condition_variable released_;
  std::size_t count_;
};

TEST(ThreadPool, ReportsThreadCount) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 3u);  // caller participates as the 4th
}

TEST(ThreadPool, SingleThreadPoolHasNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 0u);
}

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kChunks = 1000;
  std::vector<std::atomic<int>> hits(kChunks);
  pool.run_chunks(kChunks, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kChunks; ++i)
    EXPECT_EQ(hits[i].load(), 1) << "chunk " << i;
}

TEST(ThreadPool, ZeroChunksIsANoop) {
  ThreadPool pool(2);
  pool.run_chunks(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.run_chunks(64, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 64u * 63u / 2);
  }
}

TEST(ParallelFor, CoversTheRange) {
  constexpr std::size_t kN = 100000;
  std::vector<int> hits(kN, 0);
  parallel_for(0, kN, [&](std::size_t i) { ++hits[i]; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelFor, RespectsBeginOffset) {
  std::vector<int> hits(100, 0);
  ParallelOptions opts;
  opts.serial_threshold = 1;
  parallel_for(40, 60, [&](std::size_t i) { ++hits[i]; }, opts);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(hits[i], (i >= 40 && i < 60) ? 1 : 0) << i;
}

TEST(ParallelFor, EmptyRangeDoesNothing) {
  parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, SmallRangeRunsSerial) {
  // Below the threshold the body runs on the calling thread.
  const auto caller = std::this_thread::get_id();
  ParallelOptions opts;
  opts.serial_threshold = 1000;
  parallel_for(0, 10, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  }, opts);
}

TEST(ParallelForChunked, ChunksPartitionTheRange) {
  constexpr std::size_t kN = 50000;
  std::vector<int> hits(kN, 0);
  ParallelOptions opts;
  opts.serial_threshold = 1;
  parallel_for_chunked(
      0, kN,
      [&](std::size_t lo, std::size_t hi) {
        ASSERT_LE(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      },
      opts);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelForChunked, DeterministicReductionByChunkSlots) {
  // The canonical deterministic pattern: per-chunk partials, merged in
  // order. Run it twice and on different pool sizes; results must agree.
  constexpr std::size_t kN = 10000;
  const auto reduce = [&](ThreadPool& pool) {
    std::vector<double> partials;
    std::mutex mu;
    ParallelOptions opts;
    opts.pool = &pool;
    opts.serial_threshold = 1;
    double total = 0;
    parallel_for_chunked(
        0, kN,
        [&](std::size_t lo, std::size_t hi) {
          double local = 0;
          for (std::size_t i = lo; i < hi; ++i)
            local += static_cast<double>(i) * 0.5;
          const std::lock_guard<std::mutex> lock(mu);
          total += local;
        },
        opts);
    return total;
  };
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  EXPECT_DOUBLE_EQ(reduce(pool1), reduce(pool8));
}

TEST(ParallelFor, ExplicitPoolIsUsed) {
  ThreadPool pool(3);
  ParallelOptions opts;
  opts.pool = &pool;
  opts.serial_threshold = 1;
  std::atomic<std::size_t> count{0};
  parallel_for(0, 5000, [&](std::size_t) { ++count; }, opts);
  EXPECT_EQ(count.load(), 5000u);
}

TEST(ParallelFor, NestedSerialInsideParallelIsSafe) {
  // Inner loops below the serial threshold never touch the pool, so nesting
  // is fine as long as the inner side stays serial.
  std::vector<std::atomic<int>> hits(64 * 64);
  ParallelOptions outer;
  outer.serial_threshold = 1;
  parallel_for(0, 64, [&](std::size_t i) {
    for (std::size_t j = 0; j < 64; ++j) ++hits[i * 64 + j];
  }, outer);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(GlobalPool, IsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().thread_count() + 1, 1u);
}

TEST(ThreadPool, NestedRunChunksRunsEveryChunkOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> outer(16);
  std::vector<std::atomic<int>> inner(16 * 8);
  pool.run_chunks(16, [&](std::size_t i) {
    ++outer[i];
    // A chunk fanning out on its own pool must not deadlock, whether its
    // helpers find idle workers or are claimed back by this thread.
    pool.run_chunks(8, [&, i](std::size_t j) { ++inner[i * 8 + j]; });
  });
  for (auto& h : outer) EXPECT_EQ(h.load(), 1);
  for (auto& h : inner) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedRunChunksFromAWorkerUsesIdleWorkers) {
  // Both chunks of the nested fan-out wait on a latch only two threads can
  // release, so it completes only when an idle worker helps the worker that
  // issued it.
  ThreadPool pool(4);
  std::atomic<bool> started{false};
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::atomic<int> released{0};
  TimedLatch both(2);
  TaskHandle task = pool.submit([&] {
    started = true;
    pool.run_chunks(2, [&](std::size_t) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
      }
      if (both.arrive_and_wait()) ++released;
    });
  });
  // Join only once a worker runs the task, so the fan-out is issued from a
  // worker rather than claimed inline by this thread.
  while (!started) std::this_thread::yield();
  EXPECT_TRUE(task.join());
  EXPECT_EQ(released.load(), 2);
  EXPECT_GE(threads.size(), 2u);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
}

TEST(ThreadPool, HelpersOutrankSubmittedTasks) {
  // One worker, parked until the caller's first chunk runs. By then the
  // queue holds a background task and, in front of it, the fan-out's
  // helper: the worker must take the helper (and with it chunk 1) first.
  ThreadPool pool(2);
  TimedLatch parked(1);
  std::atomic<bool> worker_parked{false};
  TaskHandle blocker = pool.submit([&] {
    worker_parked = true;
    EXPECT_TRUE(parked.wait());
  });
  while (!worker_parked) std::this_thread::yield();
  std::atomic<bool> background_ran{false};
  TaskHandle background = pool.submit([&] { background_ran = true; });

  TimedLatch chunk1_done(1);
  bool background_ran_before_chunk1 = true;
  pool.run_chunks(2, [&](std::size_t i) {
    if (i == 0) {
      parked.count_down();
      EXPECT_TRUE(chunk1_done.wait());
    } else {
      background_ran_before_chunk1 = background_ran.load();
      chunk1_done.count_down();
    }
  });
  EXPECT_FALSE(background_ran_before_chunk1);
  EXPECT_TRUE(blocker.join());
  EXPECT_TRUE(background.join());
}

TEST(ThreadPool, NestsThreeLevelsOnSmallPools) {
  for (const std::size_t threads : {1u, 2u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(4 * 4 * 4);
    pool.run_chunks(4, [&](std::size_t i) {
      pool.run_chunks(4, [&, i](std::size_t j) {
        pool.run_chunks(4, [&, i, j](std::size_t k) {
          ++hits[(i * 4 + j) * 4 + k];
        });
      });
    });
    for (std::size_t c = 0; c < hits.size(); ++c)
      EXPECT_EQ(hits[c].load(), 1) << threads << " threads, cell " << c;
  }
}

TEST(ThreadPool, ThrowingCallerChunkJoinsHelpersFirst) {
  // Helper chunks touch the fan-out's frame until the caller's chunk has
  // thrown; the exception may only surface once every helper left, or the
  // helpers would read a dead frame (ASan reports that use).
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  TimedLatch helping(1);
  TimedLatch thrown(1);
  std::atomic<int> running{0};
  std::atomic<int> ran{0};
  bool caught = false;
  try {
    pool.run_chunks(16, [&](std::size_t) {
      if (std::this_thread::get_id() == caller) {
        EXPECT_TRUE(helping.wait());
        thrown.count_down();
        throw std::runtime_error("caller chunk");
      }
      ++running;
      helping.count_down();
      EXPECT_TRUE(thrown.wait());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ++ran;
      --running;
    });
  } catch (const std::runtime_error&) {
    caught = true;
    EXPECT_EQ(running.load(), 0);
  }
  EXPECT_TRUE(caught);
  EXPECT_GT(ran.load(), 0);
}
TEST(TaskHandle, EmptyHandleIsInvalid) {
  TaskHandle handle;
  EXPECT_FALSE(handle.valid());
}

TEST(TaskHandle, SubmitRunsAndJoinReportsCompletion) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  TaskHandle task = pool.submit([&] { ++ran; });
  ASSERT_TRUE(task.valid());
  EXPECT_TRUE(task.join());
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(task.finished());
  // join() is idempotent.
  EXPECT_TRUE(task.join());
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskHandle, JoinClaimsInlineOnWorkerlessPool) {
  // ThreadPool(1) has no workers, so nothing can run the task but the
  // joiner itself.
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  TaskHandle task = pool.submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_FALSE(task.finished());
  EXPECT_TRUE(task.join());
  EXPECT_EQ(ran_on, caller);
}

TEST(TaskHandle, CancelPendingTaskRetiresItUnrun) {
  ThreadPool pool(1);  // zero workers: the task stays pending
  std::atomic<int> ran{0};
  CancellationToken token;
  TaskHandle task = pool.submit([&] { ++ran; }, token);
  task.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(task.finished());
  EXPECT_FALSE(task.join());
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskHandle, CancelledTokenRetiresTaskAtClaimTime) {
  // Cancelling the token (not the handle) after submission: the claim-time
  // poll retires the task before the body starts.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  CancellationToken token;
  TaskHandle task = pool.submit([&] { ++ran; }, token);
  token.cancel();
  EXPECT_FALSE(task.join());
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskHandle, ManyTasksAllRunOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<TaskHandle> tasks;
  tasks.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i)
    tasks.push_back(pool.submit([&, i] { ++hits[i]; }));
  for (TaskHandle& t : tasks) EXPECT_TRUE(t.join());
  for (std::size_t i = 0; i < kTasks; ++i)
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(TaskHandle, TasksInterleaveWithFanOuts) {
  // Submitted tasks are the background tier: fan-outs must still complete
  // while tasks are queued, and every task still runs exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 32;
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<TaskHandle> tasks;
  for (std::size_t i = 0; i < kTasks; ++i)
    tasks.push_back(pool.submit([&, i] { ++hits[i]; }));
  std::atomic<std::size_t> batch_sum{0};
  pool.run_chunks(128, [&](std::size_t i) { batch_sum += i; });
  EXPECT_EQ(batch_sum.load(), 128u * 127u / 2);
  for (TaskHandle& t : tasks) EXPECT_TRUE(t.join());
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(TaskHandle, JoinBlocksWhenWorkerClaimsConcurrently) {
  // Regression: join() used to return false immediately when a pool worker
  // claimed the task between join()'s pending check and its inline claim —
  // while the body was still running. Submit-then-join-immediately is
  // exactly that race; with workers present, whoever loses the claim must
  // wait for the winner, so join() == true and the body has finished.
  ThreadPool pool(4);
  constexpr std::size_t kRounds = 500;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::atomic<bool> body_finished{false};
    TaskHandle task = pool.submit([&] {
      // A short spin widens the window in which join() can observe the
      // task Running rather than Pending or Done.
      for (volatile int spin = 0; spin < 64; ++spin) {
      }
      body_finished.store(true);
    });
    EXPECT_TRUE(task.join()) << "round " << round;
    EXPECT_TRUE(body_finished.load()) << "round " << round;
  }
}

TEST(TaskHandle, DestroyedPoolCancelsPendingTasks) {
  std::atomic<int> ran{0};
  TaskHandle task;
  {
    ThreadPool pool(1);  // zero workers: the task cannot start
    task = pool.submit([&] { ++ran; });
  }
  // The handle outlives the pool; the discarded task reports Cancelled.
  EXPECT_TRUE(task.finished());
  EXPECT_FALSE(task.join());
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, ConcurrentExternalFanOutsRunEveryChunkOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kChunks = 128;
  std::vector<std::vector<std::atomic<int>>> hits(kSubmitters);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kChunks);

  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&, t] {
      pool.run_chunks(kChunks, [&, t](std::size_t i) { ++hits[t][i]; });
    });
  for (auto& s : submitters) s.join();
  for (auto& per_thread : hits)
    for (auto& h : per_thread) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentFanOutsWaitingOnEachOtherComplete) {
  // Every chunk of each submitter waits until a chunk of the other one has
  // started. A pool that ran one external fan-out at a time would time out
  // here; interleaved fan-outs meet at once.
  ThreadPool pool(2);
  std::atomic<bool> started[2] = {false, false};
  std::atomic<int> met{0};
  const auto fan_out = [&](std::size_t self) {
    pool.run_chunks(4, [&, self](std::size_t) {
      started[self] = true;
      const auto deadline =
          std::chrono::steady_clock::now() + kRendezvousTimeout;
      while (!started[1 - self] && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      if (started[1 - self]) ++met;
    });
  };
  std::thread first(fan_out, 0);
  std::thread second(fan_out, 1);
  first.join();
  second.join();
  EXPECT_EQ(met.load(), 8);
}

}  // namespace
}  // namespace ffsm
