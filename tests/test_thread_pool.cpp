#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/telemetry.h"

namespace eefei {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  std::vector<double> out(kN, 0.0);
  pool.parallel_for(kN, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 2.0;
  });
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, static_cast<double>(kN) *
                              static_cast<double>(kN - 1));
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManySmallTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DefaultSizeAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForZeroIsFree) {
  // Regression: a zero-length loop must return before the submission path —
  // no queue traffic, no fn invocation.  The pool.tasks counter observes
  // queue traffic directly, so a regression that re-introduces submission
  // for n == 0 trips the counter check, not just the invocation check.
  obs::Telemetry telemetry;
  const obs::TelemetryScope scope(telemetry);
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(telemetry.metrics.snapshot().counter_value("pool.tasks"), 0.0);
}

TEST(ThreadPool, QueueMetricsCountSubmittedTasks) {
  obs::Telemetry telemetry;
  const obs::TelemetryScope scope(telemetry);
  ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([] {}));
  }
  for (auto& f : futures) f.get();
  const auto snapshot = telemetry.metrics.snapshot();
  EXPECT_EQ(snapshot.counter_value("pool.tasks"), 32.0);
  // Every task's wait and run latency landed in the histograms.
  for (const auto& h : snapshot.histograms) {
    if (h.name == "pool.task_wait.ns" || h.name == "pool.task_run.ns") {
      EXPECT_EQ(h.count, 32u) << h.name;
    }
  }
  // Gauge exists and has settled at zero depth after the drain.
  EXPECT_EQ(snapshot.gauge_value("pool.queue_depth"), 0.0);
}

TEST(ThreadPool, TelemetryMayDieAsSoonAsParallelForReturns) {
  // Regression: workers recorded pool.task_run.ns AFTER running the task,
  // i.e. after its future was made ready, so a caller that destroyed its
  // Telemetry straight after parallel_for returned raced a late histogram
  // write into freed memory (flaky crashes in traced tests).  The run time
  // is now recorded inside the task, before the result is published: by
  // the time parallel_for returns every chunk's run sample is in, and no
  // worker touches the telemetry afterwards.  Run under --gtest_repeat
  // and the sanitizers.
  ThreadPool pool(4);
  constexpr std::size_t kItems = 8;  // one chunk per worker
  const std::size_t chunks = ThreadPool::plan_chunks(kItems, pool.size());
  for (int rep = 0; rep < 200; ++rep) {
    obs::Telemetry telemetry;
    std::uint64_t run_samples = 0;
    {
      const obs::TelemetryScope scope(telemetry);
      pool.parallel_for(kItems, [](std::size_t) {});
      for (const auto& h : telemetry.metrics.snapshot().histograms) {
        if (h.name == "pool.task_run.ns") run_samples = h.count;
      }
    }
    ASSERT_EQ(run_samples, chunks) << "rep " << rep;
  }  // telemetry destroyed here, with the workers still alive
}

TEST(ThreadPool, PlanChunksNeverProducesEmptyChunks) {
  // Regression: chunks = min(n, 4·workers) queued one single-index task per
  // item whenever workers < n < 4·workers — for a handful of ModelBank
  // chunks the queue traffic outweighed the work.  plan_chunks must keep
  // every chunk non-empty (chunks <= n) and cap queue traffic at one chunk
  // per worker until the loop is big enough to split 4-ways.
  for (std::size_t workers = 1; workers <= 16; ++workers) {
    for (std::size_t n = 0; n <= workers * 6; ++n) {
      const std::size_t chunks = ThreadPool::plan_chunks(n, workers);
      if (n == 0) {
        EXPECT_EQ(chunks, 0u);
        continue;
      }
      ASSERT_GE(chunks, 1u) << "n=" << n << " workers=" << workers;
      ASSERT_LE(chunks, n) << "n=" << n << " workers=" << workers;
      // The begin/end arithmetic parallel_for uses must cover [0, n) with
      // no empty chunk.
      std::size_t covered = 0;
      for (std::size_t ci = 0; ci < chunks; ++ci) {
        const std::size_t begin = n * ci / chunks;
        const std::size_t end = n * (ci + 1) / chunks;
        ASSERT_LT(begin, end) << "empty chunk " << ci << " of " << chunks
                              << " for n=" << n << " workers=" << workers;
        covered += end - begin;
      }
      ASSERT_EQ(covered, n);
      // Small loops: exactly one chunk per worker (or per item), never the
      // old one-task-per-index spam.
      if (n > workers && n < workers * 4) {
        EXPECT_EQ(chunks, workers) << "n=" << n << " workers=" << workers;
      }
      if (n >= workers * 4) {
        EXPECT_EQ(chunks, workers * 4);
      }
    }
  }
  // Defensive: a zero-worker plan still yields a runnable (inline) chunk.
  EXPECT_EQ(ThreadPool::plan_chunks(5, 0), 1u);
}

TEST(ThreadPool, SmallParallelForCoversAllIndicesOnce) {
  // The workers < n < 4·workers regime the chunking fix targets.
  ThreadPool pool(4);
  constexpr std::size_t kN = 6;
  std::array<std::atomic<int>, kN> hits{};
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, AcquireSharesOrOwns) {
  std::unique_ptr<ThreadPool> owned;
  EXPECT_EQ(ThreadPool::acquire(0, owned), nullptr);
  EXPECT_EQ(ThreadPool::acquire(1, owned), nullptr);
  EXPECT_EQ(owned, nullptr);
  const std::size_t shared_size = ThreadPool::shared().size();
  if (shared_size > 1) {
    EXPECT_EQ(ThreadPool::acquire(shared_size, owned), &ThreadPool::shared());
    EXPECT_EQ(owned, nullptr);
  }
  const std::size_t other = shared_size == 3 ? 2 : 3;
  ThreadPool* pool = ThreadPool::acquire(other, owned);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool, owned.get());
  EXPECT_EQ(pool->size(), other);
  EXPECT_EQ(ThreadPool::acquire(other, owned), pool);  // reused, not rebuilt
}

TEST(ThreadPool, DestructorDrainsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&] { counter.fetch_add(1); });
    }
  }  // destructor joins
  // All tasks submitted before destruction must have run.
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace eefei
