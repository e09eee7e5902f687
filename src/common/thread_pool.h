// Fixed-size thread pool used to run selected clients' local training in
// parallel inside one global round (the edge servers of the prototype train
// concurrently, so the simulation should too).
//
// A process-wide shared() pool is created lazily on first use so every
// subsystem (Coordinator rounds, sharded evaluation, the sweep engine) draws
// from one set of workers instead of each spinning up its own.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace eefei {

namespace obs {
class Telemetry;
}  // namespace obs

namespace detail {
// Telemetry hooks, defined in thread_pool.cpp so this header stays free of
// obs includes.  With telemetry disabled each is a pointer check and
// nothing else (pool_enqueue_ns returns 0 without reading a clock).
[[nodiscard]] std::uint64_t pool_enqueue_ns();
void pool_note_queue_depth(std::size_t depth, bool enqueued);

/// Times one task body into pool.task_wait.ns / pool.task_run.ns.  It
/// lives INSIDE the packaged task, so the run time is recorded before the
/// task's future becomes ready: a caller may destroy its Telemetry as soon
/// as the future (or parallel_for) returns, and no worker touches it after.
class PoolTaskTimer {
 public:
  explicit PoolTaskTimer(std::uint64_t enqueue_ns);
  ~PoolTaskTimer();
  PoolTaskTimer(const PoolTaskTimer&) = delete;
  PoolTaskTimer& operator=(const PoolTaskTimer&) = delete;

 private:
  obs::Telemetry* telemetry_ = nullptr;  // null: telemetry off at start
  std::uint64_t start_ns_ = 0;
};
}  // namespace detail

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Lazily-created process-wide pool sized to hardware_concurrency.
  /// Never destroyed before main() returns; safe to call from any thread.
  [[nodiscard]] static ThreadPool& shared();

  /// The pool a component configured for `threads` workers runs on: null
  /// (run serially) when threads <= 1, shared() when it has exactly that
  /// many workers, else the pool in `owned`, created there on first use so
  /// the owner reuses it across calls.
  [[nodiscard]] static ThreadPool* acquire(std::size_t threads,
                                           std::unique_ptr<ThreadPool>& owned);

  /// Enqueues a task; the returned future rethrows any task exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    const std::uint64_t enqueue_ns = detail::pool_enqueue_ns();
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f), enqueue_ns]() mutable -> R {
          const detail::PoolTaskTimer timer(enqueue_ns);
          return fn();
        });
    std::future<R> result = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      tasks_.push([task] { (*task)(); });
      queued_.fetch_add(1, std::memory_order_relaxed);
      detail::pool_note_queue_depth(tasks_.size(), /*enqueued=*/true);
    }
    cv_.notify_one();
    return result;
  }

  /// Applies fn(i) for i in [0, n) and waits for all.  Work is submitted in
  /// contiguous index chunks (a few per worker) instead of one task per
  /// index, so tiny per-index bodies don't drown in queue overhead.  Runs
  /// inline — same iteration order, same effects — when the pool has a
  /// single worker, when n <= 1, or when called from inside one of this
  /// pool's own workers (a nested parallel_for must not wait on a queue it
  /// is itself draining).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Chunk count parallel_for uses for n items on `workers` workers.  Every
  /// chunk covers at least one index (no empty submissions), small loops
  /// (n < 4·workers) get exactly one chunk per worker instead of one task
  /// per index, and large loops get 4 chunks per worker for load balance.
  /// Exposed for the chunking regression test.
  [[nodiscard]] static std::size_t plan_chunks(std::size_t n,
                                               std::size_t workers) {
    if (n == 0 || workers == 0) return n == 0 ? 0 : 1;
    if (n <= workers) return n;
    if (n < workers * 4) return workers;
    return workers * 4;
  }

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  /// How long an idle worker keeps polling the queue before it sleeps on
  /// the condition variable.  Fork-join callers (a split ModelBank epoch
  /// dispatches twice per epoch, about a millisecond apart) then find their
  /// workers still running: a worker woken from sleep can be queued behind
  /// a busy thread on another CPU and start a scheduler tick late, which
  /// stalls the whole join.
  static constexpr std::chrono::microseconds kIdlePoll{200};

  void worker_loop();

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const;

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  /// Queued task count, readable without the mutex (the idle poll).
  std::atomic<std::size_t> queued_{0};
};

}  // namespace eefei
