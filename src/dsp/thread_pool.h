// A small fixed-size worker pool for the localization engine. std::thread +
// a mutex-guarded task queue, no external dependencies. A pool of size 1
// owns no threads at all: Submit and ParallelFor run inline on the calling
// thread, so single-threaded users pay zero scheduling overhead. Larger
// pools run ParallelFor on the caller plus queued helpers; each worker
// starts on its own CPU, so a fresh pool's first fan-out already spreads.
//
// Observability (DESIGN.md §5d): every pool shares the registry metrics
//   dsp.thread_pool.submitted / completed  (counters)
//   dsp.thread_pool.queue_depth            (up/down gauge + high-watermark)
//   dsp.thread_pool.task_latency_us        (histogram, enqueue->completion)
// and each instance tracks its own submitted/completed pair so the
// destructor can assert that shutdown dropped no work.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace bloc::dsp {

class ThreadPool {
 public:
  /// `num_threads == 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains already-submitted tasks, then joins the workers. Asserts that
  /// every accepted task ran (the queue design cannot drop work; the
  /// assertion keeps it that way).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of execution slots (>= 1). ParallelFor passes slot ids in
  /// [0, size()) to its body, so callers can keep one workspace per slot.
  std::size_t size() const { return size_; }

  /// Enqueues a task (runs it inline on a size-1 pool). The task must not
  /// throw: it reports its own outcome, as LocalizationEngine::LocateAsync's
  /// does through its completion callback. An exception escaping a task on
  /// a worker thread ends the program (std::terminate).
  void Submit(std::function<void()> task);

  /// Runs fn(index, slot) for every index in [0, n) and returns once all
  /// have finished. Caller-participating: the calling thread claims indices
  /// as slot 0 while up to min(size(), n) - 1 queued helpers claim the rest
  /// as slots 1..; each slot id is used by exactly one thread per call. The
  /// caller never waits for a helper to start, only for indices a helper
  /// has already claimed, so a pool task may fan out on its own pool: on a
  /// saturated pool it simply runs every index itself. Helpers that start
  /// after the call returned find no index left and never touch `fn`. The
  /// first exception thrown by any invocation (the caller's own included)
  /// is rethrown here; indices not yet started are then skipped.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t index,
                                            std::size_t slot)>& fn) const;

  /// Lifetime totals for this pool (inline-mode executions included).
  /// completed may momentarily lag submitted while a worker is between
  /// signalling its caller and retiring the task; after the destructor
  /// joins the workers the two are exactly equal (asserted there).
  std::uint64_t tasks_submitted() const {
    return tasks_submitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t tasks_completed() const {
    return tasks_completed_.load(std::memory_order_relaxed);
  }
  /// Tasks currently waiting in this pool's queue.
  std::size_t queue_depth() const;

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;
  };

  void WorkerLoop();
  void Enqueue(std::function<void()> task) const;
  void RunTask(QueuedTask& task) const;

  std::size_t size_ = 1;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable std::deque<QueuedTask> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  mutable std::atomic<std::uint64_t> tasks_submitted_{0};
  mutable std::atomic<std::uint64_t> tasks_completed_{0};
  // Registry handles, resolved once per pool.
  obs::Counter& submitted_metric_;
  obs::Counter& completed_metric_;
  obs::UpDownGauge& queue_depth_metric_;
  obs::Histogram& task_latency_metric_;
};

}  // namespace bloc::dsp
