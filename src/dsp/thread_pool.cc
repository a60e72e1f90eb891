#include "dsp/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <cassert>
#include <exception>
#include <memory>

namespace bloc::dsp {

namespace {

/// Moves the calling worker onto the `index`-th CPU it may use, then lets it
/// run anywhere again. New threads start on their creator's CPU, where a VM's
/// scheduler was seen to leave them for ~1 s of fan-outs, which then ran
/// serially on the caller; after one move each worker wakes on its own CPU.
void SpreadOntoCpu(std::size_t index) {
#ifdef __linux__
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  auto skip = index % static_cast<std::size_t>(CPU_COUNT(&allowed));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      sched_setaffinity(0, sizeof(allowed), &allowed);
    }
    return;
  }
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : submitted_metric_(obs::GetCounter("dsp.thread_pool.submitted")),
      completed_metric_(obs::GetCounter("dsp.thread_pool.completed")),
      queue_depth_metric_(obs::GetUpDownGauge("dsp.thread_pool.queue_depth")),
      task_latency_metric_(
          obs::GetHistogram("dsp.thread_pool.task_latency_us")) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  size_ = num_threads;
  if (size_ == 1) return;  // inline mode: no workers, no queue traffic
  workers_.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    workers_.emplace_back([this, i] {
      SpreadOntoCpu(i);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // The queue drains before workers exit, so shutdown can never drop an
  // accepted task. Guard that invariant: a failure here means a scheduling
  // bug silently lost work.
  assert(tasks_submitted_.load(std::memory_order_relaxed) ==
         tasks_completed_.load(std::memory_order_relaxed));
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ThreadPool::RunTask(QueuedTask& task) const {
  // Completion is accounted even if the task throws: an accepted task that
  // ran is not dropped work.
  struct Accounting {
    const ThreadPool* pool;
    const QueuedTask* task;
    ~Accounting() {
      pool->tasks_completed_.fetch_add(1, std::memory_order_relaxed);
      pool->completed_metric_.Inc();
      if (task->enqueue_ns != 0) {
        pool->task_latency_metric_.Record(
            (obs::NowNs() - task->enqueue_ns) / 1000);
      }
    }
  } accounting{this, &task};
  task.fn();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_metric_.Sub(1);
    RunTask(task);
  }
}

void ThreadPool::Enqueue(std::function<void()> task) const {
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  submitted_metric_.Inc();
  QueuedTask queued{std::move(task),
                   obs::MetricsEnabled() ? obs::NowNs() : 0};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(queued));
  }
  queue_depth_metric_.Add(1);
  cv_.notify_one();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (!workers_.empty()) {
    Enqueue(std::move(task));
    return;
  }
  // size 1: run inline, but keep the books identical to the queued path.
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  submitted_metric_.Inc();
  QueuedTask inline_task{std::move(task),
                         obs::MetricsEnabled() ? obs::NowNs() : 0};
  RunTask(inline_task);
}

namespace {

/// Shared by one ParallelFor call and its helper tasks. Every index in
/// [0, n) is claimed exactly once; `finished` counts claimed indices whose
/// body returned, threw, or was skipped after an earlier failure.
struct ForState {
  explicit ForState(std::size_t count) : n(count) {}

  /// Claims and runs indices as `slot` until none is left. `fn` is touched
  /// only after a successful claim, and the caller cannot return before
  /// that index finishes — so a helper that starts late never sees a
  /// dangling `fn`.
  void Run(const std::function<void(std::size_t, std::size_t)>& fn,
           std::size_t slot) {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          fn(i, slot);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      if (finished.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(mutex);
        done.notify_all();
      }
    }
  }

  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable done;
  std::exception_ptr error;
};

}  // namespace

void ThreadPool::ParallelFor(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  if (n == 0) return;
  auto state = std::make_shared<ForState>(n);
  // The caller is slot 0; helpers take slots 1.. and may start after the
  // caller has already run every index (then they find nothing to claim).
  const std::size_t helpers = std::min(size_, n) - 1;
  for (std::size_t slot = 1; slot <= helpers; ++slot) {
    Enqueue([state, &fn, slot] { state->Run(fn, slot); });
  }
  // The caller's share is booked as one task, so inline pools and fan-outs
  // keep the same submitted/completed accounting.
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  submitted_metric_.Inc();
  QueuedTask own{[&] { state->Run(fn, 0); },
                 obs::MetricsEnabled() ? obs::NowNs() : 0};
  RunTask(own);

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] { return state->finished.load() == n; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace bloc::dsp
