#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dsp/thread_pool.h"

namespace bloc::dsp {
namespace {

// A latch that Submit tasks count down is declared before the pool: the
// pool's destructor joins the workers, so no task still holds it when it
// goes.

TEST(ThreadPool, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  std::latch done(32);
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] {
      ++count;
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, DefaultSizeIsHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_EQ(pool.size(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

#ifdef __linux__
// Each worker moves itself onto one CPU at start, then must give the CPU
// mask back: tasks run with the whole process mask, never pinned.
TEST(ThreadPool, WorkersKeepTheProcessCpuMask) {
  cpu_set_t process;
  ASSERT_EQ(sched_getaffinity(0, sizeof(process), &process), 0);
  std::atomic<int> pinned{0};
  std::latch done(32);
  ThreadPool pool(4);
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] {
      cpu_set_t mine;
      if (sched_getaffinity(0, sizeof(mine), &mine) != 0 ||
          !CPU_EQUAL(&mine, &process)) {
        ++pinned;
      }
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(pinned.load(), 0);
}
#endif

TEST(ThreadPool, SizeOneRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id submit_thread, for_thread;
  pool.Submit([&] { submit_thread = std::this_thread::get_id(); });
  pool.ParallelFor(3, [&](std::size_t, std::size_t slot) {
    for_thread = std::this_thread::get_id();
    EXPECT_EQ(slot, 0u);
  });
  EXPECT_EQ(submit_thread, caller);
  EXPECT_EQ(for_thread, caller);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(hits.size(), [&](std::size_t i, std::size_t slot) {
    EXPECT_LT(slot, pool.size());
    ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForWithMoreSlotsThanWork) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.ParallelFor(3, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ParallelForZeroIsNoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(50,
                                [](std::size_t i, std::size_t) {
                                  if (i == 7) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool survives a failed ParallelFor and keeps scheduling.
  std::atomic<int> count{0};
  pool.ParallelFor(10, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ShutdownDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++count;
      });
    }
    // Destructor runs here: already-submitted tasks must all complete.
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, AccountsEveryTaskAndDropsNone) {
  // The no-drop regression check behind the destructor assertion: every
  // accepted task is counted as submitted, and by the time the pool has
  // shut down, completed has caught up exactly — across Submit,
  // ParallelFor, inline mode and a burst that outruns the workers.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::atomic<int> ran{0};
  {
    std::latch done(100);
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        ++ran;
        done.count_down();
      });
    }
    pool.ParallelFor(40, [&ran](std::size_t, std::size_t) { ++ran; });
    done.wait();
    EXPECT_GE(pool.tasks_submitted(), 100u);
    submitted = pool.tasks_submitted();
    completed = pool.tasks_completed();
    EXPECT_LE(completed, submitted);
  }
  // The pool is destroyed: its own destructor asserted submitted ==
  // completed after the join, and every task body must have run.
  EXPECT_EQ(ran.load(), 140);
  EXPECT_GE(submitted, 100u);
}

TEST(ThreadPool, InlineModeKeepsTheSameBooks) {
  ThreadPool pool(1);
  pool.Submit([] {});
  pool.ParallelFor(5, [](std::size_t, std::size_t) {});
  // Inline execution is synchronous, so the totals are exact immediately:
  // one task per Submit and one per ParallelFor call.
  EXPECT_EQ(pool.tasks_submitted(), 2u);
  EXPECT_EQ(pool.tasks_completed(), 2u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, QueueDepthReturnsToZero) {
  std::latch done(32);
  ThreadPool pool(2);
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(30));
      done.count_down();
    });
  }
  done.wait();
  // Every task ran, so every task was popped from the queue.
  EXPECT_EQ(pool.queue_depth(), 0u);
}

/// Parks every worker of `pool` until the returned latch is counted down,
/// so queued helpers cannot start before the test lets them. The parked
/// tasks share both latches, so neither dies under a task still using it.
std::shared_ptr<std::latch> ParkWorkers(ThreadPool& pool) {
  auto started = std::make_shared<std::latch>(pool.size());
  auto release = std::make_shared<std::latch>(1);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool.Submit([started, release] {
      started->count_down();
      release->wait();
    });
  }
  started->wait();
  return release;
}

/// Waits (bounded) until every accepted task has retired.
bool Balanced(const ThreadPool& pool) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.tasks_completed() != pool.tasks_submitted()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, NestedParallelForOnSaturatedPoolCompletes) {
  // Every worker runs a Submit task that fans out on the same pool: with a
  // ParallelFor that only waited for its helpers this deadlocks, because
  // the helpers queue behind tasks that are themselves waiting.
  auto pool = std::make_unique<ThreadPool>(4);
  constexpr std::size_t kTasks = 16;
  constexpr std::size_t kInner = 8;
  std::vector<std::atomic<int>> hits(kTasks * kInner);
  std::atomic<std::size_t> finished{0};
  for (std::size_t t = 0; t < kTasks; ++t) {
    pool->Submit([&, t] {
      pool->ParallelFor(kInner, [&, t](std::size_t i, std::size_t slot) {
        EXPECT_LT(slot, pool->size());
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++hits[t * kInner + i];
      });
      ++finished;
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (finished.load() < kTasks) {
    if (std::chrono::steady_clock::now() > deadline) {
      pool.release();  // deadlocked: joining the workers would hang
      FAIL() << "nested ParallelFor deadlocked";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_TRUE(Balanced(*pool));
}

TEST(ThreadPool, ParallelForCallerRunsEveryIndexWhenWorkersAreBusy) {
  ThreadPool pool(4);
  const std::shared_ptr<std::latch> release = ParkWorkers(pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t ran = 0;
  pool.ParallelFor(6, [&](std::size_t, std::size_t slot) {
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 6u);
  release->count_down();
  EXPECT_TRUE(Balanced(pool));
}

TEST(ThreadPool, LateHelperNeverTouchesFn) {
  // The helpers queue behind parked workers and start only after
  // ParallelFor returned and `fn` was destroyed. They must find no index
  // left; touching `fn` would be a use-after-free (caught under ASan) and
  // would bump the count.
  std::atomic<int> calls{0};
  {
    ThreadPool pool(3);
    const std::shared_ptr<std::latch> release = ParkWorkers(pool);
    {
      auto fn = std::make_unique<std::function<void(std::size_t, std::size_t)>>(
          [&calls](std::size_t, std::size_t) { ++calls; });
      pool.ParallelFor(5, *fn);
    }  // fn freed while both helpers are still queued
    EXPECT_EQ(calls.load(), 5);
    EXPECT_EQ(pool.queue_depth(), 2u);
    release->count_down();
    EXPECT_TRUE(Balanced(pool));  // the late helpers ran and retired
  }
  EXPECT_EQ(calls.load(), 5);
}

TEST(ThreadPool, ParallelForPropagatesExceptionFromCallersOwnIndex) {
  ThreadPool pool(4);
  const std::shared_ptr<std::latch> release = ParkWorkers(pool);
  // The workers are parked, so the caller runs the indices and the throw
  // happens on its own thread, as slot 0.
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(8,
                                [&](std::size_t i, std::size_t slot) {
                                  EXPECT_EQ(slot, 0u);
                                  ++ran;
                                  if (i == 2) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 3);  // later indices are skipped after the failure
  release->count_down();
  EXPECT_TRUE(Balanced(pool));
}

TEST(ThreadPool, NestedFanOutKeepsTheBooksBalanced) {
  ThreadPool pool(3);
  for (int t = 0; t < 12; ++t) {
    pool.Submit([&pool] {
      pool.ParallelFor(5, [](std::size_t, std::size_t) {});
    });
  }
  pool.ParallelFor(7, [](std::size_t, std::size_t) {});
  // Once quiescent, every Submit task, every helper (late ones included)
  // and every caller share has retired.
  EXPECT_TRUE(Balanced(pool));
  EXPECT_EQ(pool.tasks_submitted(), pool.tasks_completed());
  EXPECT_GE(pool.tasks_submitted(), 12u + 12u + 1u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, CompletionAccountedEvenWhenTaskThrows) {
  ThreadPool pool(1);  // inline: the throw propagates to the caller
  EXPECT_THROW(
      pool.ParallelFor(1, [](std::size_t, std::size_t) {
        throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // A throwing task still retires; otherwise the destructor assertion
  // (submitted == completed) would fire on perfectly legal code.
  EXPECT_EQ(pool.tasks_submitted(), 1u);
  EXPECT_EQ(pool.tasks_completed(), 1u);
}

}  // namespace
}  // namespace bloc::dsp
