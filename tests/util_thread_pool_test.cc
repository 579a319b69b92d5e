#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace fedshap {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains the queue, then joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ThreadPoolTest, DestructionWithPendingWorkCompletes) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor runs the pending tasks, then joins workers
  EXPECT_EQ(counter.load(), 20);
}

TEST(TaskGroupTest, WaitsOnlyForOwnTasks) {
  ThreadPool pool(4);
  std::atomic<int> own{0};
  std::atomic<bool> release_other{false};
  // A long-running foreign task occupies the pool...
  pool.Submit([&release_other] {
    while (!release_other.load()) std::this_thread::yield();
  });
  // ...while the group's own short tasks complete and Wait returns
  // without waiting for the foreign task.
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Run([&own] { own.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(own.load(), 8);
  release_other.store(true);
}

TEST(TaskGroupTest, NullPoolRunsInline) {
  TaskGroup group(nullptr);
  int runs = 0;
  group.Run([&runs] { ++runs; });
  group.Run([&runs] { ++runs; });
  group.Wait();
  EXPECT_EQ(runs, 2);
}

TEST(TaskGroupTest, ConcurrentGroupsShareOnePoolWithoutCrosstalk) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&pool, &total] {
      TaskGroup group(&pool);
      for (int i = 0; i < 16; ++i) {
        group.Run([&total] { total.fetch_add(1); });
      }
      group.Wait();
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 64);
}

// N threads = the caller plus N - 1 budget slots; at 1 the pin holds the
// one slot a budget always has, so nothing is left to grant.
TEST(PinnedThreadsTest, GrantsThreadsMinusOneSlotsAndRestores) {
  const int entry_total = WorkerBudget::Global().total();
  {
    PinnedThreads sequential(1);
    EXPECT_EQ(WorkerBudget::Global().TryAcquire(4), 0);
  }
  EXPECT_EQ(WorkerBudget::Global().total(), entry_total);
  EXPECT_EQ(WorkerBudget::Global().in_use(), 0);
  {
    PinnedThreads four(4);
    WorkerBudget::Lease lease(WorkerBudget::Global(), 8);
    EXPECT_EQ(lease.granted(), 3);
  }
  EXPECT_EQ(WorkerBudget::Global().total(), entry_total);
  EXPECT_EQ(WorkerBudget::Global().in_use(), 0);
}

// Wait() runs the group's unstarted tasks on the calling thread: with the
// pool's only worker held by a foreign task, the group still completes.
TEST(TaskGroupTest, WaitRunsUnstartedTasksOnTheCaller) {
  ThreadPool pool(1);
  std::atomic<bool> release_other{false};
  pool.Submit([&release_other] {
    while (!release_other.load()) std::this_thread::yield();
  });
  std::atomic<int> own{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 4; ++i) {
      group.Run([&own] { own.fetch_add(1); });
    }
    group.Wait();
  }
  EXPECT_EQ(own.load(), 4);
  release_other.store(true);
}

// The coalition fan-out nests: each lane's training opens its own client
// fan-out group on the same pool. With every worker inside an outer task,
// the inner groups must still finish.
TEST(TaskGroupTest, NestedGroupsOnOnePoolDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 4; ++i) {
    outer.Run([&pool, &inner_total] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 8; ++j) {
        inner.Run([&inner_total] { inner_total.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(WorkerBudgetTest, GrantsUpToTotalAndReleases) {
  WorkerBudget budget(4);
  EXPECT_EQ(budget.total(), 4);
  EXPECT_EQ(budget.TryAcquire(3), 3);
  EXPECT_EQ(budget.in_use(), 3);
  EXPECT_EQ(budget.TryAcquire(3), 1);  // only one slot left
  EXPECT_EQ(budget.TryAcquire(1), 0);  // exhausted: callers go sequential
  budget.Release(1);
  EXPECT_EQ(budget.TryAcquire(5), 1);
  budget.Release(3);
  budget.Release(1);
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(WorkerBudgetTest, LeaseIsScoped) {
  WorkerBudget budget(2);
  {
    WorkerBudget::Lease outer(budget, 2);
    EXPECT_EQ(outer.granted(), 2);
    WorkerBudget::Lease nested(budget, 2);
    // The nested layer sees a saturated budget: the oversubscription
    // guard that keeps TrainFedAvg sequential under EvaluateBatch.
    EXPECT_EQ(nested.granted(), 0);
  }
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(WorkerBudgetTest, ZeroAndNegativeWantedAreNoops) {
  WorkerBudget budget(2);
  EXPECT_EQ(budget.TryAcquire(0), 0);
  EXPECT_EQ(budget.TryAcquire(-3), 0);
  budget.Release(0);
  budget.Release(-1);
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(WorkerBudgetTest, TotalClampedToOne) {
  WorkerBudget budget(0);
  EXPECT_EQ(budget.total(), 1);
  budget.SetTotal(-5);
  EXPECT_EQ(budget.total(), 1);
}

// Regression: releasing more slots than were acquired used to drive
// in_use_ negative, silently inflating every later TryAcquire grant. The
// debug build now fails loudly; the release build clamps at zero.
TEST(WorkerBudgetTest, OverReleaseIsCaught) {
  WorkerBudget budget(4);
  EXPECT_EQ(budget.TryAcquire(1), 1);
#ifndef NDEBUG
  EXPECT_DEATH(budget.Release(2), "");
#else
  budget.Release(2);  // clamped, not negative
  EXPECT_EQ(budget.in_use(), 0);
  EXPECT_EQ(budget.TryAcquire(100), 4);  // grants never exceed total
#endif
}

// Shrinking the budget below the outstanding lease count must not grant
// new slots (or corrupt accounting) until enough leases drain.
TEST(WorkerBudgetTest, ShrinkBelowInUseStopsGrantsUntilDrained) {
  WorkerBudget budget(4);
  EXPECT_EQ(budget.TryAcquire(3), 3);
  budget.SetTotal(2);
  EXPECT_EQ(budget.total(), 2);
  EXPECT_EQ(budget.TryAcquire(1), 0);  // 3 in use > new total
  budget.Release(1);
  EXPECT_EQ(budget.TryAcquire(1), 0);  // still at the new ceiling
  budget.Release(1);
  EXPECT_EQ(budget.TryAcquire(1), 1);  // back under: grants resume
  budget.Release(1);
  budget.Release(1);
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(SharedTrainingPoolTest, IsSingletonAndUsable) {
  ThreadPool* pool = SharedTrainingPool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool, SharedTrainingPool());
  EXPECT_GE(pool->num_threads(), 1);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  group.Run([&ran] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace fedshap
