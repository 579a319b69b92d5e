#ifndef FEDSHAP_UTIL_THREAD_POOL_H_
#define FEDSHAP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fedshap {

/// Fixed-size worker pool that FL coalitions and clients train on (the
/// paper simulates providers with multiprocessing; we use in-process
/// threads). Tasks are `void()` closures; exceptions must not escape them
/// (the library is exception-free). Callers join their own tasks through
/// a TaskGroup; the destructor runs every queued task before joining.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);
  /// Drains outstanding tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  /// Number of worker threads.
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Number of hardware threads, at least 1.
  static int DefaultThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool shutdown_ = false;
};

/// A caller-owned join handle over a subset of a ThreadPool's tasks:
/// `Run()` enqueues a task on the pool and `Wait()` returns once exactly
/// those tasks finished, so concurrent coalition and client fan-outs
/// share one pool without cross-talk. `Wait()` first runs the group's
/// unstarted tasks on the calling thread and only then blocks on the
/// running ones. A waiter thus never waits on a task stuck in the pool's
/// queue, so groups nest (a coalition lane waiting on its training's
/// client fan-out) without deadlock, however busy the pool is.
class TaskGroup {
 public:
  /// Binds the group to `pool`. A null pool degrades Run() to inline
  /// execution, so callers need no special sequential path.
  explicit TaskGroup(ThreadPool* pool);
  /// Waits for outstanding tasks (a destructor must not leak closures
  /// that reference the caller's stack).
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task` on the pool (or runs it inline without a pool).
  void Run(std::function<void()> task);

  /// Runs the group's unstarted tasks here, then blocks until every task
  /// Run() through this group has completed.
  void Wait();

 private:
  struct State;  // shared with pool-side closures that may outlive us

  ThreadPool* pool_;
  std::shared_ptr<State> state_;
};

/// Process-wide accounting of compute-thread slots, so the parallelism
/// layers cannot multiply into oversubscription: service workers, the
/// coalition fan-out under UtilitySession::EvaluateBatch and the
/// per-round client fan-out inside TrainFedAvg all draw from this one
/// budget. A fan-out granted g slots runs on g + 1 threads.
///
/// The budget is advisory admission control, not a lock: `TryAcquire`
/// never blocks, it grants between 0 and `wanted` slots depending on
/// what is free, and the caller shrinks its parallelism to the grant
/// (0 = run sequentially on the calling thread). Outer layers lease
/// slots for their worker threads up front, so an inner TrainFedAvg
/// nested under a saturated coalition fan-out sees an empty budget and
/// runs its clients sequentially — the hierarchy degrades to one compute
/// thread per slot instead of threads^2.
class WorkerBudget {
 public:
  /// A budget of `total` slots (clamped to >= 1).
  explicit WorkerBudget(int total);

  /// The process-wide budget. Sized to DefaultThreads(), overridable
  /// via FEDSHAP_WORKER_BUDGET (useful for pinning benchmarks) before
  /// first use, or SetTotal() afterwards.
  static WorkerBudget& Global();

  /// Total slots.
  int total() const;
  /// Slots currently leased.
  int in_use() const;
  /// Re-sizes the budget (clamped to >= 1; see PinnedThreads).
  /// Outstanding leases keep their grants. A fork()ed child starts with
  /// no slots leased: the threads that held them do not exist in it.
  void SetTotal(int total);

  /// Grants min(wanted, free) slots without blocking; returns the grant
  /// (possibly 0). When a SetTotal() shrink left more slots leased than
  /// the new total, nothing is free and the grant is 0 until enough
  /// leases drain back under the total. Every grant must be returned via
  /// Release.
  int TryAcquire(int wanted);
  /// Returns `granted` slots obtained from TryAcquire. Returning more
  /// than is currently leased is a bug (caught by a debug check); release
  /// clamps at zero rather than driving the accounting negative, so a
  /// double-release cannot silently inflate later grants.
  void Release(int granted);

  /// RAII lease: acquires up to `wanted` slots for the scope.
  class Lease {
   public:
    /// Acquires up to `wanted` slots from `budget`.
    Lease(WorkerBudget& budget, int wanted)
        : budget_(budget), granted_(budget.TryAcquire(wanted)) {}
    /// Returns the granted slots.
    ~Lease() { budget_.Release(granted_); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    /// Slots this lease holds (0 = nothing free, run sequentially).
    int granted() const { return granted_; }

   private:
    WorkerBudget& budget_;
    int granted_;
  };

 private:
  friend struct ForkHandlers;  // thread_pool.cc: resets leases in a child

  mutable std::mutex mutex_;
  int total_;
  int in_use_ = 0;
};

/// Pins the process to `threads` compute threads for the scope: the
/// calling thread plus threads - 1 slots of WorkerBudget::Global(). A
/// budget always has at least one slot, so at threads <= 1 the pin holds
/// that slot itself and every fan-out is granted none: the run is
/// sequential. The destructor returns the held slot and restores the
/// entry total. Pins do not nest. This is what the benches' and
/// examples' `--threads=N` sets for the life of the process.
class PinnedThreads {
 public:
  explicit PinnedThreads(int threads);
  ~PinnedThreads();
  PinnedThreads(const PinnedThreads&) = delete;
  PinnedThreads& operator=(const PinnedThreads&) = delete;

 private:
  int saved_total_;
  int held_ = 0;
};

/// The lazily-created process-global pool (sized to DefaultThreads())
/// that the coalition and FedAvg client fan-outs run on. Callers
/// coordinate via TaskGroup and size their fan-out by a WorkerBudget
/// lease; the pool itself is never waited on globally.
/// Intentionally leaked: it must outlive every static destructor that
/// might still train. A fork()ed child does not inherit it: its first
/// call builds a fresh pool, since the parent's workers are not copied.
ThreadPool* SharedTrainingPool();

}  // namespace fedshap

#endif  // FEDSHAP_UTIL_THREAD_POOL_H_
