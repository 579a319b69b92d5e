#include "util/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <cstdlib>
#include <deque>

#include "util/logging.h"

namespace fedshap {

namespace {

/// SharedTrainingPool()'s pool, guarded by g_shared_pool_mutex.
ThreadPool* g_shared_pool = nullptr;
std::mutex g_shared_pool_mutex;

}  // namespace

/// fork() copies only the calling thread. A child that kept the shared
/// training pool would queue its FedAvg client trainings on workers that
/// do not exist and wait forever, and a child that kept the global
/// budget's leases would count slots held by threads that are gone.
/// These pthread_atfork handlers hold both locks across fork() so the
/// child never copies them mid-update. The child then abandons the
/// inherited pool (leaked: its threads cannot be joined), so its next
/// SharedTrainingPool() call builds a fresh one, and returns every
/// leased slot.
struct ForkHandlers {
  static void Prepare() {
    WorkerBudget::Global().mutex_.lock();
    g_shared_pool_mutex.lock();
  }
  static void Parent() {
    g_shared_pool_mutex.unlock();
    WorkerBudget::Global().mutex_.unlock();
  }
  static void Child() {
    g_shared_pool = nullptr;
    g_shared_pool_mutex.unlock();
    WorkerBudget& budget = WorkerBudget::Global();
    budget.in_use_ = 0;
    budget.mutex_.unlock();
  }
};

namespace {

[[maybe_unused]] const int g_fork_handlers_installed = pthread_atfork(
    ForkHandlers::Prepare, ForkHandlers::Parent, ForkHandlers::Child);

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

int ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

struct TaskGroup::State {
  std::mutex mutex;
  std::condition_variable done;
  std::deque<std::function<void()>> queued;  // not yet started
  int unfinished = 0;                        // queued or running

  /// Runs the oldest queued task; false when none was left.
  bool RunOne() {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (queued.empty()) return false;
      task = std::move(queued.front());
      queued.pop_front();
    }
    task();
    std::lock_guard<std::mutex> lock(mutex);
    if (--unfinished == 0) done.notify_all();
    return true;
  }
};

TaskGroup::TaskGroup(ThreadPool* pool)
    : pool_(pool),
      state_(pool == nullptr ? nullptr : std::make_shared<State>()) {}

void TaskGroup::Run(std::function<void()> task) {
  if (pool_ == nullptr) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->queued.push_back(std::move(task));
    ++state_->unfinished;
  }
  // The pool-side closure owns the state: it may run after Wait() has
  // already taken its task and returned.
  pool_->Submit([state = state_] { state->RunOne(); });
}

void TaskGroup::Wait() {
  if (pool_ == nullptr) return;
  while (state_->RunOne()) {
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->done.wait(lock, [this] { return state_->unfinished == 0; });
}

WorkerBudget::WorkerBudget(int total) : total_(std::max(1, total)) {}

WorkerBudget& WorkerBudget::Global() {
  static WorkerBudget* budget = [] {
    int total = ThreadPool::DefaultThreads();
    if (const char* env = std::getenv("FEDSHAP_WORKER_BUDGET")) {
      const int parsed = std::atoi(env);
      if (parsed > 0) total = parsed;
    }
    return new WorkerBudget(total);
  }();
  return *budget;
}

int WorkerBudget::total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

int WorkerBudget::in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_use_;
}

void WorkerBudget::SetTotal(int total) {
  std::lock_guard<std::mutex> lock(mutex_);
  total_ = std::max(1, total);
}

int WorkerBudget::TryAcquire(int wanted) {
  if (wanted <= 0) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const int granted = std::clamp(total_ - in_use_, 0, wanted);
  in_use_ += granted;
  return granted;
}

void WorkerBudget::Release(int granted) {
  if (granted <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  FEDSHAP_DCHECK(granted <= in_use_);
  // Clamp rather than go negative: a double-release must not inflate
  // every later TryAcquire grant past the configured total.
  in_use_ = std::max(0, in_use_ - granted);
}

PinnedThreads::PinnedThreads(int threads)
    : saved_total_(WorkerBudget::Global().total()) {
  WorkerBudget::Global().SetTotal(std::max(1, threads - 1));
  held_ = threads <= 1 ? WorkerBudget::Global().TryAcquire(1) : 0;
}

PinnedThreads::~PinnedThreads() {
  WorkerBudget::Global().Release(held_);
  WorkerBudget::Global().SetTotal(saved_total_);
}

ThreadPool* SharedTrainingPool() {
  std::lock_guard<std::mutex> lock(g_shared_pool_mutex);
  if (g_shared_pool == nullptr) {
    g_shared_pool = new ThreadPool(ThreadPool::DefaultThreads());
  }
  return g_shared_pool;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace fedshap
