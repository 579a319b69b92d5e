#include "fl/utility_cache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "fl/utility_store.h"
#include "test_util.h"
#include "util/combinatorics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace fedshap {
namespace {

/// Counts underlying evaluations to verify memoization.
class CountingUtility : public UtilityFunction {
 public:
  explicit CountingUtility(int n) : n_(n) {}
  int num_clients() const override { return n_; }
  Result<double> Evaluate(const Coalition& coalition) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<double>(coalition.Count());
  }
  int calls() const { return calls_.load(); }

 private:
  int n_;
  mutable std::atomic<int> calls_{0};
};

/// Always fails; exercises error propagation.
class FailingUtility : public UtilityFunction {
 public:
  int num_clients() const override { return 2; }
  Result<double> Evaluate(const Coalition&) const override {
    return Status::Internal("deliberate failure");
  }
};

TEST(UtilityCacheTest, MemoizesDistinctCoalitions) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  const Coalition a = Coalition::Of({0, 1});
  const Coalition b = Coalition::Of({2});
  ASSERT_TRUE(cache.Get(a).ok());
  ASSERT_TRUE(cache.Get(a).ok());
  ASSERT_TRUE(cache.Get(b).ok());
  ASSERT_TRUE(cache.Get(a).ok());
  EXPECT_EQ(fn.calls(), 2);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(UtilityCacheTest, ValuesComeFromUnderlyingFunction) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  Result<UtilityRecord> record = cache.Get(Coalition::Of({0, 2, 4}));
  ASSERT_TRUE(record.ok());
  EXPECT_DOUBLE_EQ(record->utility, 3.0);
  EXPECT_GE(record->cost_seconds, 0.0);
}

TEST(UtilityCacheTest, ErrorsPropagate) {
  FailingUtility fn;
  UtilityCache cache(&fn);
  EXPECT_FALSE(cache.Get(Coalition()).ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(UtilityCacheTest, ClearResetsEverything) {
  CountingUtility fn(4);
  UtilityCache cache(&fn);
  ASSERT_TRUE(cache.Get(Coalition::Of({1})).ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  ASSERT_TRUE(cache.Get(Coalition::Of({1})).ok());
  EXPECT_EQ(fn.calls(), 2);  // recomputed after Clear
}

TEST(UtilityCacheTest, GetReportsWhoComputed) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  bool fresh = false;
  ASSERT_TRUE(cache.Get(Coalition::Of({0, 1}), &fresh).ok());
  EXPECT_TRUE(fresh);  // First asker trains.
  ASSERT_TRUE(cache.Get(Coalition::Of({0, 1}), &fresh).ok());
  EXPECT_FALSE(fresh);  // Hit.
}

TEST(UtilityCacheTest, SessionAttributesFreshTrainings) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  UtilitySession first(&cache);
  ASSERT_TRUE(first.Evaluate(Coalition::Of({0})).ok());
  ASSERT_TRUE(first.Evaluate(Coalition::Of({0, 1})).ok());
  ASSERT_TRUE(first.Evaluate(Coalition::Of({0})).ok());  // Repeat.
  EXPECT_EQ(first.num_distinct(), 2u);
  EXPECT_EQ(first.num_fresh_trainings(), 2u);

  // A second session over the same cache needs both coalitions but
  // trains only the one the first session did not cover.
  UtilitySession second(&cache);
  ASSERT_TRUE(second.Evaluate(Coalition::Of({0})).ok());
  ASSERT_TRUE(second.Evaluate(Coalition::Of({2})).ok());
  EXPECT_EQ(second.num_distinct(), 2u);
  EXPECT_EQ(second.num_fresh_trainings(), 1u);
  EXPECT_EQ(fn.calls(), 3);
}

TEST(UtilityCacheTest, BatchFreshAccountingMatchesSequential) {
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(7, 2, [&](const Coalition& c) { batch.push_back(c); });

  CountingUtility sequential_fn(7);
  UtilityCache sequential_cache(&sequential_fn);
  UtilitySession sequential(&sequential_cache);
  for (const Coalition& c : batch) {
    ASSERT_TRUE(sequential.Evaluate(c).ok());
  }

  CountingUtility parallel_fn(7);
  UtilityCache parallel_cache(&parallel_fn);
  PinnedThreads pinned(5);
  UtilitySession parallel(&parallel_cache);
  ASSERT_TRUE(parallel.EvaluateBatch(batch).ok());

  // The fan-out lanes compute the misses, but they are still this
  // session's own trainings — identical accounting to sequential.
  EXPECT_EQ(parallel.num_fresh_trainings(),
            sequential.num_fresh_trainings());
  EXPECT_EQ(parallel.num_fresh_trainings(), batch.size());
  EXPECT_EQ(parallel.num_distinct(), sequential.num_distinct());
}

// Without a free budget slot there is nothing to fan out to: Prefetch
// trains nothing, and the caller's own Gets train on its thread.
TEST(UtilityCacheTest, PrefetchWithoutFreeSlotTrainsNothing) {
  PinnedThreads sequential(1);
  CountingUtility fn(6);
  UtilityCache cache(&fn);
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(6, 2, [&](const Coalition& c) { batch.push_back(c); });
  std::vector<uint8_t> fresh;
  ASSERT_TRUE(cache.Prefetch(batch, &fresh).ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(fn.calls(), 0);
  EXPECT_EQ(fresh, std::vector<uint8_t>(batch.size(), 0));
}

TEST(UtilityCacheTest, PrefetchParallelComputesEachOnce) {
  CountingUtility fn(8);
  UtilityCache cache(&fn);
  PinnedThreads pinned(5);
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(8, 3, [&](const Coalition& c) { batch.push_back(c); });
  batch.push_back(batch.front());  // a repeat trains once, marked once
  std::vector<uint8_t> fresh;
  ASSERT_TRUE(cache.Prefetch(batch, &fresh).ok());
  EXPECT_EQ(std::count(fresh.begin(), fresh.end(), 1), 56);
  EXPECT_EQ(fresh.back(), 0);
  EXPECT_EQ(cache.size(), 56u);
  // Single-flight: racing workers wait for the in-flight computation
  // instead of duplicating it.
  EXPECT_EQ(fn.calls(), 56);
  EXPECT_EQ(cache.misses(), 56u);
  for (const Coalition& c : batch) {
    Result<UtilityRecord> record = cache.Get(c);
    ASSERT_TRUE(record.ok());
    EXPECT_DOUBLE_EQ(record->utility, 3.0);
  }
}

/// Coalition.Count() plus a deliberate stall, to force Get/Prefetch races
/// to overlap in time.
class SlowCountingUtility : public UtilityFunction {
 public:
  explicit SlowCountingUtility(int n) : n_(n) {}
  int num_clients() const override { return n_; }
  Result<double> Evaluate(const Coalition& coalition) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    return static_cast<double>(coalition.Count()) * 1.5;
  }
  int calls() const { return calls_.load(); }

 private:
  int n_;
  mutable std::atomic<int> calls_{0};
};

TEST(UtilityCacheTest, ConcurrentHammerComputesEachCoalitionExactlyOnce) {
  // The reference: one sequential sweep over the distinct coalitions.
  std::vector<Coalition> distinct;
  ForEachSubsetOfSize(10, 2, [&](const Coalition& c) {
    distinct.push_back(c);
  });
  SlowCountingUtility sequential_fn(10);
  UtilityCache sequential_cache(&sequential_fn);
  std::vector<double> expected;
  for (const Coalition& c : distinct) {
    Result<UtilityRecord> r = sequential_cache.Get(c);
    ASSERT_TRUE(r.ok());
    expected.push_back(r->utility);
  }

  // The hammer: 8 threads each Get/Prefetch every coalition in a
  // different order, racing on a shared cache.
  SlowCountingUtility fn(10);
  UtilityCache cache(&fn);
  PinnedThreads pinned(5);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      std::vector<Coalition> order = distinct;
      Rng rng(1000 + t);
      for (size_t j = order.size(); j > 1; --j) {
        std::swap(order[j - 1], order[rng.UniformInt(j)]);
      }
      if (t % 2 == 0) {
        ASSERT_TRUE(cache.Prefetch(order).ok());
      } else {
        for (const Coalition& c : order) {
          ASSERT_TRUE(cache.Get(c).ok());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Exactly-once: every distinct coalition trained once, despite 8x
  // oversubscription, and every value matches the sequential run.
  EXPECT_EQ(cache.misses(), distinct.size());
  EXPECT_EQ(fn.calls(), static_cast<int>(distinct.size()));
  EXPECT_EQ(cache.size(), distinct.size());
  for (size_t j = 0; j < distinct.size(); ++j) {
    Result<UtilityRecord> r = cache.Get(distinct[j]);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r->utility, expected[j]);
  }
}

TEST(UtilityCacheTest, PrefetchPropagatesFailure) {
  FailingUtility fn;
  UtilityCache cache(&fn);
  PinnedThreads pinned(3);
  EXPECT_FALSE(cache.Prefetch({Coalition(), Coalition::Of({0})}).ok());
}

// Regression: the parallel Prefetch path used to collapse any worker
// failure into a generic "prefetch failed" status, losing the underlying
// cause. It must now surface the first failing coalition's real Status,
// exactly as a sequential pass would.
TEST(UtilityCacheTest, PrefetchSurfacesUnderlyingError) {
  FailingUtility fn;
  UtilityCache cache(&fn);
  PinnedThreads pinned(5);
  std::vector<Coalition> batch = {Coalition(), Coalition::Of({0}),
                                  Coalition::Of({1}), Coalition::Of({0, 1})};
  Status parallel_status = cache.Prefetch(batch);
  ASSERT_FALSE(parallel_status.ok());
  EXPECT_EQ(parallel_status.code(), StatusCode::kInternal);
  EXPECT_NE(parallel_status.ToString().find("deliberate failure"),
            std::string::npos)
      << parallel_status.ToString();
}

// Regression: Clear() used to leave the store write-through's
// unflushed-byte counter at its pre-Clear value, so the first appends of
// the next run flushed on a stale schedule.
TEST(UtilityCacheTest, ClearResetsUnflushedByteAccounting) {
  const std::string path =
      ::testing::TempDir() + "fedshap_cache_clear_unflushed";
  std::filesystem::remove_all(path);
  CountingUtility fn(5);
  Result<std::unique_ptr<UtilityStore>> store = UtilityStore::Open(path, 42);
  ASSERT_TRUE(store.ok());
  UtilityCache cache(&fn);
  // A flush interval far above one record: appends accumulate unflushed.
  cache.AttachStore(store->get(), /*flush_bytes=*/1 << 20);
  ASSERT_TRUE(cache.Get(Coalition::Of({0, 1})).ok());
  const size_t per_record = cache.unflushed_bytes();
  ASSERT_GT(per_record, 0u);

  cache.Clear();
  EXPECT_EQ(cache.unflushed_bytes(), 0u);

  // The counter restarts from zero: one fresh append of a same-shape
  // coalition leaves exactly one record's bytes pending, not
  // one-plus-the-stale-balance.
  ASSERT_TRUE(cache.Get(Coalition::Of({2, 3})).ok());
  EXPECT_EQ(cache.unflushed_bytes(), per_record);
  std::filesystem::remove_all(path);
}

TEST(UtilityCacheTest, PrefetchFusedComputesEachOnceAndMarksFresh) {
  CountingUtility fn(6);
  UtilityCache cache(&fn);
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(6, 2, [&](const Coalition& c) { batch.push_back(c); });
  std::vector<uint8_t> fresh;
  ASSERT_TRUE(cache.PrefetchFused(batch, &fresh).ok());
  ASSERT_EQ(fresh.size(), batch.size());
  for (size_t i = 0; i < fresh.size(); ++i) EXPECT_EQ(fresh[i], 1) << i;
  EXPECT_EQ(cache.misses(), batch.size());
  EXPECT_EQ(fn.calls(), static_cast<int>(batch.size()));
  for (const Coalition& c : batch) {
    Result<UtilityRecord> record = cache.Get(c);
    ASSERT_TRUE(record.ok());
    EXPECT_DOUBLE_EQ(record->utility, 2.0);
  }
  // A second fused pass is all hits: nothing retrained, nothing fresh.
  ASSERT_TRUE(cache.PrefetchFused(batch, &fresh).ok());
  for (size_t i = 0; i < fresh.size(); ++i) EXPECT_EQ(fresh[i], 0) << i;
  EXPECT_EQ(fn.calls(), static_cast<int>(batch.size()));
}

TEST(UtilitySessionTest, CountsEvaluationsAndDistinct) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  EXPECT_EQ(session.num_clients(), 5);
  ASSERT_TRUE(session.Evaluate(Coalition::Of({0})).ok());
  ASSERT_TRUE(session.Evaluate(Coalition::Of({0})).ok());
  ASSERT_TRUE(session.Evaluate(Coalition::Of({1})).ok());
  EXPECT_EQ(session.num_evaluations(), 3u);
  EXPECT_EQ(session.num_distinct(), 2u);
}

TEST(UtilitySessionTest, ChargesEachDistinctCoalitionOnce) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  UtilitySession warmup(&cache);
  ASSERT_TRUE(warmup.Evaluate(Coalition::Of({0, 1})).ok());
  const double warm_cost = warmup.charged_seconds();
  EXPECT_GE(warm_cost, 0.0);

  // A later session re-asking for the cached coalition is still charged
  // the recorded cost — the honest-time model.
  UtilitySession later(&cache);
  ASSERT_TRUE(later.Evaluate(Coalition::Of({0, 1})).ok());
  ASSERT_TRUE(later.Evaluate(Coalition::Of({0, 1})).ok());
  EXPECT_DOUBLE_EQ(later.charged_seconds(), warm_cost);
  EXPECT_EQ(later.num_distinct(), 1u);
  EXPECT_EQ(fn.calls(), 1);  // no recomputation happened
}

TEST(UtilitySessionTest, IndependentSessionsShareCache) {
  CountingUtility fn(4);
  UtilityCache cache(&fn);
  UtilitySession a(&cache), b(&cache);
  ASSERT_TRUE(a.Evaluate(Coalition::Of({2})).ok());
  ASSERT_TRUE(b.Evaluate(Coalition::Of({2})).ok());
  EXPECT_EQ(fn.calls(), 1);
  EXPECT_EQ(a.num_distinct(), 1u);
  EXPECT_EQ(b.num_distinct(), 1u);
}

TEST(UtilitySessionTest, EvaluateBatchMatchesSequentialAccounting) {
  SlowCountingUtility fn(9);
  UtilityCache cache(&fn);
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(9, 2, [&](const Coalition& c) { batch.push_back(c); });
  batch.push_back(batch.front());  // a repeat, to exercise hit accounting

  // Fanned-out batch session, training the cold cache.
  PinnedThreads pinned(5);
  UtilitySession parallel(&cache);
  Result<std::vector<double>> values = parallel.EvaluateBatch(batch);
  ASSERT_TRUE(values.ok());

  // Sequential reference session on the same cache: identical values,
  // identical per-run accounting (charged costs come from the same
  // records).
  UtilitySession sequential(&cache);
  std::vector<double> expected;
  for (const Coalition& c : batch) {
    Result<double> u = sequential.Evaluate(c);
    ASSERT_TRUE(u.ok());
    expected.push_back(*u);
  }
  EXPECT_EQ(*values, expected);
  EXPECT_EQ(parallel.num_evaluations(), sequential.num_evaluations());
  EXPECT_EQ(parallel.num_distinct(), sequential.num_distinct());
  EXPECT_DOUBLE_EQ(parallel.charged_seconds(),
                   sequential.charged_seconds());
}

TEST(UtilitySessionTest, EvaluateBatchReturnsValuesInOrder) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  Result<std::vector<double>> values =
      session.EvaluateBatch({Coalition::Of({0}), Coalition::Of({0, 1})});
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(*values, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(session.num_evaluations(), 2u);
}

TEST(UtilitySessionTest, EvaluateBatchPropagatesFailure) {
  FailingUtility fn;
  UtilityCache cache(&fn);
  PinnedThreads pinned(3);
  UtilitySession session(&cache);
  EXPECT_FALSE(session.EvaluateBatch({Coalition(), Coalition::Of({0})}).ok());
  EXPECT_EQ(session.num_evaluations(), 0u);
}

TEST(UtilitySessionTest, PrefetchCreditBeforeEvaluateCountsOnce) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  const Coalition c = Coalition::Of({0, 1});

  // The prefetcher trains c ahead of demand and posts the credit.
  bool fresh = false;
  ASSERT_TRUE(cache.Get(c, &fresh).ok());
  ASSERT_TRUE(fresh);
  session.CreditPrefetchedTraining(c);
  EXPECT_EQ(session.prefetch_credited(), 1u);
  EXPECT_EQ(session.prefetch_consumed(), 0u);
  EXPECT_EQ(session.num_fresh_trainings(), 0u);  // not evaluated yet

  // The session's own evaluation is a cache hit, but the training was
  // run on its behalf: it counts as this run's fresh training, once.
  ASSERT_TRUE(session.Evaluate(c).ok());
  ASSERT_TRUE(session.Evaluate(c).ok());  // repeat must not double count
  EXPECT_EQ(session.num_fresh_trainings(), 1u);
  EXPECT_EQ(session.num_distinct(), 1u);
  EXPECT_EQ(session.prefetch_consumed(), 1u);
  EXPECT_EQ(fn.calls(), 1);
}

TEST(UtilitySessionTest, PrefetchCreditAfterEvaluateCountsOnce) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  const Coalition c = Coalition::Of({2});

  // The prefetcher's Get won the training race, but its credit arrives
  // only after the session already evaluated the coalition (as a hit).
  bool fresh = false;
  ASSERT_TRUE(cache.Get(c, &fresh).ok());
  ASSERT_TRUE(fresh);
  ASSERT_TRUE(session.Evaluate(c).ok());
  EXPECT_EQ(session.num_fresh_trainings(), 0u);  // credit not posted yet
  session.CreditPrefetchedTraining(c);
  EXPECT_EQ(session.num_fresh_trainings(), 1u);  // attributed on arrival
  EXPECT_EQ(session.prefetch_consumed(), 1u);
}

TEST(UtilitySessionTest, MisSpeculatedPrefetchCreditIsNotCounted) {
  CountingUtility fn(5);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  // The prefetcher trained a coalition the run never asks for: credited
  // but never consumed, and num_fresh_trainings stays <= num_distinct.
  bool fresh = false;
  ASSERT_TRUE(cache.Get(Coalition::Of({4}), &fresh).ok());
  session.CreditPrefetchedTraining(Coalition::Of({4}));
  ASSERT_TRUE(session.Evaluate(Coalition::Of({0})).ok());
  EXPECT_EQ(session.prefetch_credited(), 1u);
  EXPECT_EQ(session.prefetch_consumed(), 0u);
  EXPECT_EQ(session.num_distinct(), 1u);
  EXPECT_EQ(session.num_fresh_trainings(), 1u);  // only the real one
}

// The exactness invariant under a live race: a prefetcher Get/credit
// thread overlapping the session's own EvaluateBatch of the same
// coalitions. Whoever wins each single-flight training, every distinct
// coalition must end up attributed to the session exactly once.
TEST(UtilitySessionTest, ConcurrentPrefetchAndEvaluateStayExact) {
  std::vector<Coalition> distinct;
  ForEachSubsetOfSize(9, 2, [&](const Coalition& c) {
    distinct.push_back(c);
  });
  SlowCountingUtility fn(9);
  UtilityCache cache(&fn);
  PinnedThreads pinned(5);
  UtilitySession session(&cache);

  std::thread prefetcher([&] {
    for (const Coalition& c : distinct) {
      bool fresh = false;
      ASSERT_TRUE(cache.Get(c, &fresh).ok());
      if (fresh) session.CreditPrefetchedTraining(c);
    }
  });
  Result<std::vector<double>> values = session.EvaluateBatch(distinct);
  prefetcher.join();
  ASSERT_TRUE(values.ok());

  // Only this session (and its prefetcher) use the cache, so every
  // training belongs to it: fresh == distinct == cache misses, despite
  // the race deciding who computed each one.
  EXPECT_EQ(cache.misses(), distinct.size());
  EXPECT_EQ(session.num_distinct(), distinct.size());
  EXPECT_EQ(session.num_fresh_trainings(), distinct.size());
  EXPECT_EQ(session.prefetch_consumed(), session.prefetch_credited());
  for (size_t i = 0; i < distinct.size(); ++i) {
    EXPECT_DOUBLE_EQ((*values)[i],
                     static_cast<double>(distinct[i].Count()) * 1.5);
  }
}

TEST(UtilitySessionTest, FusedBatchMatchesUnfusedValuesAndAccounting) {
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(8, 2, [&](const Coalition& c) { batch.push_back(c); });
  batch.push_back(batch.front());  // repeat exercises hit accounting

  CountingUtility unfused_fn(8);
  UtilityCache unfused_cache(&unfused_fn);
  UtilitySession unfused(&unfused_cache);
  Result<std::vector<double>> expected = unfused.EvaluateBatch(batch);
  ASSERT_TRUE(expected.ok());

  CountingUtility fused_fn(8);
  UtilityCache fused_cache(&fused_fn);
  UtilitySession fused(&fused_cache);
  fused.set_fused(true);
  ASSERT_TRUE(fused.fused());
  Result<std::vector<double>> values = fused.EvaluateBatch(batch);
  ASSERT_TRUE(values.ok());

  // The base fused dispatch routes through the same Evaluate, so values
  // are identical here; accounting must match the unfused path exactly.
  EXPECT_EQ(*values, *expected);
  EXPECT_EQ(fused.num_evaluations(), unfused.num_evaluations());
  EXPECT_EQ(fused.num_distinct(), unfused.num_distinct());
  EXPECT_EQ(fused.num_fresh_trainings(), unfused.num_fresh_trainings());
  EXPECT_EQ(fused_fn.calls(), unfused_fn.calls());
}

// ---------------------------------------------------------------------------
// The coalition fan-out under EvaluateBatch.

/// Tracks how many Evaluate calls overlap. The first call waits (up to
/// 5 s) for a second one to begin, so any fan-out wider than one lane
/// shows as a peak above 1 however the threads are scheduled.
class ConcurrencyProbeUtility : public UtilityFunction {
 public:
  explicit ConcurrencyProbeUtility(int n) : n_(n) {}
  int num_clients() const override { return n_; }
  Result<double> Evaluate(const Coalition& coalition) const override {
    const int running = running_.fetch_add(1) + 1;
    int peak = peak_.load();
    while (running > peak && !peak_.compare_exchange_weak(peak, running)) {
    }
    if (started_.fetch_add(1) == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (started_.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    running_.fetch_sub(1);
    return static_cast<double>(coalition.Count());
  }
  int peak() const { return peak_.load(); }

 private:
  int n_;
  mutable std::atomic<int> running_{0};
  mutable std::atomic<int> peak_{0};
  mutable std::atomic<int> started_{0};
};

TEST(CoalitionFanOutTest, ConcurrencyStaysWithinTheBudget) {
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(8, 2, [&](const Coalition& c) { batch.push_back(c); });
  for (int slots : {1, 2, 4}) {
    PinnedThreads pinned(1 + slots);
    ConcurrencyProbeUtility fn(8);
    UtilityCache cache(&fn);
    UtilitySession session(&cache);
    Result<std::vector<double>> values = session.EvaluateBatch(batch);
    ASSERT_TRUE(values.ok());
    EXPECT_LE(fn.peak(), 1 + slots) << "budget " << slots;
    EXPECT_GT(fn.peak(), 1) << "budget " << slots;
    EXPECT_EQ(session.num_fresh_trainings(), batch.size());
    EXPECT_EQ(WorkerBudget::Global().in_use(), 0);
  }
}

/// Counts Evaluate calls and records the most budget slots leased
/// during any of them.
class LeaseProbeUtility : public UtilityFunction {
 public:
  explicit LeaseProbeUtility(int n) : n_(n) {}
  int num_clients() const override { return n_; }
  Result<double> Evaluate(const Coalition& coalition) const override {
    calls_.fetch_add(1);
    const int in_use = WorkerBudget::Global().in_use();
    int seen = max_in_use_.load();
    while (in_use > seen && !max_in_use_.compare_exchange_weak(seen, in_use)) {
    }
    return static_cast<double>(coalition.Count());
  }
  int calls() const { return calls_.load(); }
  int max_in_use() const { return max_in_use_.load(); }
  void Reset() {
    calls_.store(0);
    max_in_use_.store(0);
  }

 private:
  int n_;
  mutable std::atomic<int> calls_{0};
  mutable std::atomic<int> max_in_use_{0};
};

// Warm paths (a replay over a full cache, a re-run) and lone misses must
// not wake the pool: only a batch with two or more misses leases budget
// slots, and the fan-out runs one lane per leased slot. An all-hit batch
// reaches no Evaluate at all; the lone miss trains with no slot leased.
TEST(CoalitionFanOutTest, AllHitAndSingleMissBatchesLeaseNothing) {
  PinnedThreads pinned(5);
  LeaseProbeUtility fn(6);
  UtilityCache cache(&fn);
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(6, 2, [&](const Coalition& c) { batch.push_back(c); });
  UtilitySession cold(&cache);
  ASSERT_TRUE(cold.EvaluateBatch(batch).ok());
  EXPECT_EQ(fn.calls(), 15);
  EXPECT_GT(fn.max_in_use(), 0);  // the 15 misses fan out

  fn.Reset();
  UtilitySession warm(&cache);
  ASSERT_TRUE(warm.EvaluateBatch(batch).ok());
  EXPECT_EQ(fn.calls(), 0);
  batch.push_back(Coalition::Of({0, 1, 2}));  // one miss among hits
  ASSERT_TRUE(warm.EvaluateBatch(batch).ok());
  EXPECT_EQ(fn.calls(), 1);
  EXPECT_EQ(fn.max_in_use(), 0);
  EXPECT_EQ(warm.num_fresh_trainings(), 1u);
  EXPECT_EQ(WorkerBudget::Global().in_use(), 0);
}

/// Records what a TrainFedAvg nested in Evaluate would be granted: it
/// leases the way TrainFedAvg does, for as many slots as it can get.
class NestedLeaseProbeUtility : public UtilityFunction {
 public:
  explicit NestedLeaseProbeUtility(int n) : n_(n) {}
  int num_clients() const override { return n_; }
  Result<double> Evaluate(const Coalition& coalition) const override {
    WorkerBudget::Lease nested(WorkerBudget::Global(), 64);
    int seen = max_granted_.load();
    while (nested.granted() > seen &&
           !max_granted_.compare_exchange_weak(seen, nested.granted())) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    return static_cast<double>(coalition.Count());
  }
  int max_granted() const { return max_granted_.load(); }
  void Reset() { max_granted_.store(0); }

 private:
  int n_;
  mutable std::atomic<int> max_granted_{0};
};

TEST(CoalitionFanOutTest, LoneMissKeepsTheBudgetSaturatedBatchLeavesNone) {
  PinnedThreads pinned(3);
  {
    // One miss: no batch lease, so its training may fan its clients out.
    NestedLeaseProbeUtility fn(6);
    UtilityCache cache(&fn);
    ASSERT_TRUE(cache.Get(Coalition::Of({0})).ok());
    fn.Reset();
    UtilitySession session(&cache);
    ASSERT_TRUE(
        session.EvaluateBatch({Coalition::Of({0}), Coalition::Of({1, 2})})
            .ok());
    EXPECT_EQ(fn.max_granted(), 2);
  }
  {
    // Six misses at budget 2: the batch holds both slots throughout, so
    // every nested training runs its clients sequentially.
    NestedLeaseProbeUtility fn(6);
    UtilityCache cache(&fn);
    UtilitySession session(&cache);
    std::vector<Coalition> batch;
    ForEachSubsetOfSize(6, 1, [&](const Coalition& c) { batch.push_back(c); });
    ASSERT_TRUE(session.EvaluateBatch(batch).ok());
    EXPECT_EQ(fn.max_granted(), 0);
  }
}

/// Fails on the coalitions in `failing`, naming the coalition.
class SelectiveFailureUtility : public UtilityFunction {
 public:
  SelectiveFailureUtility(int n, std::vector<Coalition> failing)
      : n_(n), failing_(std::move(failing)) {}
  int num_clients() const override { return n_; }
  Result<double> Evaluate(const Coalition& coalition) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    for (const Coalition& bad : failing_) {
      if (coalition == bad) {
        return Status::Internal("failed on " + coalition.ToString());
      }
    }
    return static_cast<double>(coalition.Count());
  }

 private:
  int n_;
  std::vector<Coalition> failing_;
};

TEST(CoalitionFanOutTest, MidBatchFailureMatchesSequentialRun) {
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(8, 2, [&](const Coalition& c) { batch.push_back(c); });
  // Two failing coalitions; the lower batch index must win whichever
  // lane reaches its coalition first.
  const Coalition first_bad = batch[9];
  const Coalition later_bad = batch[20];
  SelectiveFailureUtility fn(8, {later_bad, first_bad});

  UtilityCache sequential_cache(&fn);
  UtilitySession sequential(&sequential_cache);
  Status expected = Status::OK();
  for (const Coalition& c : batch) {
    Result<double> u = sequential.Evaluate(c);
    if (!u.ok()) {
      expected = u.status();
      break;
    }
  }
  ASSERT_FALSE(expected.ok());

  PinnedThreads pinned(5);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  Result<std::vector<double>> values = session.EvaluateBatch(batch);
  ASSERT_FALSE(values.ok());
  EXPECT_EQ(values.status().ToString(), expected.ToString());
  EXPECT_NE(values.status().ToString().find(first_bad.ToString()),
            std::string::npos);
  EXPECT_EQ(session.num_evaluations(), sequential.num_evaluations());
  EXPECT_EQ(session.num_distinct(), sequential.num_distinct());
  EXPECT_EQ(session.num_fresh_trainings(), sequential.num_fresh_trainings());
  EXPECT_EQ(session.num_evaluations(), 9u);
}

TEST(UtilitySessionTest, PaperTableOneRoundTrip) {
  TableUtility table = testing_util::PaperTableOne();
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  Result<double> u = session.Evaluate(Coalition::Of({0, 1, 2}));
  ASSERT_TRUE(u.ok());
  EXPECT_DOUBLE_EQ(*u, 0.96);
}

}  // namespace
}  // namespace fedshap
