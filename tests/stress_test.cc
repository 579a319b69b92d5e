/// Stress and fuzz suites: randomized operation sequences checked against
/// reference implementations, and concurrency hammering on the shared
/// utility cache. These guard the substrate invariants the valuation
/// algorithms silently rely on.

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "data/synthetic.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "ml/logistic_regression.h"
#include "test_util.h"
#include "util/coalition.h"
#include "util/combinatorics.h"
#include "util/thread_pool.h"

namespace fedshap {
namespace {

TEST(CoalitionFuzzTest, MatchesReferenceSetSemantics) {
  // Random Add/Remove/With/Without/Union/Minus sequences must agree with
  // std::set<int> reference semantics.
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    Coalition coalition;
    std::set<int> reference;
    for (int op = 0; op < 200; ++op) {
      const int client = static_cast<int>(rng.UniformInt(40));
      switch (rng.UniformInt(4)) {
        case 0:
          coalition.Add(client);
          reference.insert(client);
          break;
        case 1:
          coalition.Remove(client);
          reference.erase(client);
          break;
        case 2: {
          Coalition other;
          std::set<int> other_ref;
          for (int j = 0; j < 3; ++j) {
            const int c = static_cast<int>(rng.UniformInt(40));
            other.Add(c);
            other_ref.insert(c);
          }
          coalition = coalition.Union(other);
          reference.insert(other_ref.begin(), other_ref.end());
          break;
        }
        case 3: {
          Coalition other;
          std::set<int> other_ref;
          for (int j = 0; j < 2; ++j) {
            const int c = static_cast<int>(rng.UniformInt(40));
            other.Add(c);
            other_ref.insert(c);
          }
          coalition = coalition.Minus(other);
          for (int c : other_ref) reference.erase(c);
          break;
        }
      }
      // Full-state comparison every few ops keeps the test fast.
      if (op % 20 == 0) {
        std::vector<int> expected(reference.begin(), reference.end());
        ASSERT_EQ(coalition.Members(), expected) << "trial " << trial;
        ASSERT_EQ(coalition.Count(), static_cast<int>(reference.size()));
      }
    }
  }
}

TEST(CoalitionFuzzTest, ComplementAndSubsetInvariants) {
  Rng rng(2);
  const int n = 24;
  for (int trial = 0; trial < 300; ++trial) {
    const int k = static_cast<int>(rng.UniformInt(n + 1));
    Coalition s = RandomSubsetOfSize(n, k, rng);
    const Coalition complement = s.ComplementIn(n);
    // S and its complement partition the grand coalition.
    EXPECT_EQ(s.Union(complement), Coalition::Full(n));
    EXPECT_TRUE(s.Intersect(complement).Empty());
    EXPECT_EQ(s.Count() + complement.Count(), n);
    // Subset relations.
    EXPECT_TRUE(s.IsSubsetOf(Coalition::Full(n)));
    EXPECT_EQ(s.IsSubsetOf(complement), s.Empty());
  }
}

TEST(DatasetFuzzTest, SubsetMergeRoundTrip) {
  Rng rng(3);
  Result<Dataset> pool = GenerateBlobs(3, 4, 4.0, 200, rng);
  ASSERT_TRUE(pool.ok());
  for (int trial = 0; trial < 30; ++trial) {
    // Random disjoint split, then merge: multiset of rows preserved.
    std::vector<size_t> order(pool->size());
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    const size_t cut = rng.UniformInt(pool->size() + 1);
    std::vector<size_t> left_idx(order.begin(), order.begin() + cut);
    std::vector<size_t> right_idx(order.begin() + cut, order.end());
    Dataset left = pool->Subset(left_idx);
    Dataset right = pool->Subset(right_idx);
    Result<Dataset> merged = Dataset::Merge({&left, &right});
    ASSERT_TRUE(merged.ok());
    ASSERT_EQ(merged->size(), pool->size());
    // Compare as multisets of (first feature, target) signatures.
    auto signature = [](const Dataset& d) {
      std::multiset<std::pair<float, float>> sig;
      for (size_t i = 0; i < d.size(); ++i) {
        sig.emplace(d.Value(i, 0), d.Target(i));
      }
      return sig;
    };
    EXPECT_EQ(signature(*merged), signature(*pool));
  }
}

class ConcurrencyStress : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4);
    Result<Dataset> pool = GenerateBlobs(2, 4, 5.0, 600, rng);
    ASSERT_TRUE(pool.ok());
    auto [train, test] = pool->Split(0.7, rng);
    std::vector<Dataset> clients;
    for (int i = 0; i < 5; ++i) {
      std::vector<size_t> idx;
      for (size_t r = i; r < train.size(); r += 5) idx.push_back(r);
      clients.push_back(train.Subset(idx));
    }
    LogisticRegression prototype(4, 2);
    Rng init(5);
    prototype.InitializeParameters(init);
    FedAvgConfig config;
    config.rounds = 2;
    Result<std::unique_ptr<FedAvgUtility>> utility = FedAvgUtility::Create(
        std::move(clients), std::move(test), prototype, config);
    ASSERT_TRUE(utility.ok());
    utility_ = std::move(utility).value();
  }
  std::unique_ptr<FedAvgUtility> utility_;
};

TEST_F(ConcurrencyStress, ParallelEvaluationsAgreeWithSequential) {
  // The same coalition evaluated from many threads must yield one value.
  UtilityCache cache(utility_.get());
  std::vector<Coalition> targets;
  for (uint64_t mask = 0; mask < 32; ++mask) {
    Coalition c;
    for (int i = 0; i < 5; ++i) {
      if ((mask >> i) & 1ULL) c.Add(i);
    }
    targets.push_back(c);
  }
  // Hammer: every coalition requested from 8 concurrent tasks.
  std::atomic<int> failures{0};
  {
    ThreadPool pool(4);
    for (int rep = 0; rep < 8; ++rep) {
      for (const Coalition& c : targets) {
        pool.Submit([&cache, &failures, c] {
          if (!cache.Get(c).ok()) failures.fetch_add(1);
        });
      }
    }
  }  // the destructor drains the queue, then joins
  EXPECT_EQ(failures.load(), 0);

  // Values equal a fresh sequential evaluation (determinism).
  UtilityCache fresh(utility_.get());
  for (const Coalition& c : targets) {
    Result<UtilityRecord> cached = cache.Get(c);
    Result<UtilityRecord> direct = fresh.Get(c);
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(direct.ok());
    EXPECT_DOUBLE_EQ(cached->utility, direct->utility) << c.ToString();
  }
}

TEST_F(ConcurrencyStress, ParallelPrefetchThenExactShapley) {
  // Prefetching all coalitions in parallel then running exact SV must give
  // the same values as a purely sequential run.
  UtilityCache parallel_cache(utility_.get());
  PinnedThreads pinned(5);
  std::vector<Coalition> all;
  for (uint64_t mask = 0; mask < 32; ++mask) {
    Coalition c;
    for (int i = 0; i < 5; ++i) {
      if ((mask >> i) & 1ULL) c.Add(i);
    }
    all.push_back(c);
  }
  ASSERT_TRUE(parallel_cache.Prefetch(all).ok());
  UtilitySession parallel_session(&parallel_cache);
  Result<ValuationResult> from_parallel = ExactShapleyMc(parallel_session);
  ASSERT_TRUE(from_parallel.ok());

  UtilityCache sequential_cache(utility_.get());
  UtilitySession sequential_session(&sequential_cache);
  Result<ValuationResult> from_sequential =
      ExactShapleyMc(sequential_session);
  ASSERT_TRUE(from_sequential.ok());
  EXPECT_EQ(from_parallel->values, from_sequential->values);
}

TEST(TableUtilityStress, ManyConcurrentSessions) {
  TableUtility table = testing_util::MonotoneTable(8);
  UtilityCache cache(&table);
  ThreadPool pool(4);
  std::atomic<int> failures{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 64; ++i) {
    group.Run([&, i] {
      UtilitySession session(&cache);
      Rng rng(1000 + i);
      for (int draws = 0; draws < 50; ++draws) {
        Coalition c = RandomSubsetOfSize(8, 1 + rng.UniformInt(8), rng);
        if (!session.Evaluate(c).ok()) failures.fetch_add(1);
      }
    });
  }
  group.Wait();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.size(), 256u);
}

}  // namespace
}  // namespace fedshap
