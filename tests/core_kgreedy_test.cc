#include "core/kgreedy.h"

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/valuation_metrics.h"
#include "test_util.h"
#include "util/combinatorics.h"
#include "util/thread_pool.h"

namespace fedshap {
namespace {

using testing_util::MonotoneTable;
using testing_util::PaperTableOne;
using testing_util::RandomTable;

TEST(KGreedyTest, KEqualsNReproducesExactSv) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const int n = 5;
    TableUtility table = RandomTable(n, seed);
    UtilityCache cache(&table);
    UtilitySession kg_session(&cache), exact_session(&cache);
    Result<ValuationResult> kg = KGreedyShapley(kg_session, n);
    Result<ValuationResult> exact = ExactShapleyMc(exact_session);
    ASSERT_TRUE(kg.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_LT(testing_util::MaxAbsDiff(kg->values, exact->values), 1e-10);
  }
}

TEST(KGreedyTest, BudgetMatchesSubsetsUpToK) {
  const int n = 7;
  TableUtility table = RandomTable(n, 3);
  for (int k = 1; k <= n; ++k) {
    UtilityCache cache(&table);
    UtilitySession session(&cache);
    Result<ValuationResult> result = KGreedyShapley(session, k);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->num_trainings, SubsetsUpToSize(n, k));
  }
}

TEST(KGreedyTest, ErrorShrinksWithKOnMonotoneUtility) {
  // The key-combinations phenomenon (Fig. 4): on diminishing-returns
  // utilities, small K already yields small relative error, and error is
  // (weakly) decreasing in K.
  const int n = 8;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());

  double previous_error = 1e18;
  for (int k = 1; k <= n; ++k) {
    UtilitySession session(&cache);
    Result<ValuationResult> kg = KGreedyShapley(session, k);
    ASSERT_TRUE(kg.ok());
    const double error = RelativeL2Error(exact->values, kg->values);
    EXPECT_LE(error, previous_error + 1e-9) << "k=" << k;
    previous_error = error;
  }
  EXPECT_NEAR(previous_error, 0.0, 1e-10);  // k=n is exact

  // K=3 of 8 already captures the bulk of the value.
  UtilitySession small_session(&cache);
  Result<ValuationResult> small = KGreedyShapley(small_session, 3);
  ASSERT_TRUE(small.ok());
  EXPECT_LT(RelativeL2Error(exact->values, small->values), 0.2);
}

TEST(KGreedyTest, PreservesRankingOnMonotoneUtility) {
  // Even at small K the *ranking* of clients matches the exact SV: client
  // strengths in MonotoneTable decrease with index.
  const int n = 6;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  Result<ValuationResult> kg = KGreedyShapley(session, 2);
  ASSERT_TRUE(kg.ok());
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_GT(kg->values[i], kg->values[i + 1]);
  }
}

TEST(KGreedyTest, PaperTableOneAtFullK) {
  TableUtility table = PaperTableOne();
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  Result<ValuationResult> kg = KGreedyShapley(session, 3);
  ASSERT_TRUE(kg.ok());
  EXPECT_NEAR(kg->values[0], 0.22, 1e-12);
  EXPECT_NEAR(kg->values[1], 0.32, 1e-12);
  EXPECT_NEAR(kg->values[2], 0.32, 1e-12);
}

TEST(KGreedyTest, Validation) {
  TableUtility table = RandomTable(4, 5);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  EXPECT_FALSE(KGreedyShapley(session, 0).ok());
  EXPECT_FALSE(KGreedyShapley(session, 5).ok());
}

TEST(KGreedyTest, ParallelSessionMatchesSequential) {
  TableUtility table = RandomTable(10, 19);
  UtilityCache cache(&table);
  auto run = [&](int threads) {
    PinnedThreads pinned(threads);
    UtilitySession session(&cache);
    return KGreedyShapley(session, 3);
  };
  // The fanned-out run goes first and trains the cold cache; the
  // sequential reference then charges the same records.
  Result<ValuationResult> parallel = run(5);
  ASSERT_TRUE(parallel.ok());
  Result<ValuationResult> reference = run(1);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(parallel->values, reference->values);
  EXPECT_EQ(parallel->num_evaluations, reference->num_evaluations);
  EXPECT_EQ(parallel->num_trainings, reference->num_trainings);
  EXPECT_DOUBLE_EQ(parallel->charged_seconds, reference->charged_seconds);
}
}  // namespace
}  // namespace fedshap
