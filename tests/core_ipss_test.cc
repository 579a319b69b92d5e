#include "core/ipss.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/stratified.h"
#include "core/valuation_metrics.h"
#include "test_util.h"
#include "util/combinatorics.h"
#include "util/thread_pool.h"

namespace fedshap {
namespace {

using testing_util::MonotoneTable;
using testing_util::PaperTableOne;
using testing_util::RandomTable;

TEST(IpssKStarTest, MatchesDefinition) {
  // n=4: cumulative 1, 5, 11, 15, 16.
  EXPECT_EQ(IpssKStar(4, 0), -1);
  EXPECT_EQ(IpssKStar(4, 1), 0);
  EXPECT_EQ(IpssKStar(4, 4), 0);
  EXPECT_EQ(IpssKStar(4, 5), 1);
  EXPECT_EQ(IpssKStar(4, 10), 1);  // the paper's Example 3
  EXPECT_EQ(IpssKStar(4, 11), 2);
  EXPECT_EQ(IpssKStar(4, 15), 3);
  EXPECT_EQ(IpssKStar(4, 16), 4);
  EXPECT_EQ(IpssKStar(4, 1000), 4);
}

TEST(IpssKStarTest, PaperTableThreeConfigs) {
  // Table III: n=3 -> gamma=5; n=6 -> gamma=8; n=10 -> gamma=32.
  EXPECT_EQ(IpssKStar(3, 5), 1);
  EXPECT_EQ(IpssKStar(6, 8), 1);
  EXPECT_EQ(IpssKStar(10, 32), 1);
}

TEST(BalancedSampleTest, SizeAndDistinctness) {
  Rng rng(1);
  std::vector<Coalition> sample = BalancedCoalitionSample(6, 3, 10, rng);
  EXPECT_EQ(sample.size(), 10u);
  for (size_t a = 0; a < sample.size(); ++a) {
    EXPECT_EQ(sample[a].Count(), 3);
    for (size_t b = a + 1; b < sample.size(); ++b) {
      EXPECT_NE(sample[a], sample[b]);
    }
  }
}

TEST(BalancedSampleTest, CoverageNearlyEqual) {
  // Constraint (3): per-client coverage C_i as equal as possible.
  Rng rng(2);
  const int n = 8, size = 3, count = 16;
  std::vector<Coalition> sample =
      BalancedCoalitionSample(n, size, count, rng);
  ASSERT_EQ(sample.size(), static_cast<size_t>(count));
  std::vector<int> coverage(n, 0);
  for (const Coalition& c : sample) {
    c.ForEach([&](int i) { ++coverage[i]; });
  }
  const int min_cov = *std::min_element(coverage.begin(), coverage.end());
  const int max_cov = *std::max_element(coverage.begin(), coverage.end());
  // 16 * 3 / 8 = 6 per client exactly; allow slack of 1 for the greedy.
  EXPECT_LE(max_cov - min_cov, 1);
}

TEST(BalancedSampleTest, StopsWhenStratumExhausted) {
  Rng rng(3);
  // C(4, 2) = 6 sets exist; asking for 50 returns at most 6.
  std::vector<Coalition> sample = BalancedCoalitionSample(4, 2, 50, rng);
  EXPECT_LE(sample.size(), 6u);
  EXPECT_GE(sample.size(), 5u);  // greedy should find nearly all
}

TEST(IpssTest, BudgetIsRespected) {
  for (int gamma : {5, 10, 20, 32}) {
    const int n = 6;
    TableUtility table = RandomTable(n, 100 + gamma);
    UtilityCache cache(&table);
    UtilitySession session(&cache);
    IpssConfig config;
    config.total_rounds = gamma;
    Result<ValuationResult> result = IpssShapley(session, config);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->num_trainings, static_cast<size_t>(gamma));
  }
}

TEST(IpssTest, LargeBudgetReproducesExactSv) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const int n = 5;
    TableUtility table = RandomTable(n, seed);
    UtilityCache cache(&table);
    UtilitySession ipss_session(&cache), exact_session(&cache);
    IpssConfig config;
    config.total_rounds = 1 << n;  // gamma = 2^n -> k* = n
    Result<ValuationResult> ipss = IpssShapley(ipss_session, config);
    Result<ValuationResult> exact = ExactShapleyMc(exact_session);
    ASSERT_TRUE(ipss.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_LT(testing_util::MaxAbsDiff(ipss->values, exact->values), 1e-10);
  }
}

TEST(IpssTest, SmallBudgetAccurateOnMonotoneUtility) {
  // The headline claim: on FL-like (monotone, diminishing-returns)
  // utilities a tiny budget gives a small relative error.
  const int n = 10;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());

  UtilitySession ipss_session(&cache);
  IpssConfig config;
  config.total_rounds = 32;  // Table III's n=10 budget
  Result<ValuationResult> ipss = IpssShapley(ipss_session, config);
  ASSERT_TRUE(ipss.ok());
  EXPECT_LT(RelativeL2Error(exact->values, ipss->values), 0.45);
  EXPECT_GT(SpearmanCorrelation(exact->values, ipss->values), 0.9);
}

TEST(IpssTest, PaperExampleThreeSetup) {
  // Example 3: n=4, gamma=10 -> k*=1; 5 exhaustive evals (sizes 0..1) and
  // up to 5 sampled pairs of size 2.
  const int n = 4;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  IpssConfig config;
  config.total_rounds = 10;
  config.seed = 4;
  Result<ValuationResult> result = IpssShapley(session, config);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->num_trainings, 10u);
  EXPECT_GE(result->num_trainings, 5u);
  for (double v : result->values) EXPECT_TRUE(std::isfinite(v));
}

TEST(IpssTest, DeterministicForSameSeed) {
  const int n = 7;
  TableUtility table = RandomTable(n, 77);
  UtilityCache cache(&table);
  IpssConfig config;
  config.total_rounds = 16;
  config.seed = 123;
  UtilitySession s1(&cache), s2(&cache);
  Result<ValuationResult> r1 = IpssShapley(s1, config);
  Result<ValuationResult> r2 = IpssShapley(s2, config);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->values, r2->values);
}

TEST(IpssTest, NullPlayerGetsNearZero) {
  // Client 5 contributes nothing; IPSS must assign it ~0 even at small
  // budgets (no-free-riders in practice).
  const int n = 6;
  Result<TableUtility> table =
      TableUtility::FromFunction(n, [](const Coalition& c) {
        double mass = 0.0;
        c.ForEach([&](int i) {
          if (i != 5) mass += 1.0 / (1.0 + i);
        });
        return 1.0 - std::exp(-mass);
      });
  ASSERT_TRUE(table.ok());
  UtilityCache cache(&table.value());
  UtilitySession session(&cache);
  IpssConfig config;
  config.total_rounds = 12;
  Result<ValuationResult> result = IpssShapley(session, config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->values[5], 0.0, 1e-9);
  EXPECT_GT(result->values[0], 0.05);
}

TEST(IpssTest, SymmetricClientsGetEqualValuesAtFullCoverage) {
  // With gamma covering strata 0..2 fully for n=4 (1+4+6=11), symmetric
  // clients 1 and 2 receive identical estimates.
  const int n = 4;
  Result<TableUtility> table =
      TableUtility::FromFunction(n, [](const Coalition& c) {
        const int count_12 = c.Contains(1) + c.Contains(2);
        return 0.4 * c.Contains(0) + 0.25 * count_12 + 0.1 * c.Contains(3);
      });
  ASSERT_TRUE(table.ok());
  UtilityCache cache(&table.value());
  UtilitySession session(&cache);
  IpssConfig config;
  config.total_rounds = 11;  // k* = 2, no partial stratum
  Result<ValuationResult> result = IpssShapley(session, config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->values[1], result->values[2], 1e-10);
}

TEST(IpssTest, BeatsUniformStratifiedAtEqualBudgetOnMonotone) {
  // Ablation (the design choice IPSS embodies): importance-pruned spending
  // of gamma beats the plain stratified spread on FL-shaped utilities.
  const int n = 10;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());

  const int gamma = 32;
  double ipss_error = 0.0;
  double stratified_error = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    UtilitySession ipss_session(&cache);
    IpssConfig ipss_config;
    ipss_config.total_rounds = gamma;
    ipss_config.seed = 500 + t;
    Result<ValuationResult> ipss = IpssShapley(ipss_session, ipss_config);
    ASSERT_TRUE(ipss.ok());
    ipss_error += RelativeL2Error(exact->values, ipss->values);

    UtilitySession strat_session(&cache);
    StratifiedConfig strat_config;
    strat_config.total_rounds = gamma;
    strat_config.seed = 500 + t;
    Result<ValuationResult> strat =
        StratifiedSamplingShapley(strat_session, strat_config);
    ASSERT_TRUE(strat.ok());
    stratified_error += RelativeL2Error(exact->values, strat->values);
  }
  EXPECT_LT(ipss_error / trials, stratified_error / trials);
}

TEST(AdaptiveIpssTest, ConvergesAndStaysWithinCeiling) {
  const int n = 8;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  AdaptiveIpssConfig config;
  config.initial_rounds = 8;
  config.max_rounds = 256;  // 2^8 = exhaustive
  config.tolerance = 0.02;
  Result<ValuationResult> adaptive = AdaptiveIpssShapley(session, config);
  ASSERT_TRUE(adaptive.ok());
  EXPECT_LE(adaptive->num_trainings, 256u);

  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());
  // Converged estimate is close to the truth on FL-shaped utilities.
  EXPECT_LT(RelativeL2Error(exact->values, adaptive->values), 0.2);
}

TEST(AdaptiveIpssTest, ZeroToleranceRunsToMaxAndIsExact) {
  const int n = 5;
  TableUtility table = RandomTable(n, 21);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  AdaptiveIpssConfig config;
  config.initial_rounds = 2;
  config.max_rounds = 1 << n;
  config.tolerance = 0.0;
  Result<ValuationResult> adaptive = AdaptiveIpssShapley(session, config);
  ASSERT_TRUE(adaptive.ok());
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(testing_util::MaxAbsDiff(adaptive->values, exact->values),
            1e-10);
}

TEST(AdaptiveIpssTest, ChargesDoublingsOnlyOnce) {
  // IPSS budgets are nested (exhaustive prefixes), so the distinct
  // coalition count of the whole adaptive run stays near the final
  // budget's count.
  const int n = 7;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  AdaptiveIpssConfig config;
  config.initial_rounds = 4;
  config.max_rounds = 64;
  config.tolerance = 0.0;  // force all doublings
  Result<ValuationResult> adaptive = AdaptiveIpssShapley(session, config);
  ASSERT_TRUE(adaptive.ok());
  // 4 + 8 + 16 + 32 + 64 evaluations would be 124 without reuse; nested
  // structure keeps distinct coalitions well below that.
  EXPECT_LE(adaptive->num_trainings, 90u);
}

TEST(AdaptiveIpssTest, Validation) {
  TableUtility table = RandomTable(3, 23);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  AdaptiveIpssConfig config;
  config.initial_rounds = 0;
  EXPECT_FALSE(AdaptiveIpssShapley(session, config).ok());
  config.initial_rounds = 16;
  config.max_rounds = 8;
  EXPECT_FALSE(AdaptiveIpssShapley(session, config).ok());
  config.max_rounds = 32;
  config.tolerance = -1.0;
  EXPECT_FALSE(AdaptiveIpssShapley(session, config).ok());
}

TEST(IpssTest, Validation) {
  TableUtility table = RandomTable(3, 5);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  IpssConfig config;
  config.total_rounds = 0;
  EXPECT_FALSE(IpssShapley(session, config).ok());
}

TEST(IpssTest, ParallelSessionMatchesSequential) {
  TableUtility table = RandomTable(10, 21);
  UtilityCache cache(&table);
  IpssConfig config;
  config.total_rounds = 60;
  config.seed = 7;
  auto run = [&](int threads) {
    PinnedThreads pinned(threads);
    UtilitySession session(&cache);
    return IpssShapley(session, config);
  };

  // Same cache: the fanned-out run trains it cold, and the sequential
  // reference must produce bit-identical estimates and identical per-run
  // accounting (charged costs come from shared records).
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
