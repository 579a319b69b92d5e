#include "core/exact.h"

#include <numeric>

#include <gtest/gtest.h>

#include "core/valuation_metrics.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace fedshap {
namespace {

using testing_util::MaxAbsDiff;
using testing_util::PaperTableOne;
using testing_util::RandomTable;

ValuationResult RunExactMc(const UtilityFunction& fn) {
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  Result<ValuationResult> result = ExactShapleyMc(session);
  FEDSHAP_CHECK(result.ok());
  return std::move(result).value();
}

TEST(ExactShapleyTest, PaperTableOneExample) {
  // The paper's Example 1: phi = (0.22, 0.32, 0.32).
  TableUtility table = PaperTableOne();
  ValuationResult result = RunExactMc(table);
  ASSERT_EQ(result.values.size(), 3u);
  EXPECT_NEAR(result.values[0], 0.22, 1e-12);
  EXPECT_NEAR(result.values[1], 0.32, 1e-12);
  EXPECT_NEAR(result.values[2], 0.32, 1e-12);
  EXPECT_EQ(result.num_trainings, 8u);  // all 2^3 coalitions
}

TEST(ExactShapleyTest, EfficiencyAxiomOnPaperTable) {
  TableUtility table = PaperTableOne();
  ValuationResult result = RunExactMc(table);
  // sum phi = U(N) - U(empty) = 0.96 - 0.10.
  EXPECT_NEAR(EfficiencyResidual(result.values, 0.96, 0.10), 0.0, 1e-12);
}

TEST(ExactShapleyTest, McAndCcSchemesAgreeOnRandomTables) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (int n = 1; n <= 6; ++n) {
      TableUtility table = RandomTable(n, seed * 100 + n);
      UtilityCache cache(&table);
      UtilitySession mc_session(&cache), cc_session(&cache);
      Result<ValuationResult> mc = ExactShapleyMc(mc_session);
      Result<ValuationResult> cc = ExactShapleyCc(cc_session);
      ASSERT_TRUE(mc.ok());
      ASSERT_TRUE(cc.ok());
      EXPECT_LT(MaxAbsDiff(mc->values, cc->values), 1e-10)
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(ExactShapleyTest, PermutationSchemeAgrees) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const int n = 1 + static_cast<int>(seed % 5);
    TableUtility table = RandomTable(n, seed);
    UtilityCache cache(&table);
    UtilitySession mc_session(&cache), perm_session(&cache);
    Result<ValuationResult> mc = ExactShapleyMc(mc_session);
    Result<ValuationResult> perm = ExactShapleyPermutation(perm_session);
    ASSERT_TRUE(mc.ok());
    ASSERT_TRUE(perm.ok());
    EXPECT_LT(MaxAbsDiff(mc->values, perm->values), 1e-10);
  }
}

TEST(ExactShapleyTest, EfficiencyAxiomPropertyOnRandomTables) {
  for (uint64_t seed = 50; seed < 60; ++seed) {
    const int n = 4;
    TableUtility table = RandomTable(n, seed);
    ValuationResult result = RunExactMc(table);
    const double u_full = table.Evaluate(Coalition::Full(n)).value();
    const double u_empty = table.Evaluate(Coalition()).value();
    EXPECT_NEAR(EfficiencyResidual(result.values, u_full, u_empty), 0.0,
                1e-10);
  }
}

TEST(ExactShapleyTest, NullPlayerAxiom) {
  // Client 3 never changes the utility -> phi_3 = 0 (no-free-riders).
  Result<TableUtility> table =
      TableUtility::FromFunction(4, [](const Coalition& c) {
        Coalition without = c.Without(3);
        return 0.2 * without.Count() + 0.05 * without.Contains(0);
      });
  ASSERT_TRUE(table.ok());
  ValuationResult result = RunExactMc(*table);
  EXPECT_NEAR(result.values[3], 0.0, 1e-12);
  EXPECT_GT(result.values[0], 0.0);
}

TEST(ExactShapleyTest, SymmetryAxiom) {
  // Clients 1 and 2 are interchangeable -> equal values.
  Result<TableUtility> table =
      TableUtility::FromFunction(4, [](const Coalition& c) {
        const int count_12 = c.Contains(1) + c.Contains(2);
        return 0.5 * c.Contains(0) + 0.3 * count_12 +
               0.1 * c.Contains(3) * c.Contains(0);
      });
  ASSERT_TRUE(table.ok());
  ValuationResult result = RunExactMc(*table);
  EXPECT_NEAR(result.values[1], result.values[2], 1e-12);
  EXPECT_GT(result.values[0], result.values[1]);
}

TEST(ExactShapleyTest, LinearAdditivityAxiom) {
  // SV is linear in the utility function: phi(U1 + U2) = phi(U1) + phi(U2).
  // This is the mechanism behind the paper's test-dataset additivity.
  const int n = 4;
  TableUtility u1 = RandomTable(n, 7);
  TableUtility u2 = RandomTable(n, 8);
  Result<TableUtility> sum =
      TableUtility::FromFunction(n, [&](const Coalition& c) {
        return u1.Evaluate(c).value() + u2.Evaluate(c).value();
      });
  ASSERT_TRUE(sum.ok());
  ValuationResult r1 = RunExactMc(u1);
  ValuationResult r2 = RunExactMc(u2);
  ValuationResult rs = RunExactMc(*sum);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(rs.values[i], r1.values[i] + r2.values[i], 1e-10);
  }
}

TEST(ExactShapleyTest, SingleClientGetsAllValue) {
  Result<TableUtility> table = TableUtility::FromFunction(
      1, [](const Coalition& c) { return c.Empty() ? 0.1 : 0.9; });
  ASSERT_TRUE(table.ok());
  ValuationResult result = RunExactMc(*table);
  ASSERT_EQ(result.values.size(), 1u);
  EXPECT_NEAR(result.values[0], 0.8, 1e-12);
}

TEST(ExactShapleyTest, RejectsOversizedInstances) {
  // Permutation variant only supports n <= 8; build a fake 9-client wrapper.
  class Wide : public UtilityFunction {
   public:
    int num_clients() const override { return 9; }
    Result<double> Evaluate(const Coalition&) const override { return 0.0; }
  };
  Wide wide;
  UtilityCache wide_cache(&wide);
  UtilitySession wide_session(&wide_cache);
  EXPECT_FALSE(ExactShapleyPermutation(wide_session).ok());
}

TEST(ExactShapleyTest, CostEstimatesGrowCorrectly) {
  const double tau = 2.0;
  EXPECT_DOUBLE_EQ(EstimateMcShapleySeconds(3, tau), 16.0);
  EXPECT_DOUBLE_EQ(EstimateMcShapleySeconds(10, tau), 2048.0);
  // Perm: n! * n * tau.
  EXPECT_NEAR(EstimatePermShapleySeconds(3, tau), 6 * 3 * 2.0, 1e-9);
  EXPECT_GT(EstimatePermShapleySeconds(10, tau),
            EstimateMcShapleySeconds(10, tau));
}

TEST(ExactShapleyTest, SessionAccountingMatchesCoalitionCount) {
  TableUtility table = RandomTable(5, 3);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  Result<ValuationResult> result = ExactShapleyMc(session);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_trainings, 32u);
  EXPECT_EQ(result->num_evaluations, 32u);
}

TEST(ExactShapleyTest, ParallelSessionMatchesSequential) {
  TableUtility table = RandomTable(8, 11);
  UtilityCache cache(&table);
  using Estimator = Result<ValuationResult> (*)(UtilitySession&);
  auto run = [&cache](Estimator estimator, int threads) {
    PinnedThreads pinned(threads);
    UtilitySession session(&cache);
    return estimator(session);
  };

  // The fanned-out run goes first and trains the cold cache; the
  // sequential reference then charges the same records.
  Result<ValuationResult> mc_parallel = run(ExactShapleyMc, 5);
  ASSERT_TRUE(mc_parallel.ok());
  Result<ValuationResult> mc_reference = run(ExactShapleyMc, 1);
  ASSERT_TRUE(mc_reference.ok());
  EXPECT_EQ(mc_parallel->values, mc_reference->values);
  EXPECT_EQ(mc_parallel->num_evaluations, mc_reference->num_evaluations);
  EXPECT_EQ(mc_parallel->num_trainings, mc_reference->num_trainings);
  EXPECT_DOUBLE_EQ(mc_parallel->charged_seconds,
                   mc_reference->charged_seconds);

  Result<ValuationResult> cc_reference = run(ExactShapleyCc, 1);
  ASSERT_TRUE(cc_reference.ok());
  Result<ValuationResult> cc_parallel = run(ExactShapleyCc, 5);
  ASSERT_TRUE(cc_parallel.ok());
  EXPECT_EQ(cc_parallel->values, cc_reference->values);
}
}  // namespace
}  // namespace fedshap
