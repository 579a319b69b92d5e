#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "baselines/cc_shapley.h"
#include "baselines/extended_gtb.h"
#include "baselines/extended_tmc.h"
#include "core/exact.h"
#include "core/ipss.h"
#include "core/valuation_metrics.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace fedshap {
namespace {

using testing_util::MonotoneTable;
using testing_util::PaperTableOne;
using testing_util::RandomTable;

// ---------------------------------------------------------------------------
// Extended-TMC

TEST(ExtendedTmcTest, ConvergesToExactWithManyPermutations) {
  const int n = 4;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());

  UtilitySession tmc_session(&cache);
  ExtendedTmcConfig config;
  config.permutations = 4000;
  config.truncation_tolerance = 0.0;  // no truncation: pure MC
  config.seed = 5;
  Result<ValuationResult> tmc = ExtendedTmcShapley(tmc_session, config);
  ASSERT_TRUE(tmc.ok());
  EXPECT_LT(RelativeL2Error(exact->values, tmc->values), 0.05);
}

TEST(ExtendedTmcTest, EfficiencyHoldsPerPermutationWithoutTruncation) {
  // Each untruncated permutation telescopes to U(N) - U(empty), so the
  // estimator preserves efficiency exactly.
  const int n = 5;
  TableUtility table = RandomTable(n, 9);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  ExtendedTmcConfig config;
  config.permutations = 37;
  config.truncation_tolerance = 0.0;
  Result<ValuationResult> tmc = ExtendedTmcShapley(session, config);
  ASSERT_TRUE(tmc.ok());
  const double u_full = table.Evaluate(Coalition::Full(n)).value();
  const double u_empty = table.Evaluate(Coalition()).value();
  EXPECT_NEAR(EfficiencyResidual(tmc->values, u_full, u_empty), 0.0, 1e-10);
}

TEST(ExtendedTmcTest, TruncationReducesEvaluations) {
  const int n = 8;
  TableUtility table = MonotoneTable(n);  // saturates quickly
  UtilityCache cache(&table);
  ExtendedTmcConfig config;
  config.permutations = 30;
  config.seed = 11;

  config.truncation_tolerance = 0.0;
  UtilitySession full_session(&cache);
  Result<ValuationResult> full = ExtendedTmcShapley(full_session, config);
  ASSERT_TRUE(full.ok());

  config.truncation_tolerance = 0.05;
  UtilitySession truncated_session(&cache);
  Result<ValuationResult> truncated =
      ExtendedTmcShapley(truncated_session, config);
  ASSERT_TRUE(truncated.ok());
  EXPECT_LT(truncated->num_evaluations, full->num_evaluations);
}

TEST(ExtendedTmcTest, DeterministicPerSeed) {
  TableUtility table = RandomTable(5, 13);
  UtilityCache cache(&table);
  ExtendedTmcConfig config;
  config.permutations = 10;
  config.seed = 21;
  UtilitySession s1(&cache), s2(&cache);
  Result<ValuationResult> r1 = ExtendedTmcShapley(s1, config);
  Result<ValuationResult> r2 = ExtendedTmcShapley(s2, config);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->values, r2->values);
}

TEST(ExtendedTmcTest, Validation) {
  TableUtility table = RandomTable(3, 15);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  ExtendedTmcConfig config;
  config.permutations = 0;
  EXPECT_FALSE(ExtendedTmcShapley(session, config).ok());
}

// ---------------------------------------------------------------------------
// Extended-GTB

TEST(ExtendedGtbTest, EfficiencyConstraintAlwaysHolds) {
  const int n = 5;
  TableUtility table = RandomTable(n, 17);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  ExtendedGtbConfig config;
  config.samples = 25;
  Result<ValuationResult> gtb = ExtendedGtbShapley(session, config);
  ASSERT_TRUE(gtb.ok());
  const double u_full = table.Evaluate(Coalition::Full(n)).value();
  const double u_empty = table.Evaluate(Coalition()).value();
  EXPECT_NEAR(EfficiencyResidual(gtb->values, u_full, u_empty), 0.0, 1e-9);
}

TEST(ExtendedGtbTest, ConvergesOnMonotoneUtility) {
  const int n = 5;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());

  UtilitySession gtb_session(&cache);
  ExtendedGtbConfig config;
  config.samples = 20000;
  config.seed = 3;
  Result<ValuationResult> gtb = ExtendedGtbShapley(gtb_session, config);
  ASSERT_TRUE(gtb.ok());
  // GTB estimates pairwise differences; generous tolerance.
  EXPECT_LT(RelativeL2Error(exact->values, gtb->values), 0.15);
  EXPECT_GT(SpearmanCorrelation(exact->values, gtb->values), 0.9);
}

TEST(ExtendedGtbTest, BudgetRespected) {
  const int n = 6;
  TableUtility table = RandomTable(n, 19);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  ExtendedGtbConfig config;
  config.samples = 12;
  Result<ValuationResult> gtb = ExtendedGtbShapley(session, config);
  ASSERT_TRUE(gtb.ok());
  // samples + U(N) + U(empty).
  EXPECT_LE(gtb->num_trainings, 14u);
}

TEST(ExtendedGtbTest, Validation) {
  TableUtility one = RandomTable(1, 1);
  UtilityCache cache_one(&one);
  UtilitySession session_one(&cache_one);
  ExtendedGtbConfig config;
  EXPECT_FALSE(ExtendedGtbShapley(session_one, config).ok());

  TableUtility table = RandomTable(3, 2);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  config.samples = 0;
  EXPECT_FALSE(ExtendedGtbShapley(session, config).ok());
}

// ---------------------------------------------------------------------------
// CC-Shapley

TEST(CcShapleyTest, ConvergesToExactWithManyRounds) {
  const int n = 4;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());

  UtilitySession cc_session(&cache);
  CcShapleyConfig config;
  config.rounds = 8000;
  config.seed = 7;
  Result<ValuationResult> cc = CcShapley(cc_session, config);
  ASSERT_TRUE(cc.ok());
  EXPECT_LT(RelativeL2Error(exact->values, cc->values), 0.05);
}

TEST(CcShapleyTest, EachRoundCostsTwoEvaluations) {
  const int n = 6;
  TableUtility table = RandomTable(n, 23);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  CcShapleyConfig config;
  config.rounds = 9;
  Result<ValuationResult> cc = CcShapley(session, config);
  ASSERT_TRUE(cc.ok());
  EXPECT_EQ(cc->num_evaluations, 18u);
}

TEST(CcShapleyTest, OnePairInformsAllClients) {
  // Even a single round must produce a non-trivial estimate for every
  // client (members and non-members both receive a sample).
  const int n = 5;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  CcShapleyConfig config;
  config.rounds = 1;
  config.seed = 3;
  Result<ValuationResult> cc = CcShapley(session, config);
  ASSERT_TRUE(cc.ok());
  int nonzero = 0;
  for (double v : cc->values) {
    if (v != 0.0) ++nonzero;
  }
  EXPECT_EQ(nonzero, n);
}

TEST(CcShapleyTest, DeterministicPerSeed) {
  TableUtility table = RandomTable(5, 29);
  UtilityCache cache(&table);
  CcShapleyConfig config;
  config.rounds = 15;
  config.seed = 31;
  UtilitySession s1(&cache), s2(&cache);
  Result<ValuationResult> r1 = CcShapley(s1, config);
  Result<ValuationResult> r2 = CcShapley(s2, config);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->values, r2->values);
}

TEST(CcShapleyTest, Validation) {
  TableUtility table = RandomTable(3, 33);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  CcShapleyConfig config;
  config.rounds = 0;
  EXPECT_FALSE(CcShapley(session, config).ok());
}

// ---------------------------------------------------------------------------
// Cross-baseline comparison at matched budgets (the paper's core finding
// on structured, FL-shaped utilities).

TEST(SamplingBaselinesTest, IpssErrorIsCompetitiveAtTableIiiBudgets) {
  const int n = 10;
  const int gamma = 32;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());

  // IPSS at gamma.
  UtilitySession ipss_session(&cache);
  IpssConfig ipss_config;
  ipss_config.total_rounds = gamma;
  Result<ValuationResult> ipss = IpssShapley(ipss_session, ipss_config);
  ASSERT_TRUE(ipss.ok());
  const double ipss_error = RelativeL2Error(exact->values, ipss->values);

  // GTB at the same coalition budget.
  UtilitySession gtb_session(&cache);
  ExtendedGtbConfig gtb_config;
  gtb_config.samples = gamma;
  Result<ValuationResult> gtb = ExtendedGtbShapley(gtb_session, gtb_config);
  ASSERT_TRUE(gtb.ok());
  const double gtb_error = RelativeL2Error(exact->values, gtb->values);

  // CC-Shapley at the same number of sampled pairs.
  UtilitySession cc_session(&cache);
  CcShapleyConfig cc_config;
  cc_config.rounds = gamma;
  Result<ValuationResult> cc = CcShapley(cc_session, cc_config);
  ASSERT_TRUE(cc.ok());
  const double cc_error = RelativeL2Error(exact->values, cc->values);

  EXPECT_LT(ipss_error, gtb_error);
  EXPECT_LT(ipss_error, cc_error);
}

TEST(CcShapleyTest, ParallelSessionMatchesSequential) {
  TableUtility table = RandomTable(10, 23);
  UtilityCache cache(&table);
  CcShapleyConfig config;
  config.rounds = 48;
  config.seed = 3;
  auto run = [&](int threads) {
    PinnedThreads pinned(threads);
    UtilitySession session(&cache);
    return CcShapley(session, config);
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
