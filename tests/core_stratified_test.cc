#include "core/stratified.h"

#include <algorithm>
#include <cmath>
#include <numeric>

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

TEST(StratumAllocationTest, SplitsBudgetRoundRobin) {
  std::vector<int> alloc = DefaultStratumAllocation(4, 8);
  ASSERT_EQ(alloc.size(), 4u);
  EXPECT_EQ(std::accumulate(alloc.begin(), alloc.end(), 0), 8);
  // Every stratum gets at least one sample with budget >= n.
  for (int m : alloc) EXPECT_GE(m, 1);
}

TEST(StratumAllocationTest, ClipsAtStratumPopulation) {
  // n=3: strata have C(3,1)=3, C(3,2)=3, C(3,3)=1 sets -> max total 7.
  std::vector<int> alloc = DefaultStratumAllocation(3, 100);
  EXPECT_EQ(alloc[0], 3);
  EXPECT_EQ(alloc[1], 3);
  EXPECT_EQ(alloc[2], 1);
}

TEST(StratumAllocationTest, ZeroBudget) {
  std::vector<int> alloc = DefaultStratumAllocation(5, 0);
  for (int m : alloc) EXPECT_EQ(m, 0);
}

TEST(StratifiedSamplingTest, FullSamplingReproducesExactMcSv) {
  // When every stratum is exhaustively sampled, the framework touches every
  // pair and the estimate collapses to the exact MC-SV.
  const int n = 5;
  TableUtility table = RandomTable(n, 11);
  UtilityCache cache(&table);

  StratifiedConfig config;
  config.scheme = SvScheme::kMarginal;
  config.rounds_per_stratum.clear();
  for (int k = 1; k <= n; ++k) {
    // Oversample so duplicates cannot leave a set unsampled... sampling is
    // with replacement, so instead sample each stratum's population many
    // times over.
    config.rounds_per_stratum.push_back(
        static_cast<int>(BinomialU64(n, k)) * 30);
  }
  config.seed = 3;
  UtilitySession session(&cache);
  Result<ValuationResult> stratified =
      StratifiedSamplingShapley(session, config);
  ASSERT_TRUE(stratified.ok());

  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());
  // With-replacement sampling at 30x population misses a given set with
  // probability < 1e-13 per stratum; treat as deterministic.
  EXPECT_LT(testing_util::MaxAbsDiff(stratified->values, exact->values),
            1e-9);
}

TEST(StratifiedSamplingTest, ApproximatelyUnbiasedOverManyRuns) {
  // Average the estimator over many independent runs: it should approach
  // the exact value. Theorem 1's unbiasedness is for the estimator that
  // always evaluates the paired combination, i.e. kEvaluateOnDemand.
  const int n = 4;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());

  const int runs = 800;
  std::vector<double> mean(n, 0.0);
  for (int run = 0; run < runs; ++run) {
    StratifiedConfig config;
    config.scheme = SvScheme::kMarginal;
    config.pair_policy = PairPolicy::kEvaluateOnDemand;
    // Enough draws that every client almost surely appears in every
    // stratum (the regime Theorem 1 analyzes: m_{i,k} > 0), while stratum
    // 2 usually remains partially covered.
    config.rounds_per_stratum = {16, 8, 8, 1};
    config.seed = 1000 + run;
    UtilitySession session(&cache);
    Result<ValuationResult> result =
        StratifiedSamplingShapley(session, config);
    ASSERT_TRUE(result.ok());
    for (int i = 0; i < n; ++i) mean[i] += result->values[i];
  }
  for (int i = 0; i < n; ++i) mean[i] /= runs;
  // Loose tolerance: Monte Carlo average of 800 runs.
  EXPECT_LT(testing_util::MaxAbsDiff(mean, exact->values), 0.03);
}

TEST(StratifiedSamplingTest, BudgetIsRespected) {
  const int n = 6;
  TableUtility table = RandomTable(n, 13);
  UtilityCache cache(&table);
  StratifiedConfig config;
  config.total_rounds = 10;
  config.seed = 5;
  UtilitySession session(&cache);
  Result<ValuationResult> result = StratifiedSamplingShapley(session, config);
  ASSERT_TRUE(result.ok());
  // gamma sampled sets + the always-available empty set.
  EXPECT_LE(result->num_trainings, 10u + 1u);
}

TEST(StratifiedSamplingTest, CcSchemeAlsoFindsValuesWithFullSampling) {
  const int n = 4;
  TableUtility table = RandomTable(n, 17);
  UtilityCache cache(&table);
  StratifiedConfig config;
  config.scheme = SvScheme::kComplementary;
  config.rounds_per_stratum.clear();
  for (int k = 1; k <= n; ++k) {
    config.rounds_per_stratum.push_back(
        static_cast<int>(BinomialU64(n, k)) * 30);
  }
  UtilitySession session(&cache);
  Result<ValuationResult> cc = StratifiedSamplingShapley(session, config);
  ASSERT_TRUE(cc.ok());
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyCc(exact_session);
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(testing_util::MaxAbsDiff(cc->values, exact->values), 1e-9);
}

TEST(StratifiedSamplingTest, McHasLowerVarianceThanCcOnLinearRegression) {
  // Thm. 2: with the same sampling strategy, MC-SV yields lower variance
  // than CC-SV under the FL linear-regression noise model.
  LinearRegressionUtility::Params params;
  params.num_clients = 6;
  params.samples_per_client = 30;
  params.feature_dim = 3;
  params.noise_scale = 0.002;
  LinearRegressionUtility utility(params);

  const int runs = 150;
  const int n = params.num_clients;
  std::vector<std::vector<double>> mc_samples, cc_samples;
  for (int run = 0; run < runs; ++run) {
    utility.Reseed(7000 + run);  // fresh noise realization per run
    UtilityCache cache(&utility);  // fresh cache: utilities changed
    StratifiedConfig config;
    // Coverage-guaranteeing allocation: every client appears in every
    // stratum with near-certainty, so the run-to-run variance reflects
    // the utility noise (Thm. 2's setting) rather than Bernoulli
    // presence/absence of whole strata.
    config.rounds_per_stratum = {120, 30, 24, 24, 30, 1};
    config.pair_policy = PairPolicy::kEvaluateOnDemand;
    config.seed = 40 + run;
    config.scheme = SvScheme::kMarginal;
    UtilitySession mc_session(&cache);
    Result<ValuationResult> mc =
        StratifiedSamplingShapley(mc_session, config);
    ASSERT_TRUE(mc.ok());
    config.scheme = SvScheme::kComplementary;
    UtilitySession cc_session(&cache);
    Result<ValuationResult> cc =
        StratifiedSamplingShapley(cc_session, config);
    ASSERT_TRUE(cc.ok());
    mc_samples.push_back(mc->values);
    cc_samples.push_back(cc->values);
  }
  auto total_variance = [&](const std::vector<std::vector<double>>& runs_v) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      double mean = 0.0;
      for (const auto& v : runs_v) mean += v[i];
      mean /= runs_v.size();
      double var = 0.0;
      for (const auto& v : runs_v) var += (v[i] - mean) * (v[i] - mean);
      total += var / runs_v.size();
    }
    return total;
  };
  EXPECT_LT(total_variance(mc_samples), total_variance(cc_samples));
}

TEST(StratifiedSamplingTest, PaperExampleSchemesDisagreeUnderSampling) {
  // Under partial sampling the two schemes give different estimates (as in
  // the paper's Example 2: 0.2588 vs 0.22) though both target the same SV.
  TableUtility table = PaperTableOne();
  UtilityCache cache(&table);
  StratifiedConfig config;
  config.total_rounds = 4;
  config.seed = 9;
  config.scheme = SvScheme::kMarginal;
  UtilitySession mc_session(&cache);
  Result<ValuationResult> mc = StratifiedSamplingShapley(mc_session, config);
  ASSERT_TRUE(mc.ok());
  config.scheme = SvScheme::kComplementary;
  UtilitySession cc_session(&cache);
  Result<ValuationResult> cc = StratifiedSamplingShapley(cc_session, config);
  ASSERT_TRUE(cc.ok());
  // Estimates exist and are finite for every client under both schemes.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(mc->values[i]));
    EXPECT_TRUE(std::isfinite(cc->values[i]));
  }
}

TEST(StratifiedSamplingTest, ConfigValidation) {
  TableUtility table = RandomTable(3, 19);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  StratifiedConfig config;
  config.rounds_per_stratum = {1, 2};  // wrong length for n=3
  EXPECT_FALSE(StratifiedSamplingShapley(session, config).ok());
}

TEST(StratifiedSamplingTest, NegativeBudgetIsInvalidArgumentNotAbort) {
  // With no explicit allocation the budget feeds DefaultStratumAllocation,
  // whose precondition is total_rounds >= 0: the estimator must reject a
  // negative budget as a Status before it gets there.
  TableUtility table = RandomTable(3, 19);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  StratifiedConfig config;
  config.total_rounds = -1;
  Result<ValuationResult> result = StratifiedSamplingShapley(session, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.num_evaluations(), 0u);
}

TEST(PerClientStratifiedTest, UnbiasedOverManyRuns) {
  // The per-client estimator covers every stratum for every client, so it
  // is unbiased without any coverage caveat (Thm. 1's setting).
  const int n = 4;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());

  const int runs = 600;
  std::vector<double> mean(n, 0.0);
  for (int run = 0; run < runs; ++run) {
    PerClientStratifiedConfig config;
    config.samples_per_stratum = 1;
    config.seed = 5000 + run;
    UtilitySession session(&cache);
    Result<ValuationResult> result =
        PerClientStratifiedShapley(session, config);
    ASSERT_TRUE(result.ok());
    for (int i = 0; i < n; ++i) mean[i] += result->values[i];
  }
  for (int i = 0; i < n; ++i) mean[i] /= runs;
  EXPECT_LT(testing_util::MaxAbsDiff(mean, exact->values), 0.02);
}

TEST(PerClientStratifiedTest, McVarianceBelowCcOnFlShapedUtility) {
  // Thm. 2 / Fig. 10 in the per-client estimator: complementary
  // contributions disperse more than marginal contributions, so CC-SV has
  // the higher run-to-run variance at matched budgets.
  const int n = 6;
  TableUtility table = MonotoneTable(n);
  UtilityCache cache(&table);
  const int runs = 200;
  std::vector<std::vector<double>> mc_samples, cc_samples;
  for (int run = 0; run < runs; ++run) {
    PerClientStratifiedConfig config;
    config.samples_per_stratum = 2;
    config.seed = 9000 + run;
    config.scheme = SvScheme::kMarginal;
    UtilitySession mc_session(&cache);
    Result<ValuationResult> mc =
        PerClientStratifiedShapley(mc_session, config);
    ASSERT_TRUE(mc.ok());
    mc_samples.push_back(mc->values);
    config.scheme = SvScheme::kComplementary;
    UtilitySession cc_session(&cache);
    Result<ValuationResult> cc =
        PerClientStratifiedShapley(cc_session, config);
    ASSERT_TRUE(cc.ok());
    cc_samples.push_back(cc->values);
  }
  auto total_variance = [&](const std::vector<std::vector<double>>& v) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      double mean = 0.0;
      for (const auto& run : v) mean += run[i];
      mean /= v.size();
      double var = 0.0;
      for (const auto& run : v) var += (run[i] - mean) * (run[i] - mean);
      total += var / v.size();
    }
    return total;
  };
  EXPECT_LT(total_variance(mc_samples), total_variance(cc_samples));
}

TEST(PerClientStratifiedTest, DeterministicPerSeed) {
  TableUtility table = RandomTable(5, 3);
  UtilityCache cache(&table);
  PerClientStratifiedConfig config;
  config.samples_per_stratum = 2;
  config.seed = 11;
  UtilitySession s1(&cache), s2(&cache);
  Result<ValuationResult> r1 = PerClientStratifiedShapley(s1, config);
  Result<ValuationResult> r2 = PerClientStratifiedShapley(s2, config);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->values, r2->values);
}

TEST(PerClientStratifiedTest, Validation) {
  TableUtility table = RandomTable(3, 5);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  PerClientStratifiedConfig config;
  config.samples_per_stratum = 0;
  EXPECT_FALSE(PerClientStratifiedShapley(session, config).ok());
}

TEST(SmallestFirstAllocationTest, CoversTinyStrataFirst) {
  // n=6: populations 6,15,20,15,6,1. The grand coalition (population 1)
  // and the singleton stratum are budgeted before the big middle strata.
  std::vector<int> alloc = SmallestFirstAllocation(6, 40);
  ASSERT_EQ(alloc.size(), 6u);
  EXPECT_GT(alloc[5], 0);  // stratum 6 (grand coalition) first
  EXPECT_GT(alloc[0], 0);  // singletons next
  EXPECT_EQ(alloc[2], 0);  // population-20 stratum starved at this budget
}

TEST(SmallestFirstAllocationTest, SpendsWholeBudget) {
  for (int budget : {0, 10, 100, 5000}) {
    std::vector<int> alloc = SmallestFirstAllocation(5, budget);
    EXPECT_EQ(std::accumulate(alloc.begin(), alloc.end(), 0), budget);
  }
}

TEST(SvSchemeNameTest, Names) {
  EXPECT_STREQ(SvSchemeName(SvScheme::kMarginal), "MC-SV");
  EXPECT_STREQ(SvSchemeName(SvScheme::kComplementary), "CC-SV");
}

TEST(StratifiedSamplingTest, ParallelSessionMatchesSequential) {
  TableUtility table = RandomTable(9, 13);
  UtilityCache cache(&table);
  for (SvScheme scheme : {SvScheme::kMarginal, SvScheme::kComplementary}) {
    StratifiedConfig config;
    config.total_rounds = 50;
    config.seed = 5;
    config.scheme = scheme;
    auto run = [&](int threads) {
      PinnedThreads pinned(threads);
      UtilitySession session(&cache);
      return StratifiedSamplingShapley(session, config);
    };
    // The fanned-out run goes first and trains the cold cache; the
    // sequential reference then charges the same records.
    Result<ValuationResult> parallel = run(5);
    ASSERT_TRUE(parallel.ok());
    Result<ValuationResult> reference = run(1);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(parallel->values, reference->values)
        << SvSchemeName(scheme);
    EXPECT_EQ(parallel->num_evaluations, reference->num_evaluations);
    EXPECT_EQ(parallel->num_trainings, reference->num_trainings);
  }
}

// ---------------------------------------------------------------------------
// Adaptive allocation: running moments, Neyman split, bucket refinement.

// Fills one stratum's moments with a deterministic observation set whose
// sample stddev is roughly `sigma` (two points at mean +- sigma).
StratumMoments MomentsWithSigma(double sigma, double mean = 0.0,
                                int pairs = 2) {
  StratumMoments m;
  for (int p = 0; p < pairs; ++p) {
    m.Add(mean - sigma);
    m.Add(mean + sigma);
  }
  return m;
}

TEST(StratumMomentsTest, RunningMomentsMatchDirectFormulas) {
  const std::vector<double> xs = {0.3, -1.2, 2.5, 0.0, 0.7};
  StratumMoments m;
  for (double x : xs) m.Add(x);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= xs.size() - 1;
  EXPECT_EQ(m.count, xs.size());
  EXPECT_NEAR(m.Mean(), mean, 1e-12);
  EXPECT_NEAR(m.Variance(), var, 1e-12);
  EXPECT_NEAR(m.StdDev(), std::sqrt(var), 1e-12);
}

TEST(StratumMomentsTest, DegenerateCountsAndMerge) {
  StratumMoments empty;
  EXPECT_EQ(empty.Mean(), 0.0);
  EXPECT_EQ(empty.Variance(), 0.0);
  StratumMoments one;
  one.Add(4.2);
  EXPECT_EQ(one.Variance(), 0.0);  // needs two observations
  // Merging two halves equals folding the union directly.
  StratumMoments a, b, whole;
  for (double x : {0.1, 0.9, -0.4}) {
    a.Add(x);
    whole.Add(x);
  }
  for (double x : {1.5, -2.0}) {
    b.Add(x);
    whole.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count, whole.count);
  EXPECT_NEAR(a.Variance(), whole.Variance(), 1e-12);
}

TEST(NeymanStratumAllocationTest, SpendsExactBudgetWithinCapacity) {
  const int n = 6;
  std::vector<StratumMoments> moments(n);
  for (int k = 0; k < n; ++k) {
    moments[k] = MomentsWithSigma(0.1 * (k + 1));
  }
  for (int budget : {1, 7, 20, 40}) {
    std::vector<int> alloc = NeymanStratumAllocation(n, budget, moments);
    ASSERT_EQ(alloc.size(), static_cast<size_t>(n));
    int total = 0;
    for (int k = 0; k < n; ++k) {
      EXPECT_GE(alloc[k], 0);
      EXPECT_LE(alloc[k], static_cast<int>(BinomialU64(n, k + 1)));
      total += alloc[k];
    }
    EXPECT_EQ(total, budget) << "budget=" << budget;
  }
}

TEST(NeymanStratumAllocationTest, ClipsAtRemainingPopulation) {
  const int n = 4;  // populations 4, 6, 4, 1
  std::vector<StratumMoments> moments(n);
  for (int k = 0; k < n; ++k) moments[k] = MomentsWithSigma(1.0);
  // Budget beyond the total population: the allocation saturates at the
  // population and cannot overspend.
  std::vector<int> alloc = NeymanStratumAllocation(n, 1000, moments);
  EXPECT_EQ(alloc, (std::vector<int>{4, 6, 4, 1}));
  // Previously granted rounds shrink each stratum's remaining capacity.
  const std::vector<int64_t> granted = {4, 3, 0, 1};
  alloc = NeymanStratumAllocation(n, 1000, moments, granted);
  EXPECT_EQ(alloc, (std::vector<int>{0, 3, 4, 0}));
}

TEST(NeymanStratumAllocationTest, EqualVarianceDegeneratesToDefault) {
  // All-equal sigmas make the Neyman weights uninformative; the result
  // must be exactly the uniform round-robin default, so adaptive mode
  // never allocates worse than fixed mode for lack of signal.
  for (int n : {3, 5, 8}) {
    std::vector<StratumMoments> moments(n);
    for (int k = 0; k < n; ++k) moments[k] = MomentsWithSigma(0.7);
    for (int budget : {0, 5, 17, 64, 1000}) {
      EXPECT_EQ(NeymanStratumAllocation(n, budget, moments),
                DefaultStratumAllocation(n, budget))
          << "n=" << n << " budget=" << budget;
    }
  }
}

TEST(NeymanStratumAllocationTest, NoObservationsDegeneratesToDefault) {
  const int n = 6;
  std::vector<StratumMoments> moments(n);  // all empty
  for (int budget : {3, 12, 50}) {
    EXPECT_EQ(NeymanStratumAllocation(n, budget, moments),
              DefaultStratumAllocation(n, budget));
  }
}

TEST(NeymanStratumAllocationTest, DeterministicForFixedMoments) {
  const int n = 7;
  std::vector<StratumMoments> moments(n);
  for (int k = 0; k < n; ++k) {
    moments[k] = MomentsWithSigma(0.05 + 0.3 * ((k * 5) % n), 0.1 * k);
  }
  const std::vector<int> first = NeymanStratumAllocation(n, 33, moments);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(NeymanStratumAllocation(n, 33, moments), first);
  }
}

TEST(NeymanStratumAllocationTest, HighVarianceStratumGetsMoreBudget) {
  // Strata 2 and 4 of n=6 have equal populations (C(6,2) = C(6,4) = 15),
  // isolating the sigma factor: the noisier one must receive more rounds.
  const int n = 6;
  std::vector<StratumMoments> moments(n);
  for (int k = 0; k < n; ++k) moments[k] = MomentsWithSigma(0.1);
  moments[3] = MomentsWithSigma(2.0);  // stratum 4
  std::vector<int> alloc = NeymanStratumAllocation(n, 24, moments);
  EXPECT_GT(alloc[3], alloc[1]);
}

TEST(NeymanStratumAllocationTest, UnmeasuredStrataStillReceiveBudget) {
  // A stratum with fewer than two observations has no variance estimate;
  // it borrows the average sigma instead of being starved forever.
  const int n = 5;
  std::vector<StratumMoments> moments(n);
  moments[0] = MomentsWithSigma(1.0);
  moments[2] = MomentsWithSigma(3.0);
  std::vector<int> alloc = NeymanStratumAllocation(n, 20, moments);
  int unmeasured_total = alloc[1] + alloc[3] + alloc[4];
  EXPECT_GT(unmeasured_total, 0);
}

TEST(AllocationBucketTest, InitialBucketsPartitionAllSizes) {
  for (int n : {1, 2, 5, 8, 12}) {
    for (int count : {1, 2, 3, n, n + 5}) {
      std::vector<AllocationBucket> buckets =
          InitialAllocationBuckets(n, count);
      ASSERT_FALSE(buckets.empty());
      EXPECT_EQ(buckets.front().lo, 1);
      EXPECT_EQ(buckets.back().hi, n);
      for (size_t b = 0; b < buckets.size(); ++b) {
        EXPECT_LE(buckets[b].lo, buckets[b].hi);
        if (b > 0) {
          EXPECT_EQ(buckets[b].lo, buckets[b - 1].hi + 1);
        }
      }
      EXPECT_EQ(buckets.size(),
                static_cast<size_t>(std::min(std::max(count, 1), n)));
    }
  }
}

TEST(AllocationBucketTest, PoolingMatchesManualMerge) {
  std::vector<StratumMoments> moments(4);
  for (int k = 0; k < 4; ++k) moments[k] = MomentsWithSigma(0.5 * (k + 1));
  StratumMoments pooled = PoolStratumMoments(moments, 2, 4);
  StratumMoments manual = moments[1];
  manual.Merge(moments[2]);
  manual.Merge(moments[3]);
  EXPECT_EQ(pooled.count, manual.count);
  EXPECT_NEAR(pooled.Variance(), manual.Variance(), 1e-12);
}

TEST(AllocationBucketTest, RefineSplitsTheDominantBucket) {
  // Plant a high-variance coalition size (6) inside the upper half of
  // n=8: refinement must repeatedly split the bucket holding it until it
  // is isolated, then stop.
  const int n = 8;
  std::vector<StratumMoments> moments(n);
  for (int k = 0; k < n; ++k) moments[k] = MomentsWithSigma(0.01);
  moments[5] = MomentsWithSigma(5.0);  // size 6
  std::vector<AllocationBucket> buckets = InitialAllocationBuckets(n, 2);
  ASSERT_EQ(buckets.size(), 2u);
  int splits = 0;
  while (RefineDominantBucket(n, buckets, moments, 0.5)) {
    ++splits;
    ASSERT_LE(splits, n);  // must terminate
  }
  EXPECT_GT(splits, 0);
  // The bucket containing size 6 ends as a singleton; the partition of
  // 1..n stays contiguous throughout.
  bool found = false;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (b > 0) {
      EXPECT_EQ(buckets[b].lo, buckets[b - 1].hi + 1);
    }
    if (buckets[b].lo <= 6 && 6 <= buckets[b].hi) {
      found = true;
      EXPECT_EQ(buckets[b].lo, buckets[b].hi);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(buckets.front().lo, 1);
  EXPECT_EQ(buckets.back().hi, n);
}

TEST(AllocationBucketTest, RefineNeedsEvidenceAndDominance) {
  const int n = 6;
  std::vector<StratumMoments> moments(n);
  for (int k = 0; k < n; ++k) moments[k] = MomentsWithSigma(1.0);
  std::vector<AllocationBucket> buckets = InitialAllocationBuckets(n, 2);
  // Equal variance everywhere: no bucket dominates at threshold 0.9.
  EXPECT_FALSE(RefineDominantBucket(n, buckets, moments, 0.9));
  EXPECT_EQ(buckets.size(), 2u);
  // No observations at all: nothing to act on.
  std::vector<StratumMoments> blank(n);
  EXPECT_FALSE(RefineDominantBucket(n, buckets, blank, 0.5));
}

// ---------------------------------------------------------------------------
// The adaptive estimator end to end.

TEST(AdaptiveStratifiedTest, DeterministicPerSeed) {
  TableUtility table = RandomTable(7, 23);
  UtilityCache cache(&table);
  AdaptiveAllocationConfig config;
  config.total_rounds = 40;
  config.reallocate_every = 8;
  config.seed = 3;
  UtilitySession s1(&cache), s2(&cache);
  Result<ValuationResult> r1 = AdaptiveStratifiedShapley(s1, config);
  Result<ValuationResult> r2 = AdaptiveStratifiedShapley(s2, config);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->values, r2->values);
  EXPECT_EQ(r1->num_trainings, r2->num_trainings);
}

TEST(AdaptiveStratifiedTest, BudgetIsRespected) {
  TableUtility table = RandomTable(6, 29);
  UtilityCache cache(&table);
  AdaptiveAllocationConfig config;
  config.total_rounds = 14;
  config.seed = 5;
  UtilitySession session(&cache);
  Result<ValuationResult> result = AdaptiveStratifiedShapley(session, config);
  ASSERT_TRUE(result.ok());
  // gamma sampling rounds plus the always-evaluated empty coalition.
  EXPECT_LE(result->num_trainings, 14u + 1u);
  for (double v : result->values) EXPECT_TRUE(std::isfinite(v));
}

TEST(AdaptiveStratifiedTest, ParallelSessionMatchesSequential) {
  TableUtility table = RandomTable(8, 31);
  UtilityCache cache(&table);
  AdaptiveAllocationConfig config;
  config.total_rounds = 60;
  config.reallocate_every = 12;
  config.seed = 7;
  auto run = [&](int threads) {
    PinnedThreads pinned(threads);
    UtilitySession session(&cache);
    return AdaptiveStratifiedShapley(session, config);
  };
  // The fanned-out run goes first and trains the cold cache; the
  // sequential reference then charges the same records.
  Result<ValuationResult> parallel = run(5);
  ASSERT_TRUE(parallel.ok());
  Result<ValuationResult> reference = run(1);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(parallel->values, reference->values);
  EXPECT_EQ(parallel->num_trainings, reference->num_trainings);
}

TEST(AdaptiveStratifiedTest, ConfigValidation) {
  TableUtility table = RandomTable(4, 37);
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  AdaptiveAllocationConfig config;
  config.total_rounds = 0;
  EXPECT_FALSE(AdaptiveStratifiedShapley(session, config).ok());
  config = {};
  config.pilot_rounds_per_stratum = 0;
  EXPECT_FALSE(AdaptiveStratifiedShapley(session, config).ok());
  config = {};
  config.reallocate_every = 0;
  EXPECT_FALSE(AdaptiveStratifiedShapley(session, config).ok());
  config = {};
  config.refine_dominance = 0.0;
  EXPECT_FALSE(AdaptiveStratifiedShapley(session, config).ok());
  config = {};
  config.refine_dominance = 1.5;
  EXPECT_FALSE(AdaptiveStratifiedShapley(session, config).ok());
}

// ---------------------------------------------------------------------------
// Statistical regression: the adaptive mode's reason to exist. On a game
// whose utility noise is concentrated in one stratum, Neyman reallocation
// must reach the fixed allocation's error with measurably fewer trainings.

// Additive base utility (marginal contributions are noiseless) plus a
// deterministic per-coalition perturbation applied only to coalitions of
// size `noisy_size`: all paired-difference variance lives in strata
// noisy_size and noisy_size + 1, exactly the shape Neyman allocation
// exploits. The perturbation is a pure hash of the membership mask, so
// the game (and the test) is identical on every platform and run.
TableUtility NoisyStratumTable(int n, int noisy_size, double amplitude,
                               uint64_t seed) {
  Result<TableUtility> table = TableUtility::FromFunction(
      n, [&](const Coalition& s) {
        double base = 0.0;
        s.ForEach([&](int i) { base += 0.08 + 0.01 * i; });
        if (s.Count() == noisy_size) {
          uint64_t mask = 0;
          s.ForEach([&](int i) { mask |= (uint64_t{1} << i); });
          Rng noise(seed ^ (mask * 0x9e3779b97f4a7c15ull));
          base += noise.Uniform(-amplitude, amplitude);
        }
        return base;
      });
  FEDSHAP_CHECK(table.ok());
  return std::move(table).value();
}

TEST(AdaptiveStratifiedTest, ReachesTargetErrorWithFewerTrainingsThanFixed) {
  // Coalitions of size 6 (population C(10,6) = 210) carry all the noise;
  // everything is hash-seeded, so the whole comparison is deterministic
  // and identical on every platform — the margins below are tolerance
  // bands for algorithm changes, not for run-to-run jitter.
  const int n = 10;
  TableUtility table = NoisyStratumTable(n, 6, 2.0, 77);
  UtilityCache cache(&table);
  UtilitySession exact_session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(exact_session);
  ASSERT_TRUE(exact.ok());

  const std::vector<int> budgets = {40, 60, 90, 130, 200, 300, 400};
  const std::vector<uint64_t> seeds = {101, 102, 103, 104, 105, 106};
  const double target = 0.30;  // relative l2, the Fig. 7 error metric

  // Mean error and mean trainings of one estimator at one budget.
  struct Point {
    double error = 0.0;
    double trainings = 0.0;
  };
  auto measure = [&](int gamma, bool adaptive) {
    Point point;
    for (uint64_t seed : seeds) {
      UtilitySession session(&cache);
      auto run = [&]() -> Result<ValuationResult> {
        // Both arms run the idealized estimator of the Thm. 1/2 analysis
        // (every paired combination evaluated), the regime the Neyman
        // error bound — and so the allocator — is derived for.
        if (adaptive) {
          AdaptiveAllocationConfig config;
          config.total_rounds = gamma;
          config.seed = seed;
          config.reallocate_every = 20;
          config.pair_policy = PairPolicy::kEvaluateOnDemand;
          return AdaptiveStratifiedShapley(session, config);
        }
        StratifiedConfig config;
        config.total_rounds = gamma;
        config.seed = seed;
        config.pair_policy = PairPolicy::kEvaluateOnDemand;
        return StratifiedSamplingShapley(session, config);
      };
      Result<ValuationResult> result = run();
      FEDSHAP_CHECK(result.ok());
      point.error += RelativeL2Error(exact->values, result->values);
      point.trainings += static_cast<double>(result->num_trainings);
    }
    point.error /= seeds.size();
    point.trainings /= seeds.size();
    return point;
  };
  // First budget on the ladder whose mean error reaches the target; the
  // trainings actually spent there are the cost of reaching it.
  auto trainings_to_target = [&](bool adaptive) {
    for (int gamma : budgets) {
      Point point = measure(gamma, adaptive);
      if (point.error <= target) return point.trainings;
    }
    return 1e9;  // never reached: dominates any real cost
  };
  const double fixed_cost = trainings_to_target(false);
  const double adaptive_cost = trainings_to_target(true);
  // Both estimators converge on this game...
  EXPECT_LT(fixed_cost, 1e9);
  EXPECT_LT(adaptive_cost, 1e9);
  // ...and the adaptive one gets there measurably cheaper (observed
  // ~497 vs ~655 trainings, a 0.76 ratio; the margin is deliberately
  // loose so only a real regression of the allocator trips it).
  EXPECT_LT(adaptive_cost, 0.85 * fixed_cost)
      << "adaptive=" << adaptive_cost << " fixed=" << fixed_cost;
  // At a shared mid-ladder budget the adaptive error is clearly lower
  // too (observed 0.20 vs 0.25).
  Point fixed_mid = measure(200, false);
  Point adaptive_mid = measure(200, true);
  EXPECT_LT(adaptive_mid.error, fixed_mid.error * 0.95)
      << "adaptive=" << adaptive_mid.error << " fixed=" << fixed_mid.error;
}

TEST(PerClientStratifiedTest, ParallelSessionMatchesSequential) {
  TableUtility table = RandomTable(8, 17);
  UtilityCache cache(&table);
  for (SvScheme scheme : {SvScheme::kMarginal, SvScheme::kComplementary}) {
    PerClientStratifiedConfig config;
    config.samples_per_stratum = 3;
    config.seed = 9;
    config.scheme = scheme;
    auto run = [&](int threads) {
      PinnedThreads pinned(threads);
      UtilitySession session(&cache);
      return PerClientStratifiedShapley(session, config);
    };
    // The fanned-out run goes first and trains the cold cache; the
    // sequential reference then charges the same records.
    Result<ValuationResult> parallel = run(5);
    ASSERT_TRUE(parallel.ok());
    Result<ValuationResult> reference = run(1);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(parallel->values, reference->values)
        << SvSchemeName(scheme);
    EXPECT_EQ(parallel->num_evaluations, reference->num_evaluations);
  }
}
}  // namespace
}  // namespace fedshap
