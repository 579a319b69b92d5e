#include "fl/utility.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic.h"
#include "ml/kernel_backend.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"
#include "test_util.h"
#include "util/combinatorics.h"

namespace fedshap {
namespace {

std::unique_ptr<FedAvgUtility> MakeFedAvgUtility(int n = 3,
                                                 uint64_t seed = 1) {
  Rng rng(seed);
  Result<Dataset> pool = GenerateBlobs(2, 4, 5.0, 200 * n + 300, rng);
  FEDSHAP_CHECK(pool.ok());
  auto [train, test] = pool->Split(1.0 - 300.0 / pool->size(), rng);
  PartitionConfig part;
  part.scheme = PartitionScheme::kSameSizeSameDist;
  part.num_clients = n;
  Result<std::vector<Dataset>> clients = PartitionDataset(train, part, rng);
  FEDSHAP_CHECK(clients.ok());
  LogisticRegression prototype(4, 2);
  Rng init(seed + 99);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = 3;
  config.local.epochs = 1;
  config.local.learning_rate = 0.3;
  Result<std::unique_ptr<FedAvgUtility>> utility = FedAvgUtility::Create(
      std::move(clients).value(), std::move(test), prototype, config);
  FEDSHAP_CHECK(utility.ok());
  return std::move(utility).value();
}

TEST(FedAvgUtilityTest, EmptyCoalitionIsInitialModelUtility) {
  std::unique_ptr<FedAvgUtility> utility = MakeFedAvgUtility();
  Result<double> u_empty = utility->Evaluate(Coalition());
  ASSERT_TRUE(u_empty.ok());
  // Untrained binary classifier: accuracy around chance, certainly not
  // perfect.
  EXPECT_GE(*u_empty, 0.0);
  EXPECT_LE(*u_empty, 1.0);
}

TEST(FedAvgUtilityTest, TrainingAddsUtility) {
  std::unique_ptr<FedAvgUtility> utility = MakeFedAvgUtility();
  Result<double> u_empty = utility->Evaluate(Coalition());
  Result<double> u_full = utility->Evaluate(Coalition::Full(3));
  ASSERT_TRUE(u_empty.ok());
  ASSERT_TRUE(u_full.ok());
  EXPECT_GT(*u_full, *u_empty);
  EXPECT_GT(*u_full, 0.85);  // separable blobs train well
}

TEST(FedAvgUtilityTest, DeterministicPerCoalition) {
  std::unique_ptr<FedAvgUtility> utility = MakeFedAvgUtility();
  const Coalition s = Coalition::Of({0, 2});
  Result<double> u1 = utility->Evaluate(s);
  Result<double> u2 = utility->Evaluate(s);
  ASSERT_TRUE(u1.ok());
  ASSERT_TRUE(u2.ok());
  EXPECT_DOUBLE_EQ(*u1, *u2);
}

TEST(FedAvgUtilityTest, RejectsUnknownClients) {
  std::unique_ptr<FedAvgUtility> utility = MakeFedAvgUtility();
  EXPECT_FALSE(utility->Evaluate(Coalition::Of({7})).ok());
}

TEST(FedAvgUtilityTest, CreateValidation) {
  LogisticRegression prototype(4, 2);
  FedAvgConfig config;
  EXPECT_FALSE(
      FedAvgUtility::Create({}, Dataset(), prototype, config).ok());
  Rng rng(1);
  Result<Dataset> data = GenerateBlobs(2, 4, 4.0, 50, rng);
  ASSERT_TRUE(data.ok());
  // Empty test set rejected.
  EXPECT_FALSE(
      FedAvgUtility::Create({*data}, Dataset(), prototype, config).ok());
}

TEST(FedAvgUtilityTest, NegativeLossMetric) {
  Rng rng(2);
  Result<Dataset> pool = GenerateBlobs(2, 4, 5.0, 500, rng);
  ASSERT_TRUE(pool.ok());
  auto [train, test] = pool->Split(0.6, rng);
  LogisticRegression prototype(4, 2);
  Rng init(3);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = 3;
  Result<std::unique_ptr<FedAvgUtility>> utility =
      FedAvgUtility::Create({train}, test, prototype, config,
                            UtilityMetric::kNegativeLoss);
  ASSERT_TRUE(utility.ok());
  Result<double> u_empty = (*utility)->Evaluate(Coalition());
  Result<double> u_full = (*utility)->Evaluate(Coalition::Full(1));
  ASSERT_TRUE(u_empty.ok());
  ASSERT_TRUE(u_full.ok());
  EXPECT_LT(*u_empty, 0.0);       // negative loss is negative
  EXPECT_GT(*u_full, *u_empty);   // training reduces loss
}

TEST(FedAvgUtilityTest, EvaluateParametersMatchesPrototypeEval) {
  std::unique_ptr<FedAvgUtility> utility = MakeFedAvgUtility();
  Result<double> via_params =
      utility->EvaluateParameters(utility->prototype().GetParameters());
  Result<double> via_empty = utility->Evaluate(Coalition());
  ASSERT_TRUE(via_params.ok());
  ASSERT_TRUE(via_empty.ok());
  EXPECT_DOUBLE_EQ(*via_params, *via_empty);
}

// The fused multi-coalition dispatch stacks every trained model's affine
// scorer into one wide GEMM per test chunk. Training is bit-identical to
// Evaluate; only the scoring arithmetic regroups, so each fused accuracy
// must agree with its per-coalition counterpart within the kernel
// tolerance contract — on every available kernel backend.
TEST(FedAvgUtilityTest, EvaluateBatchFusedMatchesEvaluatePerBackend) {
  std::unique_ptr<FedAvgUtility> utility = MakeFedAvgUtility(4, 7);
  std::vector<Coalition> batch;
  ForEachSubsetOf(Coalition::Full(4),
                  [&](const Coalition& c) { batch.push_back(c); });
  ASSERT_EQ(batch.size(), 16u);

  std::vector<double> reference;
  for (const Coalition& c : batch) {
    Result<double> u = utility->Evaluate(c);
    ASSERT_TRUE(u.ok());
    reference.push_back(*u);
  }

  const KernelBackend original = SelectedKernelBackend();
  for (KernelBackend backend : {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (!KernelBackendAvailable(backend)) continue;
    ASSERT_TRUE(SetKernelBackend(backend).ok());
    Result<std::vector<double>> fused = utility->EvaluateBatchFused(batch);
    ASSERT_TRUE(fused.ok());
    ASSERT_EQ(fused->size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const double tolerance =
          kKernelAbsTol + kKernelRelTol * std::fabs(reference[i]);
      EXPECT_NEAR((*fused)[i], reference[i], tolerance)
          << "coalition " << i << " on backend "
          << KernelBackendName(backend);
    }
  }
  ASSERT_TRUE(SetKernelBackend(original).ok());
}

// The base-class fused dispatch (utilities without an affine scorer or a
// non-accuracy metric) must degrade to exactly the per-coalition path.
TEST(FedAvgUtilityTest, EvaluateBatchFusedLossMetricMatchesExactly) {
  Rng rng(31);
  Result<Dataset> pool = GenerateBlobs(2, 4, 5.0, 900, rng);
  ASSERT_TRUE(pool.ok());
  auto [train, test] = pool->Split(0.7, rng);
  PartitionConfig part;
  part.scheme = PartitionScheme::kSameSizeSameDist;
  part.num_clients = 3;
  Result<std::vector<Dataset>> clients = PartitionDataset(train, part, rng);
  ASSERT_TRUE(clients.ok());
  LogisticRegression prototype(4, 2);
  Rng init(131);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = 2;
  Result<std::unique_ptr<FedAvgUtility>> utility =
      FedAvgUtility::Create(std::move(clients).value(), std::move(test),
                            prototype, config, UtilityMetric::kNegativeLoss);
  ASSERT_TRUE(utility.ok());

  std::vector<Coalition> batch;
  ForEachSubsetOf(Coalition::Full(3),
                  [&](const Coalition& c) { batch.push_back(c); });
  Result<std::vector<double>> fused = (*utility)->EvaluateBatchFused(batch);
  ASSERT_TRUE(fused.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<double> u = (*utility)->Evaluate(batch[i]);
    ASSERT_TRUE(u.ok());
    // Loss scoring is not fused: identical code path, identical bits.
    EXPECT_DOUBLE_EQ((*fused)[i], *u) << "coalition " << i;
  }
}

TEST(GbdtUtilityTest, MonotoneOnNestedCoalitions) {
  Rng rng(4);
  TabularConfig tab;
  Result<FederatedSource> source = GenerateTabular(tab, 1400, rng);
  ASSERT_TRUE(source.ok());
  auto [train, test] = source->data.Split(0.7, rng);
  PartitionConfig part;
  part.num_clients = 3;
  Result<std::vector<Dataset>> clients = PartitionDataset(train, part, rng);
  ASSERT_TRUE(clients.ok());
  GbdtConfig config;
  config.num_trees = 10;
  Result<std::unique_ptr<GbdtUtility>> utility =
      GbdtUtility::Create(std::move(clients).value(), test, config);
  ASSERT_TRUE(utility.ok());
  Result<double> u_empty = (*utility)->Evaluate(Coalition());
  Result<double> u_one = (*utility)->Evaluate(Coalition::Of({0}));
  Result<double> u_all = (*utility)->Evaluate(Coalition::Full(3));
  ASSERT_TRUE(u_empty.ok());
  ASSERT_TRUE(u_one.ok());
  ASSERT_TRUE(u_all.ok());
  EXPECT_GT(*u_one, *u_empty);
  EXPECT_GE(*u_all + 0.02, *u_one);  // more data should not hurt much
}

TEST(TableUtilityTest, PaperTableOneValues) {
  TableUtility table = testing_util::PaperTableOne();
  EXPECT_EQ(table.num_clients(), 3);
  Result<double> u_empty = table.Evaluate(Coalition());
  Result<double> u_02 = table.Evaluate(Coalition::Of({0, 2}));
  Result<double> u_full = table.Evaluate(Coalition::Full(3));
  ASSERT_TRUE(u_empty.ok());
  EXPECT_DOUBLE_EQ(*u_empty, 0.10);
  EXPECT_DOUBLE_EQ(*u_02, 0.90);
  EXPECT_DOUBLE_EQ(*u_full, 0.96);
}

TEST(TableUtilityTest, FromFunctionMatchesFunction) {
  Result<TableUtility> table = TableUtility::FromFunction(
      4, [](const Coalition& c) { return c.Count() * 1.5; });
  ASSERT_TRUE(table.ok());
  EXPECT_DOUBLE_EQ(table->Evaluate(Coalition::Of({1, 3})).value(), 3.0);
  EXPECT_DOUBLE_EQ(table->Evaluate(Coalition()).value(), 0.0);
}

TEST(TableUtilityTest, Validation) {
  EXPECT_FALSE(TableUtility::FromValues(0, {1.0}).ok());
  EXPECT_FALSE(TableUtility::FromValues(2, {1.0, 2.0}).ok());  // needs 4
  EXPECT_FALSE(TableUtility::FromValues(21, {}).ok());
  Result<TableUtility> table = TableUtility::FromValues(2, {0, 1, 2, 3});
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->Evaluate(Coalition::Of({5})).ok());
}

TEST(LinearRegressionUtilityTest, MeanUtilityFollowsClosedForm) {
  LinearRegressionUtility::Params params;
  params.num_clients = 5;
  params.samples_per_client = 40;
  params.feature_dim = 4;
  params.noise_mean = 2.0;
  params.initial_mse = 8.0;
  LinearRegressionUtility utility(params);
  // k=0: denominator <= 0 -> clamped to -m0.
  EXPECT_DOUBLE_EQ(utility.MeanUtility(0), -8.0);
  // k=2: -2*4 / (80 - 5) = -8/75.
  EXPECT_NEAR(utility.MeanUtility(2), -8.0 / 75.0, 1e-12);
  // Monotone increasing in k.
  for (int k = 1; k < 5; ++k) {
    EXPECT_GT(utility.MeanUtility(k + 1), utility.MeanUtility(k));
  }
}

TEST(LinearRegressionUtilityTest, NoiseScalesWithCoalitionSize) {
  // Per-client noise terms are independent, so across realizations the
  // noise std grows like sqrt(|S|): std at |S|=9 ~ 3x std at |S|=1.
  LinearRegressionUtility::Params params;
  params.num_clients = 10;
  params.noise_scale = 0.001;
  LinearRegressionUtility utility(params);
  auto noise_std = [&](const Coalition& c) {
    const int k = c.Count();
    double sum = 0.0, sum_sq = 0.0;
    const int reps = 400;
    for (int t = 0; t < reps; ++t) {
      utility.Reseed(9000 + t);
      Result<double> u = utility.Evaluate(c);
      EXPECT_TRUE(u.ok());
      const double noise = *u - utility.MeanUtility(k);
      sum += noise;
      sum_sq += noise * noise;
    }
    const double mean = sum / reps;
    return std::sqrt(sum_sq / reps - mean * mean);
  };
  const double std_one = noise_std(Coalition::Of({0}));
  const double std_nine = noise_std(Coalition::Full(9));
  EXPECT_GT(std_nine, std_one * 2.0);
  EXPECT_LT(std_nine, std_one * 4.5);
}

TEST(LinearRegressionUtilityTest, NoiseIsSharedAcrossCoalitions) {
  // The marginal U(S u {i}) - U(S) carries only client i's noise term
  // (Eq. 9's cancellation): verify the noise of {0,1} minus {1} equals the
  // noise of {0}.
  LinearRegressionUtility::Params params;
  params.num_clients = 5;
  params.noise_scale = 0.01;
  LinearRegressionUtility utility(params);
  const double noise_01 =
      utility.Evaluate(Coalition::Of({0, 1})).value() -
      utility.MeanUtility(2);
  const double noise_1 =
      utility.Evaluate(Coalition::Of({1})).value() - utility.MeanUtility(1);
  const double noise_0 =
      utility.Evaluate(Coalition::Of({0})).value() - utility.MeanUtility(1);
  EXPECT_NEAR(noise_01 - noise_1, noise_0, 1e-12);
}

TEST(LinearRegressionUtilityTest, ReseedChangesRealization) {
  LinearRegressionUtility::Params params;
  params.noise_scale = 0.01;
  LinearRegressionUtility utility(params);
  const Coalition s = Coalition::Of({0, 1, 2});
  Result<double> before = utility.Evaluate(s);
  utility.Reseed(999);
  Result<double> after = utility.Evaluate(s);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*before, *after);
}

TEST(LinearRegressionUtilityTest, DeterministicWithoutReseed) {
  LinearRegressionUtility::Params params;
  params.noise_scale = 0.01;
  LinearRegressionUtility utility(params);
  const Coalition s = Coalition::Of({1, 4});
  Result<double> a = utility.Evaluate(s);
  Result<double> b = utility.Evaluate(s);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(*a, *b);
}

}  // namespace
}  // namespace fedshap
