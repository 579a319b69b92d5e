/// Tests for the extension hooks: Neyman allocation for Alg. 1,
/// the Dirichlet partitioner, Rng::Gamma/Dirichlet, and the report writer.

#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/report.h"
#include "core/stratified.h"
#include "core/valuation_metrics.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace fedshap {
namespace {

TEST(RngGammaTest, MomentsMatchShape) {
  // Gamma(k, 1) has mean k and variance k.
  Rng rng(1);
  for (double shape : {0.5, 1.0, 3.0, 8.0}) {
    const int draws = 40000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < draws; ++i) {
      const double g = rng.Gamma(shape);
      ASSERT_GT(g, 0.0);
      sum += g;
      sum_sq += g * g;
    }
    const double mean = sum / draws;
    const double var = sum_sq / draws - mean * mean;
    EXPECT_NEAR(mean, shape, 0.1 * std::max(1.0, shape)) << shape;
    EXPECT_NEAR(var, shape, 0.15 * std::max(1.0, shape)) << shape;
  }
}

TEST(RngDirichletTest, SimplexAndConcentration) {
  Rng rng(2);
  // Always on the simplex.
  for (int t = 0; t < 100; ++t) {
    std::vector<double> p = rng.Dirichlet(0.5, 6);
    double total = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  // Small alpha concentrates (high max share), large alpha flattens.
  auto mean_max_share = [&](double alpha) {
    double total = 0.0;
    for (int t = 0; t < 400; ++t) {
      std::vector<double> p = rng.Dirichlet(alpha, 8);
      total += *std::max_element(p.begin(), p.end());
    }
    return total / 400;
  };
  EXPECT_GT(mean_max_share(0.05), mean_max_share(50.0) + 0.2);
}

TEST(PartitionDirichletTest, AssignsEveryRowOnce) {
  Rng rng(3);
  Result<Dataset> pool = GenerateBlobs(4, 3, 4.0, 1000, rng);
  ASSERT_TRUE(pool.ok());
  Result<std::vector<Dataset>> clients =
      PartitionDirichlet(*pool, 7, 0.5, rng);
  ASSERT_TRUE(clients.ok());
  size_t total = 0;
  for (const Dataset& c : *clients) total += c.size();
  EXPECT_EQ(total, 1000u);
}

TEST(PartitionDirichletTest, SmallAlphaSkewsLabels) {
  Rng rng(4);
  Result<Dataset> pool = GenerateBlobs(4, 3, 4.0, 4000, rng);
  ASSERT_TRUE(pool.ok());
  auto mean_entropy = [&](double alpha) {
    Rng local(42);
    Result<std::vector<Dataset>> clients =
        PartitionDirichlet(*pool, 4, alpha, local);
    EXPECT_TRUE(clients.ok());
    double entropy = 0.0;
    int counted = 0;
    for (const Dataset& c : *clients) {
      if (c.size() < 10) continue;
      std::vector<size_t> histogram = c.ClassHistogram();
      double h = 0.0;
      for (size_t count : histogram) {
        if (count == 0) continue;
        const double p = static_cast<double>(count) / c.size();
        h -= p * std::log2(p);
      }
      entropy += h;
      ++counted;
    }
    return counted > 0 ? entropy / counted : 0.0;
  };
  // alpha=100 ~ IID (entropy ~ log2(4) = 2); alpha=0.05 ~ 1-2 classes.
  EXPECT_GT(mean_entropy(100.0), 1.9);
  EXPECT_LT(mean_entropy(0.05), 1.3);
}

TEST(PartitionDirichletTest, Validation) {
  Rng rng(5);
  Result<Dataset> pool = GenerateBlobs(2, 3, 4.0, 100, rng);
  ASSERT_TRUE(pool.ok());
  EXPECT_FALSE(PartitionDirichlet(*pool, 0, 0.5, rng).ok());
  EXPECT_FALSE(PartitionDirichlet(*pool, 3, 0.0, rng).ok());
  RegressionConfig reg;
  Result<Dataset> regression = GenerateRegression(reg, 100, rng);
  ASSERT_TRUE(regression.ok());
  EXPECT_FALSE(PartitionDirichlet(*regression, 3, 0.5, rng).ok());
}

TEST(ValuationReportTest, RenderContainsEverything) {
  TableUtility table = testing_util::PaperTableOne();
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(session);
  ASSERT_TRUE(exact.ok());

  ValuationReport report("hospitals Q2", exact->values);
  report.Add({"MC-Shapley", *exact, /*exact=*/true});
  ValuationResult approx = *exact;
  approx.values[0] += 0.01;
  report.Add({"IPSS", approx, /*exact=*/false});

  const std::string rendered = report.Render();
  EXPECT_NE(rendered.find("hospitals Q2"), std::string::npos);
  EXPECT_NE(rendered.find("MC-Shapley"), std::string::npos);
  EXPECT_NE(rendered.find("IPSS"), std::string::npos);
  EXPECT_NE(rendered.find("0.22"), std::string::npos);  // a value cell
  EXPECT_NE(rendered.find("error"), std::string::npos);
}

TEST(ValuationReportTest, CsvRoundTrip) {
  TableUtility table = testing_util::PaperTableOne();
  UtilityCache cache(&table);
  UtilitySession session(&cache);
  Result<ValuationResult> exact = ExactShapleyMc(session);
  ASSERT_TRUE(exact.ok());
  ValuationReport report("csv test", exact->values);
  report.Add({"MC-Shapley", *exact, true});
  const std::string path =
      ::testing::TempDir() + "/fedshap_report_test.csv";
  ASSERT_TRUE(report.WriteCsv(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buffer[256];
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
  EXPECT_NE(std::string(buffer).find("algorithm"), std::string::npos);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(ValuationReportTest, NoGroundTruthOmitsErrorColumns) {
  ValuationResult result;
  result.values = {0.1, 0.2};
  ValuationReport report("no truth", {});
  report.Add({"IPSS", result, false});
  const std::string rendered = report.Render();
  EXPECT_EQ(rendered.find("error"), std::string::npos);
  EXPECT_NE(rendered.find("IPSS"), std::string::npos);
}

}  // namespace
}  // namespace fedshap
