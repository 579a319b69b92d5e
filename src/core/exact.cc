#include "core/exact.h"

#include <algorithm>
#include <cmath>

#include "core/resumable.h"
#include "util/combinatorics.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace fedshap {

namespace {

/// Evaluates U on every subset of {0..n-1} as one batch; index = bitmask.
Result<std::vector<double>> EvaluateAllSubsets(UtilitySession& session,
                                               int n) {
  const uint64_t total = 1ULL << n;
  std::vector<Coalition> subsets;
  subsets.reserve(total);
  for (uint64_t mask = 0; mask < total; ++mask) {
    Coalition c;
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1ULL) c.Add(i);
    }
    subsets.push_back(c);
  }
  return session.EvaluateBatch(subsets);
}

}  // namespace

Result<ValuationResult> ExactShapleyMc(UtilitySession& session) {
  return ExactSweep(session.num_clients(), SvScheme::kMarginal).Run(session);
}

std::vector<double> McShapleyFromSubsetUtilities(
    int n, const std::vector<double>& u) {
  FEDSHAP_CHECK(u.size() == (uint64_t{1} << n));
  std::vector<double> values(n, 0.0);
  const uint64_t total = 1ULL << n;
  for (int i = 0; i < n; ++i) {
    const uint64_t bit = 1ULL << i;
    for (uint64_t mask = 0; mask < total; ++mask) {
      if (mask & bit) continue;  // mask = S, S must exclude i
      const int s = std::popcount(mask);
      const double weight = 1.0 / (n * BinomialDouble(n - 1, s));
      values[i] += (u[mask | bit] - u[mask]) * weight;
    }
  }
  return values;
}

Result<ValuationResult> ExactShapleyCc(UtilitySession& session) {
  return ExactSweep(session.num_clients(), SvScheme::kComplementary)
      .Run(session);
}

std::vector<double> CcShapleyFromSubsetUtilities(
    int n, const std::vector<double>& u) {
  FEDSHAP_CHECK(u.size() == (uint64_t{1} << n));
  std::vector<double> values(n, 0.0);
  const uint64_t total = 1ULL << n;
  const uint64_t full = total - 1;
  for (int i = 0; i < n; ++i) {
    const uint64_t bit = 1ULL << i;
    for (uint64_t mask = 0; mask < total; ++mask) {
      if (mask & bit) continue;
      const int s = std::popcount(mask);
      const double weight = 1.0 / (n * BinomialDouble(n - 1, s));
      // Complementary contribution: U(S u {i}) - U(N \ (S u {i})).
      const uint64_t with_i = mask | bit;
      const uint64_t complement = full & ~with_i;
      values[i] += (u[with_i] - u[complement]) * weight;
    }
  }
  return values;
}

Result<ValuationResult> ExactShapleyPermutation(UtilitySession& session) {
  const int n = session.num_clients();
  if (n < 1 || n > 8) {
    return Status::InvalidArgument(
        "permutation-exact SV requires 1 <= n <= 8");
  }
  Stopwatch timer;
  FEDSHAP_ASSIGN_OR_RETURN(std::vector<double> u,
                           EvaluateAllSubsets(session, n));
  std::vector<double> values(n, 0.0);
  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  size_t permutations = 0;
  do {
    uint64_t mask = 0;
    double prev = u[0];
    for (int pos = 0; pos < n; ++pos) {
      mask |= 1ULL << perm[pos];
      const double current = u[mask];
      values[perm[pos]] += current - prev;
      prev = current;
    }
    ++permutations;
  } while (std::next_permutation(perm.begin(), perm.end()));
  for (double& v : values) v /= static_cast<double>(permutations);
  return FinishValuation(std::move(values), session,
                         timer.ElapsedSeconds());
}

double EstimatePermShapleySeconds(int n, double tau) {
  // n! permutations, each walking n prefixes; a real implementation
  // deduplicates prefixes per permutation but still trains O(n! * n)
  // models in the worst case. Match the paper's order-of-magnitude
  // extrapolation.
  return std::exp(LogFactorial(n)) * n * tau;
}

double EstimateMcShapleySeconds(int n, double tau) {
  return std::pow(2.0, n) * tau;
}

}  // namespace fedshap
