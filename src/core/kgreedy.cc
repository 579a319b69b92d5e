#include "core/kgreedy.h"

#include "util/combinatorics.h"
#include "util/stopwatch.h"

namespace fedshap {

Result<ValuationResult> KGreedyShapley(UtilitySession& session, int k_max) {
  const int n = session.num_clients();
  if (n < 1) return Status::InvalidArgument("need at least one client");
  if (k_max < 1 || k_max > n) {
    return Status::InvalidArgument("K must be in [1, n]");
  }
  Stopwatch timer;

  // Evaluate all coalitions of size <= K (Alg. 2 lines 2-4) as one batch
  // whose misses train side by side. Utilities are kept keyed by
  // coalition for the marginal pass.
  std::vector<Coalition> sweep;
  for (int k = 0; k <= k_max; ++k) {
    ForEachSubsetOfSize(n, k,
                        [&](const Coalition& c) { sweep.push_back(c); });
  }
  FEDSHAP_ASSIGN_OR_RETURN(std::vector<double> sweep_u,
                           session.EvaluateBatch(sweep));
  std::unordered_map<Coalition, double, CoalitionHash> utilities;
  utilities.reserve(sweep.size());
  for (size_t j = 0; j < sweep.size(); ++j) {
    utilities.emplace(sweep[j], sweep_u[j]);
  }

  // Marginal pass (Alg. 2 lines 6-8): exact stratum averages for the first
  // K strata, using the standard MC-SV weight 1/(n * C(n-1, |S|)).
  std::vector<double> values(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < k_max; ++k) {
      const double weight = 1.0 / (n * BinomialDouble(n - 1, k));
      double stratum_sum = 0.0;
      ForEachSubsetOfSize(n, k, [&](const Coalition& s) {
        if (s.Contains(i)) return;
        const auto with_i = utilities.find(s.With(i));
        const auto without_i = utilities.find(s);
        stratum_sum += with_i->second - without_i->second;
      });
      values[i] += weight * stratum_sum;
    }
  }

  return FinishValuation(std::move(values), session,
                         timer.ElapsedSeconds());
}

}  // namespace fedshap
