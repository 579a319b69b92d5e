#ifndef FEDSHAP_CORE_IPSS_H_
#define FEDSHAP_CORE_IPSS_H_

#include <vector>

#include "core/valuation_result.h"
#include "fl/utility_cache.h"
#include "util/coalition.h"
#include "util/status.h"

namespace fedshap {

/// \file
/// IPSS — the paper's contribution (Alg. 3): importance-pruned
/// stratified sampling of the Shapley value, plus the adaptive-budget
/// extension. The estimator itself is the resumable IpssSweep
/// (core/resumable.h); the functions here run it to completion.

/// Configuration of IPSS (Alg. 3).
struct IpssConfig {
  /// Total sampling rounds gamma: the budget of utility evaluations.
  int total_rounds = 32;
  /// Seed for the balanced sampling of the (k*+1)-stratum.
  uint64_t seed = 1;
};

/// The cutoff stratum k* = max{k : sum_{j<=k} C(n, j) <= gamma} (Alg. 3
/// line 1). Returns -1 when even the empty coalition does not fit
/// (gamma < 1).
int IpssKStar(int n, int total_rounds);

/// Balanced sample of `count` distinct coalitions of size `size` over n
/// clients such that per-client coverage counts C_i are as equal as
/// possible (constraint (3) of Alg. 3). Exposed for tests.
std::vector<Coalition> BalancedCoalitionSample(int n, int size, int count,
                                               Rng& rng);

/// IPSS — Importance-Pruned Stratified Sampling (Alg. 3), the paper's
/// contribution.
///
/// Phase 1 exhaustively evaluates every coalition of size <= k*; the
/// remaining budget samples coalitions of size k*+1 with equal per-client
/// frequency. Phase 2 estimates the MC-SV from exactly the evaluated
/// coalitions:
///
///   phi_hat_i = 1/n * [ sum_{|S| < k*, S !ni i} (U(S u i) - U(S)) / C(n-1,|S|)
///                     + sum_{|S| = k*, S u {i} in P} (U(S u i) - U(S)) / C(n-1,k*) ]
///
/// Utility evaluations: at most `total_rounds` coalitions, exploiting the
/// key-combinations phenomenon (small coalitions dominate the value).
/// Runs IpssSweep (core/resumable.h) to completion, so a one-shot run and
/// a checkpointed one evaluate the same plan and return the same bits.
Result<ValuationResult> IpssShapley(UtilitySession& session,
                                    const IpssConfig& config);

/// Configuration of the adaptive-budget IPSS extension.
struct AdaptiveIpssConfig {
  /// Starting budget; doubled each round.
  int initial_rounds = 8;
  /// Hard budget ceiling (the last attempt uses at most this).
  int max_rounds = 1024;
  /// Stop when the relative l2 distance between two consecutive estimates
  /// falls below this.
  double tolerance = 0.05;
  /// Seed of the balanced sampling at every budget.
  uint64_t seed = 1;
};

/// Adaptive IPSS (extension; the paper leaves gamma as an input): runs
/// IPSS with a doubling budget until the estimate stabilizes, so callers
/// need not guess gamma. Each doubling is an IpssSweep run to completion
/// on the same session. Thanks to the exhaustive-prefix structure of
/// IPSS, every doubling reuses all previously evaluated coalitions (they
/// are cached), so the total charged cost is essentially that of the final
/// budget. Returns the final estimate; the session records the combined
/// evaluation counts.
Result<ValuationResult> AdaptiveIpssShapley(
    UtilitySession& session, const AdaptiveIpssConfig& config);

}  // namespace fedshap

#endif  // FEDSHAP_CORE_IPSS_H_
