#ifndef FEDSHAP_CORE_EXACT_H_
#define FEDSHAP_CORE_EXACT_H_

#include <vector>

#include "core/valuation_result.h"
#include "fl/utility_cache.h"
#include "util/status.h"

namespace fedshap {

/// Exact Shapley value via the marginal-contribution scheme (Def. 3,
/// Eq. 4): evaluates U on all 2^n coalitions. This is the paper's
/// "MC-Shapley" baseline and the ground truth of every experiment.
/// Requires n <= 20. Runs ExactSweep (core/resumable.h) to completion.
Result<ValuationResult> ExactShapleyMc(UtilitySession& session);

/// Exact Shapley value via the complementary-contribution scheme (Def. 4,
/// Eq. 5). Identical values to ExactShapleyMc (the schemes are equivalent
/// expressions); exercised by tests and the scheme-comparison benches.
/// Requires n <= 20. Runs ExactSweep (core/resumable.h) to completion.
Result<ValuationResult> ExactShapleyCc(UtilitySession& session);

/// Exact Shapley value via the permutation definition ("Perm-Shapley"):
/// averages marginal contributions over all n! client orderings. Requires
/// n <= 8; for larger n use EstimatePermShapleySeconds to extrapolate its
/// cost like the paper's Tables IV/V do.
Result<ValuationResult> ExactShapleyPermutation(UtilitySession& session);

/// Projected cost of Perm-Shapley: n! * n model evaluations at `tau`
/// seconds each (tau = mean train+evaluate cost of one FL model).
double EstimatePermShapleySeconds(int n, double tau);

/// Projected cost of exact MC-Shapley: 2^n evaluations at `tau` seconds.
double EstimateMcShapleySeconds(int n, double tau);

/// The MC-scheme weight loop in isolation: exact SV from a full
/// subset-utility table `u` where `u[mask]` is U(S) for the coalition
/// whose members are the set bits of `mask` (2^n entries). ExactSweep
/// finishes through it (or its CC counterpart below).
std::vector<double> McShapleyFromSubsetUtilities(
    int n, const std::vector<double>& u);

/// CC-scheme counterpart of McShapleyFromSubsetUtilities.
std::vector<double> CcShapleyFromSubsetUtilities(
    int n, const std::vector<double>& u);

}  // namespace fedshap

#endif  // FEDSHAP_CORE_EXACT_H_
