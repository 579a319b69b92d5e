#ifndef FEDSHAP_CORE_STRATIFIED_H_
#define FEDSHAP_CORE_STRATIFIED_H_

#include <functional>
#include <vector>

#include "core/valuation_result.h"
#include "fl/utility_cache.h"
#include "util/status.h"

namespace fedshap {

/// Which equivalent Shapley expression the framework plugs in (Sec. II-B).
enum class SvScheme {
  kMarginal,       ///< MC-SV (Def. 3): pair S with S \ {i}.
  kComplementary,  ///< CC-SV (Def. 5): pair S with N \ S.
};

/// Stable display name of a scheme ("MC" / "CC").
const char* SvSchemeName(SvScheme scheme);

/// How Alg. 1 handles a sampled coalition whose paired combination (S\{i}
/// for MC, N\S for CC) was not itself drawn.
enum class PairPolicy {
  /// Strictly Alg. 1 line 11: the pair must have been sampled, otherwise
  /// the contribution is skipped (and a stratum with no pairs contributes
  /// zero). Total evaluations stay within gamma.
  kRequireSampled,
  /// Evaluate missing pairs on demand (extra evaluations are charged).
  /// This is the idealized estimator of the paper's Theorem 1/2 analysis,
  /// which writes the paired difference unconditionally — unbiased, at the
  /// cost of up to |S| extra evaluations per sampled coalition.
  kEvaluateOnDemand,
};

/// Configuration of Alg. 1 (unified stratified sampling framework).
struct StratifiedConfig {
  /// Which Shapley expression to estimate.
  SvScheme scheme = SvScheme::kMarginal;
  /// How unsampled pairs are handled.
  PairPolicy pair_policy = PairPolicy::kRequireSampled;
  /// Total sampling rounds gamma. Split across strata k = 1..n as evenly as
  /// possible (clipped to each stratum's population C(n, k)) unless
  /// `rounds_per_stratum` overrides the allocation.
  int total_rounds = 32;
  /// Optional explicit m_k for k = 1..n (size n). Overrides total_rounds.
  std::vector<int> rounds_per_stratum;
  /// Seed of the sampling randomness.
  uint64_t seed = 1;
};

/// Alg. 1: unified stratified-sampling approximation of the Shapley value,
/// hosting both the MC-SV and CC-SV computation schemes.
///
/// For each stratum k it draws m_k coalitions of size k i.i.d. uniformly,
/// keeps the distinct ones (the paper's S_k is a set), evaluates them, then
/// averages paired differences within each stratum: a sampled S
/// contributes U(S) - U(S\{i}) for each member i (MC) or U(S) - U(N\S)
/// (CC), subject to `pair_policy`. The empty coalition counts as always
/// sampled (its "model" is the initial one), mirroring the paper's worked
/// Example 2. Strata where a client collected no pairs contribute zero, as
/// in Alg. 1 line 17. Runs StratifiedSweep (core/resumable.h) to
/// completion, so a one-shot run and a checkpointed one evaluate the same
/// plan and return the same bits.
Result<ValuationResult> StratifiedSamplingShapley(
    UtilitySession& session, const StratifiedConfig& config);

/// The default allocation of `total_rounds` over strata 1..n used when
/// `rounds_per_stratum` is empty: round-robin, clipped at C(n, k).
/// Exposed for tests and for configuring paired MC/CC comparisons.
std::vector<int> DefaultStratumAllocation(int n, int total_rounds);

/// The pairing pass of Alg. 1 (lines 9-17) in isolation: averages paired
/// differences over already-drawn strata. `draws[k]` (k = 0..n) holds
/// the distinct sampled coalitions of size k, in draw order; `draws[0]`
/// must hold exactly the empty coalition. `utility` supplies U(.): a
/// lookup of the recorded utilities. Under PairPolicy::kEvaluateOnDemand
/// the pair of a sampled coalition may itself be unsampled, in which case
/// it is fetched through `utility` too. Shared by StratifiedSweep and
/// AdaptiveStratifiedSweep (core/resumable.h).
Result<std::vector<double>> StratifiedEstimateFromDraws(
    int n, SvScheme scheme, PairPolicy pair_policy,
    const std::vector<std::vector<Coalition>>& draws,
    const std::function<Result<double>(const Coalition&)>& utility);

/// Configuration of the per-client stratified estimator.
struct PerClientStratifiedConfig {
  /// Which Shapley expression to estimate.
  SvScheme scheme = SvScheme::kMarginal;
  /// Samples drawn per (client, stratum) pair: the m_{i,k} of Alg. 1 with
  /// equal allocation. Every client gets every stratum — no coverage gaps.
  int samples_per_stratum = 2;
  /// Seed of the sampling randomness.
  uint64_t seed = 1;
};

/// Per-client stratified sampling: the reading of Alg. 1 in which each
/// client i draws m_{i,k} coalitions S (S !ni i, |S| = k) per stratum and
/// averages the paired differences — U(S u i) - U(S) for MC-SV,
/// U(S u i) - U(N \ (S u i)) for CC-SV. Unlike the shared-pool variant
/// above, every client's estimate covers every stratum by construction,
/// which is the regime of the Thm. 1 unbiasedness and Thm. 2 variance
/// analysis (and of the Fig. 10 experiment). Shared coalitions across
/// clients deduplicate through the utility cache.
Result<ValuationResult> PerClientStratifiedShapley(
    UtilitySession& session, const PerClientStratifiedConfig& config);

/// Allocation that exhausts the smallest strata first (stratum populations
/// C(n, k) sorted ascending), then round-robins the remaining budget over
/// the rest. With any non-trivial budget this covers the n singletons and
/// the grand coalition, anchoring every client's estimate with its largest
/// marginal term — the practical regime in which Thm. 2's MC-vs-CC
/// variance comparison applies (and the strategy used by the Fig. 10
/// bench). The framework leaves the strategy free; this is one sensible
/// instance.
std::vector<int> SmallestFirstAllocation(int n, int total_rounds);

// ---------------------------------------------------------------------------
// Adaptive allocation (ROADMAP item 2)

/// Running sum / sum-of-squares statistics of one stratum's paired
/// differences — the two-row statistics matrix of the classic stratified
/// estimator, kept streaming so reallocation can read the current
/// variance estimate at any point of the run.
struct StratumMoments {
  uint64_t count = 0;
  double sum = 0.0;
  double sum_squares = 0.0;

  /// Folds one observed paired difference into the running sums.
  void Add(double x) {
    ++count;
    sum += x;
    sum_squares += x * x;
  }
  /// Sample mean; 0 with no observations.
  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Unbiased sample variance; 0 with fewer than two observations.
  double Variance() const {
    if (count < 2) return 0.0;
    const double c = static_cast<double>(count);
    const double centered = sum_squares - (sum * sum) / c;
    // Cancellation can push the numerator a hair below zero.
    return centered > 0.0 ? centered / (c - 1.0) : 0.0;
  }
  /// Square root of Variance().
  double StdDev() const;

  /// Merges another stratum's observations into this one (used when an
  /// allocation bucket pools several coalition sizes).
  void Merge(const StratumMoments& other) {
    count += other.count;
    sum += other.sum;
    sum_squares += other.sum_squares;
  }
};

/// Neyman allocation of `budget` rounds over strata k = 1..n from running
/// moment state: m_k proportional to N_k * s_k (N_k = C(n, k), s_k the
/// stratum's sample stddev — the weight Theorems 1/2 put on each stratum
/// in the error bound), clipped at each stratum's remaining population.
/// Strata with fewer than two observations borrow the observation-count
/// weighted average sigma of the measured ones, so unexplored strata keep
/// receiving budget. When no stratum carries variance information — or
/// every stratum's sigma is equal, making the weights uninformative — the
/// allocation degenerates to DefaultStratumAllocation (uniform
/// round-robin), so the adaptive mode never does worse than the fixed
/// default for lack of data.
///
/// `already_allocated` (empty or size n) holds rounds previously granted
/// per stratum; the clip becomes C(n, k) - already_allocated[k-1]. The
/// result sums to `budget` unless the remaining populations cannot absorb
/// it, and is a pure deterministic function of its arguments.
std::vector<int> NeymanStratumAllocation(
    int n, int budget, const std::vector<StratumMoments>& moments,
    const std::vector<int64_t>& already_allocated = {});

/// Coverage floor of the adaptive mode. Theorem 1's unbiasedness (and the
/// error bound the Neyman weights optimize) holds in the regime where
/// every (client, stratum) cell collects at least one paired difference —
/// a stratum starved of draws contributes zero for every client (Alg. 1
/// line 17), a bias no amount of sampling elsewhere repairs. Before the
/// Neyman split of an epoch's budget, each stratum is therefore topped up
/// toward a quota of ceil(per_client * n / k) cumulative rounds (a size-k
/// draw covers k of the n clients), clipped at the stratum's remaining
/// population. Returns the per-stratum top-up (size n, sums to at most
/// `budget`); `granted` (size n) holds the rounds already spent per
/// stratum. Budget too small for every quota is round-robined over the
/// deficits, smallest stratum first.
std::vector<int> CoverageFloorAllocation(int n, int budget,
                                         const std::vector<int64_t>& granted,
                                         double per_client);

/// One allocation stratum of the adaptive mode: the contiguous coalition
/// sizes [lo, hi] (1-based, inclusive) whose moments are pooled when
/// estimating sigma. Refinement splits buckets toward per-size
/// granularity as evidence accumulates.
struct AllocationBucket {
  int lo = 1;
  int hi = 1;
};

/// Splits 1..n into `count` contiguous buckets of near-equal width (the
/// coarse starting granularity of the adaptive mode). count is clamped
/// to [1, n].
std::vector<AllocationBucket> InitialAllocationBuckets(int n, int count);

/// Pools the per-size moments of sizes [lo, hi] (1-based, inclusive).
StratumMoments PoolStratumMoments(const std::vector<StratumMoments>& moments,
                                  int lo, int hi);

/// The error-bound contribution the reallocation loop prioritizes on:
/// (N_b * s_b)^2 / m_b, the bucket's term of the Theorem 1/2 variance
/// bound under the current allocation (m_b = observations so far,
/// floored at 1).
double BucketErrorBound(int n, const AllocationBucket& bucket,
                        const std::vector<StratumMoments>& moments);

/// Priority-driven refinement: if one bucket dominates the error-bound
/// estimate (its BucketErrorBound exceeds `dominance` times the total
/// over all buckets), spans more than one coalition size and carries at
/// least two observations, it is split at its population midpoint.
/// Returns true when a split happened; at most one bucket splits per
/// call. `moments` is the per-size moment state (size n).
bool RefineDominantBucket(int n, std::vector<AllocationBucket>& buckets,
                          const std::vector<StratumMoments>& moments,
                          double dominance);

/// Configuration of the adaptive-allocation stratified estimator.
struct AdaptiveAllocationConfig {
  /// Which Shapley expression to estimate.
  SvScheme scheme = SvScheme::kMarginal;
  /// How unsampled pairs are handled.
  PairPolicy pair_policy = PairPolicy::kRequireSampled;
  /// Total sampling rounds gamma across all epochs (pilot included).
  int total_rounds = 32;
  /// Seed of the sampling randomness.
  uint64_t seed = 1;
  /// Rounds per stratum of the first epoch (the pilot), clipped at
  /// C(n, k) and at the total budget.
  int pilot_rounds_per_stratum = 2;
  /// Budget reallocated per epoch after the pilot: every this many
  /// rounds the remaining budget is re-split by NeymanStratumAllocation
  /// over the refreshed moments.
  int reallocate_every = 16;
  /// Contiguous size buckets the sigma estimation starts from.
  int initial_buckets = 2;
  /// Dominance threshold handed to RefineDominantBucket each epoch.
  double refine_dominance = 0.5;
  /// Coverage quota factor of CoverageFloorAllocation: each epoch tops
  /// strata up toward ceil(coverage_per_client * n / k) cumulative rounds
  /// before Neyman splits the surplus. 0 disables the floor (pure Neyman).
  double coverage_per_client = 2.0;
};

/// Adaptive-allocation stratified sampling: Alg. 1's draw-and-pair
/// machinery with the per-stratum budget re-planned while the run is in
/// flight. A pilot epoch seeds per-stratum moments, then each epoch
/// reallocates the remaining budget by NeymanStratumAllocation (refining
/// the sigma-pooling buckets when one dominates the error bound) and
/// draws the granted rounds. Pairing and averaging go through the same
/// StratifiedEstimateFromDraws as the fixed estimator, over the union of
/// all epochs' draws. Runs AdaptiveStratifiedSweep (core/resumable.h) to
/// completion, so one-shot and resumed runs are bit-identical.
Result<ValuationResult> AdaptiveStratifiedShapley(
    UtilitySession& session, const AdaptiveAllocationConfig& config);

}  // namespace fedshap

#endif  // FEDSHAP_CORE_STRATIFIED_H_
