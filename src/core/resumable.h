#ifndef FEDSHAP_CORE_RESUMABLE_H_
#define FEDSHAP_CORE_RESUMABLE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/ipss.h"
#include "core/stratified.h"
#include "core/valuation_result.h"
#include "fl/utility_cache.h"
#include "util/coalition.h"
#include "util/random.h"
#include "util/status.h"

namespace fedshap {

/// \file
/// Resumable valuation sweeps: estimators that expose their in-flight
/// state (evaluation cursor, recorded utilities, running sums, RNG
/// state) as a serializable snapshot, so a killed multi-hour run
/// restarts from where it stopped instead of from scratch.
///
/// Two resumption mechanisms compose here:
///
///  1. **The persistent UtilityStore** makes the expensive part — the FL
///     trainings — durable. Any restarted run re-requesting the same
///     coalition gets a disk hit.
///  2. **Snapshots** (this file) make the *estimator* durable: which
///     evaluations of the plan are done, the utilities/sums collected so
///     far, and the sampler's RNG state. A restored sweep continues the
///     exact evaluation sequence and produces bit-identical estimates to
///     an uninterrupted run.
///
/// Either works alone (snapshots alone resume correctly; the store alone
/// makes a re-run cheap), but together a relaunch costs seconds.

/// Frame tag of snapshot files/strings ("FSSN" little-endian). Exposed
/// for tools and the version-gating tests.
constexpr uint32_t kSweepSnapshotMagic = 0x4e535346u;
/// Current snapshot frame version. Version 2 added the adaptive
/// allocation state (AdaptiveStratifiedSweep); version 1 snapshots —
/// written before that state existed — still restore, because the
/// decoder accepts any version <= the current one and the version-1
/// payload layouts are unchanged.
constexpr uint32_t kSweepSnapshotVersion = 2;

/// Interface of a valuation estimator that can checkpoint mid-run.
///
/// Lifecycle: construct with the workload size and configuration, then
/// either `Restore` a previous snapshot or start fresh; call `Step`
/// until `done()`, snapshotting between steps; call `Finish` once to
/// obtain the estimate. `Run` is the convenience one-shot.
class ResumableEstimator {
 public:
  virtual ~ResumableEstimator() = default;

  /// Stable identifier baked into snapshots (e.g. "ipss"); a snapshot
  /// only restores into an estimator with the same name.
  virtual const char* AlgorithmName() const = 0;

  /// Total work units (utility evaluations or sampled permutations).
  virtual size_t total_units() const = 0;
  /// Work units completed so far.
  virtual size_t completed_units() const = 0;
  /// True once every unit has been processed.
  virtual bool done() const = 0;

  /// Advances by at most `max_units` work units (<= 0 means all
  /// remaining), evaluating utilities through `session` (each batch's
  /// misses train side by side). Safe to call when already done
  /// (no-op).
  virtual Status Step(UtilitySession& session, int max_units) = 0;

  /// The coalitions the next `max_units` work units would evaluate,
  /// without advancing any state: what a speculative prefetcher may
  /// safely warm the utility cache with while the current slice runs.
  /// Samplers peek by *copying* their RNG, so the published sequence is
  /// exactly what Step will draw. Estimators whose upcoming draws depend
  /// on utilities not yet observed return only the prefix that is
  /// already determined — possibly nothing (the default): prefetching is
  /// an optimization, never an obligation. May contain duplicates of
  /// already-evaluated coalitions; the cache dedups them for free.
  virtual std::vector<Coalition> PeekNext(size_t max_units) const {
    (void)max_units;
    return {};
  }

  /// Computes the estimate. Requires done(). Cost accounting in the
  /// returned ValuationResult reflects `session`'s counters, i.e. the
  /// work of *this* process — a resumed run charges only what it
  /// actually evaluated (disk hits charge their recorded training cost
  /// through the session as usual).
  virtual Result<ValuationResult> Finish(UtilitySession& session) = 0;

  /// Serializes the complete in-flight state as a framed, checksummed
  /// byte string (see util/serialization.h).
  virtual Result<std::string> Snapshot() const = 0;

  /// Restores a snapshot produced by an estimator with the same
  /// algorithm, workload and configuration. Fails with
  /// FailedPrecondition on a configuration mismatch and InvalidArgument
  /// on corrupt input; the estimator is unchanged on failure.
  virtual Status Restore(std::string_view snapshot) = 0;

  /// Step-to-completion followed by Finish.
  Result<ValuationResult> Run(UtilitySession& session);
};

/// Writes `estimator`'s snapshot to `path` crash-safely (temp + rename).
Status SaveSnapshot(const ResumableEstimator& estimator,
                    const std::string& path);

/// Restores `estimator` from the snapshot file at `path`. NotFound when
/// the file does not exist (callers typically start fresh then).
Status LoadSnapshot(ResumableEstimator& estimator, const std::string& path);

/// Serializes a finished ValuationResult as a framed, checksummed byte
/// string — the durable form of a *completed* valuation (the valuation
/// service persists every finished job's result this way, so a restarted
/// service serves completed jobs without recomputing anything). Doubles
/// round-trip bit-for-bit.
std::string EncodeValuationResult(const ValuationResult& result);

/// Decodes a string produced by EncodeValuationResult. Fails with
/// InvalidArgument on corrupt or foreign input.
Result<ValuationResult> DecodeValuationResult(std::string_view encoded);

/// Base for sweeps whose evaluation plan — the exact coalition sequence
/// to evaluate — is a deterministic function of the configuration (the
/// sampling RNG is consumed entirely while planning). State is then just
/// a cursor into the plan plus the utilities recorded so far; snapshots
/// store both and validate a hash of the re-derived plan on restore, so
/// a snapshot can never silently resume against different draws.
class CoalitionPlanSweep : public ResumableEstimator {
 public:
  size_t total_units() const override { return plan_.size(); }
  size_t completed_units() const override { return cursor_; }
  bool done() const override {
    return init_status_.ok() && cursor_ == plan_.size();
  }
  Status Step(UtilitySession& session, int max_units) override;
  /// The next `max_units` plan entries past the cursor — plan sweeps
  /// know their whole future, so the peek is a plain slice.
  std::vector<Coalition> PeekNext(size_t max_units) const override;
  Result<ValuationResult> Finish(UtilitySession& session) override;
  Result<std::string> Snapshot() const override;
  Status Restore(std::string_view snapshot) override;

 protected:
  /// Hash of everything that parameterizes the plan (n, budget, seed,
  /// scheme, ...); snapshots embed it and refuse to restore on mismatch.
  virtual uint64_t ConfigHash() const = 0;
  /// Turns plan_[.] / utilities_[.] into the final per-client estimate.
  /// `session` is only consulted for utilities outside the plan
  /// (PairPolicy::kEvaluateOnDemand).
  virtual Result<std::vector<double>> Estimate(
      UtilitySession& session) const = 0;

  /// Installs the derived evaluation plan. Subclass constructors call
  /// exactly one of SetPlan / FailInit.
  void SetPlan(std::vector<Coalition> plan);
  /// Records a configuration error; every later operation returns it.
  void FailInit(Status status);

  /// OK, or the constructor-time configuration error.
  Status init_status_;
  /// The coalition evaluation sequence, fixed at construction.
  std::vector<Coalition> plan_;
  /// utilities_[j] = U(plan_[j]) for j < cursor_.
  std::vector<double> utilities_;
  /// Number of plan entries already evaluated.
  size_t cursor_ = 0;

 private:
  uint64_t PlanHash() const;
  /// Wall time accumulated across Step/Finish calls in this process.
  double wall_accum_ = 0.0;
};

/// Resumable IPSS (Alg. 3): plan = the exhaustive <= k* strata followed
/// by the balanced (k*+1)-stratum sample; finishes with the MC-SV estimate
/// of Alg. 3 lines 15-17 over the recorded utilities, and logs the pruned
/// stratum's paired-difference sigma at Debug level. The one-shot
/// IpssShapley runs this sweep to completion.
class IpssSweep : public CoalitionPlanSweep {
 public:
  /// Plans an IPSS sweep over `n` clients with the given budget/seed.
  IpssSweep(int n, const IpssConfig& config);
  const char* AlgorithmName() const override { return "ipss"; }

 protected:
  uint64_t ConfigHash() const override;
  Result<std::vector<double>> Estimate(UtilitySession&) const override;

 private:
  int n_;
  IpssConfig config_;
  int k_star_ = -1;
  size_t exhaustive_count_ = 0;
};

/// Resumable unified stratified sampling (Alg. 1), MC or CC scheme. Plan
/// = the empty coalition plus the distinct per-stratum draws, in draw
/// order; finishes through StratifiedEstimateFromDraws. The one-shot
/// StratifiedSamplingShapley runs this sweep to completion.
class StratifiedSweep : public CoalitionPlanSweep {
 public:
  /// Plans a stratified sweep over `n` clients with the given config.
  StratifiedSweep(int n, const StratifiedConfig& config);
  const char* AlgorithmName() const override { return "stratified"; }

 protected:
  uint64_t ConfigHash() const override;
  Result<std::vector<double>> Estimate(UtilitySession& session) const override;

 private:
  int n_;
  StratifiedConfig config_;
};

/// Resumable exact Shapley sweep over all 2^n coalitions (the ground
/// truth of every experiment, and the longest sweep the benches run).
/// Plan = every subset in mask order; finishes through
/// McShapleyFromSubsetUtilities / CcShapleyFromSubsetUtilities per the
/// chosen scheme. Requires n <= 20 (the plan and the snapshot materialize
/// all 2^n coalitions and utilities). The one-shot ExactShapleyMc and
/// ExactShapleyCc run this sweep to completion.
class ExactSweep : public CoalitionPlanSweep {
 public:
  /// Plans the full 2^n sweep; `scheme` picks the final-estimate form.
  ExactSweep(int n, SvScheme scheme);
  const char* AlgorithmName() const override { return "exact"; }

 protected:
  uint64_t ConfigHash() const override;
  Result<std::vector<double>> Estimate(UtilitySession&) const override;

 private:
  int n_;
  SvScheme scheme_;
};

/// Configuration of the resumable permutation-MC estimator.
struct PermutationMcConfig {
  /// Permutations to sample in total.
  int permutations = 64;
  /// Seed of the permutation stream.
  uint64_t seed = 1;
};

/// Resumable Monte-Carlo permutation sampling ("Perm-Shapley" estimated
/// by sampling instead of full n! enumeration): each work unit draws one
/// permutation and accumulates every client's marginal contribution
/// along it. Unlike the plan sweeps, the sampler's RNG lives across
/// steps, so snapshots capture the *running sums, sample count and RNG
/// state* — the canonical incremental-estimator checkpoint. A restored
/// sweep continues the identical permutation stream.
class PermutationMcSweep : public ResumableEstimator {
 public:
  /// Prepares a sampler over `n` clients; no permutation is drawn yet.
  PermutationMcSweep(int n, const PermutationMcConfig& config);
  const char* AlgorithmName() const override { return "perm-mc"; }

  size_t total_units() const override;
  size_t completed_units() const override { return permutations_done_; }
  bool done() const override;
  Status Step(UtilitySession& session, int max_units) override;
  /// Replays the next `max_units` permutations on a *copy* of the live
  /// RNG and publishes the empty coalition plus every prefix — the exact
  /// evaluation order the next Step will request.
  std::vector<Coalition> PeekNext(size_t max_units) const override;
  Result<ValuationResult> Finish(UtilitySession& session) override;
  Result<std::string> Snapshot() const override;
  Status Restore(std::string_view snapshot) override;

 private:
  uint64_t ConfigHash() const;

  Status init_status_;
  int n_;
  PermutationMcConfig config_;
  size_t permutations_done_ = 0;
  /// Sum of sampled marginal contributions per client.
  std::vector<double> sums_;
  Rng rng_;
  double wall_accum_ = 0.0;
};

/// Resumable adaptive-allocation stratified sampling: Alg. 1's sampler
/// with the per-stratum budget re-planned in flight (ROADMAP item 2).
///
/// The run proceeds in epochs. The first epoch is a pilot
/// (`pilot_rounds_per_stratum` per stratum); every later epoch (1)
/// optionally splits the sigma-pooling bucket dominating the error-bound
/// estimate (RefineDominantBucket), then (2) re-splits the next
/// `reallocate_every` rounds of the remaining budget over the strata by
/// NeymanStratumAllocation, fed by the running per-stratum moments of
/// all paired differences observed so far. One work unit = one sampling
/// round (a duplicate draw consumes its round without re-evaluating,
/// exactly like the fixed estimator).
///
/// Reallocation consumes observed utilities, so — unlike StratifiedSweep
/// — the draw sequence is not a pure function of the configuration and
/// cannot be re-planned on restore. Snapshots therefore carry the full
/// allocation state: the draws and their utilities, the per-stratum
/// moments, the bucket list, the current epoch plan + cursor and the
/// live RNG state. Two invariants make resumption bit-identical at any
/// checkpoint chunking and worker count: the RNG stream never depends on
/// utilities within an epoch (plans change only at epoch boundaries,
/// which fall at fixed round counts), and a pair contributes to the
/// moments iff it was drawn strictly earlier in the global draw order —
/// a batch-boundary-independent rule.
class AdaptiveStratifiedSweep : public ResumableEstimator {
 public:
  /// Prepares an adaptive sweep over `n` clients; nothing is drawn yet.
  AdaptiveStratifiedSweep(int n, const AdaptiveAllocationConfig& config);
  const char* AlgorithmName() const override {
    return "adaptive-stratified";
  }

  size_t total_units() const override;
  size_t completed_units() const override { return rounds_spent_; }
  bool done() const override;
  Status Step(UtilitySession& session, int max_units) override;
  /// Simulates the remaining rounds of the *current* epoch on a copy of
  /// the live RNG (the next epoch's plan depends on utilities not yet
  /// observed, so the peek stops at the epoch boundary — and returns
  /// nothing when no epoch is in flight).
  std::vector<Coalition> PeekNext(size_t max_units) const override;
  Result<ValuationResult> Finish(UtilitySession& session) override;
  Result<std::string> Snapshot() const override;
  Status Restore(std::string_view snapshot) override;

  /// Introspection for tests and benches: the running per-stratum
  /// moments (size n, stratum k at index k-1)...
  const std::vector<StratumMoments>& moments() const { return moments_; }
  /// ...the current sigma-pooling buckets...
  const std::vector<AllocationBucket>& buckets() const { return buckets_; }
  /// ...the current epoch's per-stratum plan (empty before the first
  /// step)...
  const std::vector<int>& epoch_plan() const { return epoch_plan_; }
  /// ...the cumulative rounds granted per stratum (size n)...
  const std::vector<int64_t>& rounds_per_size() const {
    return rounds_per_size_;
  }
  /// ...and how many Neyman reallocations have happened (pilot excluded).
  int reallocations() const { return reallocations_; }

 private:
  uint64_t ConfigHash() const;
  /// Installs the next epoch's plan: the pilot on the first call,
  /// refinement + Neyman reallocation afterwards.
  void BeginEpoch();
  /// Draws and evaluates `count` rounds of the current epoch.
  Status RunRounds(UtilitySession& session, size_t count);
  /// Folds newly evaluated draws into the per-stratum moments. Under
  /// PairPolicy::kEvaluateOnDemand missing pairs are evaluated through
  /// `session` (the same evaluations Finish performs; the cache makes
  /// them free there) so the moments see every difference the final
  /// estimate will average.
  Status FoldNewDraws(UtilitySession& session);

  Status init_status_;
  int n_ = 0;
  AdaptiveAllocationConfig config_;
  /// min(total_rounds, sum of stratum populations): the rounds the run
  /// can actually place.
  size_t effective_total_ = 0;
  Rng rng_;
  // Durable state (everything Snapshot carries).
  size_t rounds_spent_ = 0;
  std::vector<Coalition> draws_;     ///< Distinct draws, evaluation order.
  std::vector<double> utilities_;    ///< utilities_[j] = U(draws_[j]).
  std::vector<StratumMoments> moments_;  ///< Per stratum k=1..n.
  std::vector<AllocationBucket> buckets_;
  std::vector<int> epoch_plan_;      ///< Current epoch's m_k (size n).
  size_t epoch_cursor_ = 0;          ///< Rounds consumed of this epoch.
  std::vector<int64_t> rounds_per_size_;  ///< Cumulative granted rounds.
  int reallocations_ = 0;
  // Derived state, rebuilt on Restore.
  std::unordered_map<Coalition, size_t, CoalitionHash> index_of_;
  size_t moments_folded_ = 0;        ///< draws_ prefix already in moments_.
  double wall_accum_ = 0.0;
};

}  // namespace fedshap

#endif  // FEDSHAP_CORE_RESUMABLE_H_
