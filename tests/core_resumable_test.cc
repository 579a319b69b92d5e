/// Tests for core/resumable.h: snapshot/restore equivalence (a resumed
/// sweep is bit-identical to an uninterrupted one), agreement with the
/// one-shot algorithms in values and counters, snapshot validation (wrong
/// algorithm / config / corruption), and file-based checkpoint
/// round-trips. Also the run-level determinism contract: same seed + same
/// --threads/--batch-size means a bit-identical ValuationResult across
/// repeated in-process runs, across thread counts, and across a
/// store-warm resume.

#include "core/resumable.h"

#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/ipss.h"
#include "data/synthetic.h"
#include "fl/utility_store.h"
#include "ml/mlp.h"
#include "test_util.h"
#include "util/logging.h"
#include "util/serialization.h"
#include "util/thread_pool.h"

namespace fedshap {
namespace {

using testing_util::MonotoneTable;
using testing_util::PaperTableOne;
using testing_util::RandomTable;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "fedshap_resume_" + name;
}

/// Runs `make()`'s sweep start to finish in one process.
ValuationResult RunUninterrupted(
    const UtilityFunction& fn,
    const std::function<std::unique_ptr<ResumableEstimator>()>& make) {
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  std::unique_ptr<ResumableEstimator> sweep = make();
  Result<ValuationResult> result = sweep->Run(session);
  FEDSHAP_CHECK_OK(result.status());
  return std::move(result).value();
}

/// Runs the sweep in chunks of `chunk` units, snapshotting after every
/// step and handing the snapshot to a *fresh* estimator + cache each
/// time — the worst-case resume (no warm cache at all, only the
/// serialized state survives).
ValuationResult RunWithSnapshotsEveryStep(
    const UtilityFunction& fn,
    const std::function<std::unique_ptr<ResumableEstimator>()>& make,
    int chunk) {
  std::string snapshot;
  {
    std::unique_ptr<ResumableEstimator> sweep = make();
    Result<std::string> first = sweep->Snapshot();
    FEDSHAP_CHECK_OK(first.status());
    snapshot = std::move(first).value();
  }
  while (true) {
    std::unique_ptr<ResumableEstimator> sweep = make();
    FEDSHAP_CHECK_OK(sweep->Restore(snapshot));
    if (sweep->done()) {
      UtilityCache cache(&fn);
      UtilitySession session(&cache);
      Result<ValuationResult> result = sweep->Finish(session);
      FEDSHAP_CHECK_OK(result.status());
      return std::move(result).value();
    }
    UtilityCache cache(&fn);
    UtilitySession session(&cache);
    FEDSHAP_CHECK_OK(sweep->Step(session, chunk));
    Result<std::string> next = sweep->Snapshot();
    FEDSHAP_CHECK_OK(next.status());
    snapshot = std::move(next).value();
  }
}

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ, not NEAR: resumption must not perturb a single bit.
    EXPECT_EQ(a[i], b[i]) << "client " << i;
  }
}

/// A one-shot estimator is its sweep run to completion, so on a cold
/// cache both charge the same evaluations, trainings and fresh trainings.
void ExpectSameCounters(const ValuationResult& a, const ValuationResult& b) {
  EXPECT_EQ(a.num_evaluations, b.num_evaluations);
  EXPECT_EQ(a.num_trainings, b.num_trainings);
  EXPECT_EQ(a.num_fresh_trainings, b.num_fresh_trainings);
}

TEST(IpssSweepTest, MatchesOneShotIpss) {
  TableUtility fn = MonotoneTable(6);
  IpssConfig config;
  config.total_rounds = 24;
  config.seed = 3;

  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  Result<ValuationResult> one_shot = IpssShapley(session, config);
  ASSERT_TRUE(one_shot.ok());

  ValuationResult sweep = RunUninterrupted(fn, [&] {
    return std::make_unique<IpssSweep>(6, config);
  });
  ExpectBitIdentical(one_shot->values, sweep.values);
  ExpectSameCounters(*one_shot, sweep);
}

TEST(IpssSweepTest, ResumedBitIdenticalToUninterrupted) {
  TableUtility fn = RandomTable(7, 11);
  IpssConfig config;
  config.total_rounds = 40;
  config.seed = 9;
  const auto make = [&] { return std::make_unique<IpssSweep>(7, config); };
  ValuationResult uninterrupted = RunUninterrupted(fn, make);
  for (int chunk : {1, 3, 7}) {
    ValuationResult resumed = RunWithSnapshotsEveryStep(fn, make, chunk);
    ExpectBitIdentical(uninterrupted.values, resumed.values);
  }
}

TEST(IpssSweepTest, LogsPrunedStratumSigmaOnlyAtDebugLevel) {
  TableUtility fn = MonotoneTable(6);
  IpssConfig config;
  config.total_rounds = 24;  // k* = 2 (22 coalitions) + 2 sampled
  const LogLevel original = GetLogLevel();
  std::string logged[2];
  for (int debug = 0; debug < 2; ++debug) {
    SetLogLevel(debug ? LogLevel::kDebug : LogLevel::kInfo);
    ::testing::internal::CaptureStderr();
    RunUninterrupted(fn, [&] {
      return std::make_unique<IpssSweep>(6, config);
    });
    logged[debug] = ::testing::internal::GetCapturedStderr();
  }
  SetLogLevel(original);
  EXPECT_EQ(logged[0].find("[ipss] pruned stratum"), std::string::npos);
  // Two sampled size-3 coalitions, three pairs each.
  EXPECT_NE(logged[1].find("[ipss] pruned stratum k=3 samples=6 sigma="),
            std::string::npos)
      << logged[1];
}

TEST(StratifiedSweepTest, MatchesOneShotForBothSchemes) {
  TableUtility fn = RandomTable(6, 21);
  for (SvScheme scheme :
       {SvScheme::kMarginal, SvScheme::kComplementary}) {
    StratifiedConfig config;
    config.scheme = scheme;
    config.total_rounds = 30;
    config.seed = 5;

    UtilityCache cache(&fn);
    UtilitySession session(&cache);
    Result<ValuationResult> one_shot =
        StratifiedSamplingShapley(session, config);
    ASSERT_TRUE(one_shot.ok());

    ValuationResult sweep = RunUninterrupted(fn, [&] {
      return std::make_unique<StratifiedSweep>(6, config);
    });
    ExpectBitIdentical(one_shot->values, sweep.values);
    ExpectSameCounters(*one_shot, sweep);
  }
}

TEST(StratifiedSweepTest, ResumedBitIdenticalToUninterrupted) {
  TableUtility fn = MonotoneTable(6);
  StratifiedConfig config;
  config.total_rounds = 25;
  config.seed = 13;
  const auto make = [&] {
    return std::make_unique<StratifiedSweep>(6, config);
  };
  ValuationResult uninterrupted = RunUninterrupted(fn, make);
  ValuationResult resumed = RunWithSnapshotsEveryStep(fn, make, 4);
  ExpectBitIdentical(uninterrupted.values, resumed.values);
}

TEST(ExactSweepTest, MatchesExactShapleyMcAndCc) {
  TableUtility fn = PaperTableOne();
  {
    UtilityCache cache(&fn);
    UtilitySession session(&cache);
    Result<ValuationResult> exact = ExactShapleyMc(session);
    ASSERT_TRUE(exact.ok());
    ValuationResult sweep = RunUninterrupted(fn, [&] {
      return std::make_unique<ExactSweep>(3, SvScheme::kMarginal);
    });
    ExpectBitIdentical(exact->values, sweep.values);
    ExpectSameCounters(*exact, sweep);
    EXPECT_EQ(sweep.num_trainings, 8u);
  }
  {
    UtilityCache cache(&fn);
    UtilitySession session(&cache);
    Result<ValuationResult> exact = ExactShapleyCc(session);
    ASSERT_TRUE(exact.ok());
    ValuationResult sweep = RunUninterrupted(fn, [&] {
      return std::make_unique<ExactSweep>(3, SvScheme::kComplementary);
    });
    ExpectBitIdentical(exact->values, sweep.values);
    ExpectSameCounters(*exact, sweep);
  }
}

TEST(ExactSweepTest, ResumedBitIdenticalToUninterrupted) {
  TableUtility fn = RandomTable(5, 31);
  const auto make = [&] {
    return std::make_unique<ExactSweep>(5, SvScheme::kMarginal);
  };
  ValuationResult uninterrupted = RunUninterrupted(fn, make);
  ValuationResult resumed = RunWithSnapshotsEveryStep(fn, make, 5);
  ExpectBitIdentical(uninterrupted.values, resumed.values);
}

TEST(PermutationMcSweepTest, ResumedBitIdenticalAcrossRngBoundary) {
  // The permutation sampler's RNG lives across steps: resuming from a
  // snapshot must continue the identical permutation stream, which only
  // works if the serialized RNG state (engine + distribution carry)
  // round-trips exactly.
  TableUtility fn = RandomTable(6, 41);
  PermutationMcConfig config;
  config.permutations = 30;
  config.seed = 17;
  const auto make = [&] {
    return std::make_unique<PermutationMcSweep>(6, config);
  };
  ValuationResult uninterrupted = RunUninterrupted(fn, make);
  for (int chunk : {1, 4, 13}) {
    ValuationResult resumed = RunWithSnapshotsEveryStep(fn, make, chunk);
    ExpectBitIdentical(uninterrupted.values, resumed.values);
  }
}

TEST(PermutationMcSweepTest, ConvergesTowardExactSv) {
  TableUtility fn = PaperTableOne();
  PermutationMcConfig config;
  config.permutations = 4000;
  config.seed = 23;
  ValuationResult result = RunUninterrupted(fn, [&] {
    return std::make_unique<PermutationMcSweep>(3, config);
  });
  // Exact SV of Table I is (0.22, 0.32, 0.32).
  EXPECT_NEAR(result.values[0], 0.22, 0.02);
  EXPECT_NEAR(result.values[1], 0.32, 0.02);
  EXPECT_NEAR(result.values[2], 0.32, 0.02);
}

// ---------------------------------------------------------------------
// PeekNext: the speculative-prefetch contract. Peeking must (a) be pure
// (no observable effect on the sweep's later draws — final values stay
// bit-identical), (b) be deterministic (two peeks agree), and (c) name
// exactly what the sweep goes on to demand: prefetching every peeked
// coalition leaves the subsequent Step with zero cache misses, and the
// whole run trains exactly the coalitions an unprefetched run would
// (no mis-speculation).
// ---------------------------------------------------------------------

/// Drives `make()`'s sweep in `chunk`-unit slices, prefetching what
/// PeekNext(chunk) announces before every Step, and checks the contract
/// above against an unprefetched reference run. `strict_slice_coverage`
/// additionally pins per-slice exactness (peek(chunk) covers step(chunk))
/// — epoch-planned sweeps can only peek to their epoch boundary, so they
/// check the run-level properties only.
void ExpectPeekDrivenPrefetchExact(
    const UtilityFunction& fn,
    const std::function<std::unique_ptr<ResumableEstimator>()>& make,
    int chunk, bool strict_slice_coverage) {
  UtilityCache ref_cache(&fn);
  UtilitySession ref_session(&ref_cache);
  std::unique_ptr<ResumableEstimator> ref_sweep = make();
  Result<ValuationResult> reference = ref_sweep->Run(ref_session);
  FEDSHAP_CHECK_OK(reference.status());

  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  std::unique_ptr<ResumableEstimator> sweep = make();
  EXPECT_TRUE(sweep->PeekNext(0).empty());
  while (!sweep->done()) {
    const std::vector<Coalition> peeked =
        sweep->PeekNext(static_cast<size_t>(chunk));
    EXPECT_EQ(sweep->PeekNext(static_cast<size_t>(chunk)), peeked)
        << "PeekNext is not deterministic";
    for (const Coalition& c : peeked) {
      FEDSHAP_CHECK_OK(cache.Get(c).status());
    }
    const size_t misses_before = cache.misses();
    FEDSHAP_CHECK_OK(sweep->Step(session, chunk));
    if (strict_slice_coverage) {
      // Everything the slice demanded was announced: no miss survived
      // the prefetch.
      EXPECT_EQ(cache.misses(), misses_before);
    }
  }
  EXPECT_TRUE(sweep->PeekNext(4).empty());  // done: nothing left to peek
  Result<ValuationResult> finished = sweep->Finish(session);
  FEDSHAP_CHECK_OK(finished.status());

  // Purity: peek+prefetch must not perturb a single bit of the result.
  ExpectBitIdentical(reference->values, finished->values);
  // Exactness: the prefetched run trained the same coalition set — every
  // peeked coalition was really demanded (zero wasted trainings here;
  // the service tolerates mis-speculation, the sweeps don't emit it).
  EXPECT_EQ(cache.misses(), ref_cache.misses());
}

TEST(IpssSweepTest, PeekNextAnnouncesExactlyTheUpcomingEvaluations) {
  TableUtility fn = RandomTable(7, 51);
  IpssConfig config;
  config.total_rounds = 40;
  config.seed = 9;
  const auto make = [&] { return std::make_unique<IpssSweep>(7, config); };
  for (int chunk : {1, 3, 8}) {
    ExpectPeekDrivenPrefetchExact(fn, make, chunk,
                                  /*strict_slice_coverage=*/true);
  }
}

TEST(StratifiedSweepTest, PeekNextAnnouncesExactlyTheUpcomingEvaluations) {
  TableUtility fn = RandomTable(6, 53);
  StratifiedConfig config;
  config.total_rounds = 30;
  config.seed = 5;
  const auto make = [&] {
    return std::make_unique<StratifiedSweep>(6, config);
  };
  ExpectPeekDrivenPrefetchExact(fn, make, 4, /*strict_slice_coverage=*/true);
}

TEST(ExactSweepTest, PeekNextAnnouncesExactlyTheUpcomingEvaluations) {
  TableUtility fn = RandomTable(5, 57);
  const auto make = [&] {
    return std::make_unique<ExactSweep>(5, SvScheme::kMarginal);
  };
  ExpectPeekDrivenPrefetchExact(fn, make, 5, /*strict_slice_coverage=*/true);
}

TEST(PermutationMcSweepTest, PeekNextCopiesRngWithoutAdvancingIt) {
  // The permutation sampler draws from a live RNG: PeekNext must
  // simulate on a *copy*, or every peek would shift the stream and break
  // bit-identity with the unpeeked run.
  TableUtility fn = RandomTable(6, 59);
  PermutationMcConfig config;
  config.permutations = 20;
  config.seed = 17;
  const auto make = [&] {
    return std::make_unique<PermutationMcSweep>(6, config);
  };
  for (int chunk : {1, 4}) {
    ExpectPeekDrivenPrefetchExact(fn, make, chunk,
                                  /*strict_slice_coverage=*/true);
  }
}

TEST(AdaptiveSweepTest, PeekNextStopsAtTheEpochBoundary) {
  // Adaptive allocation plans each epoch from utilities of the previous
  // one, so only the current epoch's draws are determined: PeekNext
  // simulates those on an RNG copy and returns {} at the boundary rather
  // than speculating on an unknowable plan.
  TableUtility fn = RandomTable(7, 61);
  AdaptiveAllocationConfig config;
  config.total_rounds = 36;
  config.reallocate_every = 8;
  config.seed = 15;
  const auto make = [&] {
    return std::make_unique<AdaptiveStratifiedSweep>(7, config);
  };
  for (int chunk : {1, 5}) {
    ExpectPeekDrivenPrefetchExact(fn, make, chunk,
                                  /*strict_slice_coverage=*/false);
  }
}

TEST(SnapshotValidationTest, WrongAlgorithmRejected) {
  IpssConfig ipss_config;
  ipss_config.total_rounds = 10;
  IpssSweep ipss(4, ipss_config);
  Result<std::string> snapshot = ipss.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  StratifiedConfig strat_config;
  StratifiedSweep stratified(4, strat_config);
  EXPECT_EQ(stratified.Restore(*snapshot).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotValidationTest, ConfigMismatchRejected) {
  IpssConfig config;
  config.total_rounds = 16;
  config.seed = 1;
  IpssSweep original(5, config);
  Result<std::string> snapshot = original.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  config.seed = 2;  // different sampling stream
  IpssSweep different_seed(5, config);
  EXPECT_EQ(different_seed.Restore(*snapshot).code(),
            StatusCode::kFailedPrecondition);

  config.seed = 1;
  IpssSweep different_n(6, config);
  EXPECT_EQ(different_n.Restore(*snapshot).code(),
            StatusCode::kFailedPrecondition);

  PermutationMcConfig perm_a;
  perm_a.seed = 1;
  PermutationMcSweep perm(4, perm_a);
  Result<std::string> perm_snapshot = perm.Snapshot();
  ASSERT_TRUE(perm_snapshot.ok());
  perm_a.seed = 99;
  PermutationMcSweep other(4, perm_a);
  EXPECT_EQ(other.Restore(*perm_snapshot).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotValidationTest, CorruptedSnapshotRejected) {
  TableUtility fn = MonotoneTable(5);
  IpssConfig config;
  config.total_rounds = 12;
  IpssSweep sweep(5, config);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  ASSERT_TRUE(sweep.Step(session, 6).ok());
  Result<std::string> snapshot = sweep.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  std::string corrupted = *snapshot;
  corrupted[corrupted.size() - 3] ^= 0x40;
  IpssSweep target(5, config);
  EXPECT_FALSE(target.Restore(corrupted).ok());
  EXPECT_FALSE(target.Restore("not a snapshot").ok());
  // The failed restores left the target untouched and usable.
  EXPECT_EQ(target.completed_units(), 0u);
  EXPECT_TRUE(target.Restore(*snapshot).ok());
  EXPECT_EQ(target.completed_units(), 6u);
}

TEST(SnapshotFileTest, SaveLoadRoundTripAndMissingFile) {
  const std::string path = TempPath("checkpoint.bin");
  std::remove(path.c_str());
  TableUtility fn = MonotoneTable(5);
  PermutationMcConfig config;
  config.permutations = 10;
  PermutationMcSweep sweep(5, config);

  EXPECT_EQ(LoadSnapshot(sweep, path).code(), StatusCode::kNotFound);

  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  ASSERT_TRUE(sweep.Step(session, 4).ok());
  ASSERT_TRUE(SaveSnapshot(sweep, path).ok());

  PermutationMcSweep restored(5, config);
  ASSERT_TRUE(LoadSnapshot(restored, path).ok());
  EXPECT_EQ(restored.completed_units(), 4u);
  std::remove(path.c_str());
}

TEST(SweepLifecycleTest, InvalidConfigSurfacesOnUse) {
  IpssConfig config;
  config.total_rounds = 0;
  IpssSweep sweep(4, config);
  TableUtility fn = MonotoneTable(4);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  EXPECT_FALSE(sweep.done());
  EXPECT_EQ(sweep.Step(session, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(sweep.Snapshot().ok());
}

// ---------------------------------------------------------------------------
// The adaptive stratified sweep. Its epoch plans are a function of the
// utilities it observed, so resumability here proves the hardest case:
// the serialized state must carry the whole allocation decision process
// (moments, buckets, plan, cursor), not just an RNG position.

TEST(AdaptiveSweepTest, MatchesOneShotAdaptive) {
  TableUtility fn = RandomTable(7, 43);
  AdaptiveAllocationConfig config;
  config.total_rounds = 36;
  config.reallocate_every = 8;
  config.seed = 15;

  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  Result<ValuationResult> one_shot =
      AdaptiveStratifiedShapley(session, config);
  ASSERT_TRUE(one_shot.ok());

  ValuationResult sweep = RunUninterrupted(fn, [&] {
    return std::make_unique<AdaptiveStratifiedSweep>(7, config);
  });
  ExpectBitIdentical(one_shot->values, sweep.values);
  ExpectSameCounters(*one_shot, sweep);
}

TEST(AdaptiveSweepTest, ResumedBitIdenticalAcrossChunkSizes) {
  // reallocate_every=8 with chunks 1/3/7 puts snapshot points inside
  // epochs, exactly at epoch boundaries, and straddling a reallocation —
  // every alignment the service's checkpoint_every can produce.
  TableUtility fn = RandomTable(7, 47);
  for (PairPolicy policy :
       {PairPolicy::kRequireSampled, PairPolicy::kEvaluateOnDemand}) {
    AdaptiveAllocationConfig config;
    config.total_rounds = 40;
    config.reallocate_every = 8;
    config.pair_policy = policy;
    config.seed = 21;
    const auto make = [&] {
      return std::make_unique<AdaptiveStratifiedSweep>(7, config);
    };
    ValuationResult uninterrupted = RunUninterrupted(fn, make);
    for (int chunk : {1, 3, 7}) {
      ValuationResult resumed = RunWithSnapshotsEveryStep(fn, make, chunk);
      ExpectBitIdentical(uninterrupted.values, resumed.values);
    }
  }
}

TEST(AdaptiveSweepTest, ResumedBitIdenticalForCcScheme) {
  TableUtility fn = MonotoneTable(6);
  AdaptiveAllocationConfig config;
  config.scheme = SvScheme::kComplementary;
  config.total_rounds = 30;
  config.reallocate_every = 6;
  config.seed = 27;
  const auto make = [&] {
    return std::make_unique<AdaptiveStratifiedSweep>(6, config);
  };
  ValuationResult uninterrupted = RunUninterrupted(fn, make);
  ValuationResult resumed = RunWithSnapshotsEveryStep(fn, make, 5);
  ExpectBitIdentical(uninterrupted.values, resumed.values);
}

TEST(AdaptiveSweepTest, CrashMidReallocationReplaysNoTraining) {
  // Fault injection against a durable utility store: kill the run right
  // after a mid-epoch step (the allocation state is half-spent), restore
  // from the snapshot into a fresh process image, and finish. The values
  // must match the uninterrupted run bit for bit, and the two phases
  // together must train each coalition exactly once — the crash repays
  // zero trainings.
  TableUtility fn = MonotoneTable(6);
  AdaptiveAllocationConfig config;
  config.total_rounds = 32;
  config.reallocate_every = 8;
  config.seed = 33;

  ValuationResult uninterrupted = RunUninterrupted(fn, [&] {
    return std::make_unique<AdaptiveStratifiedSweep>(6, config);
  });
  size_t uninterrupted_fresh = 0;
  {
    UtilityCache cache(&fn);
    UtilitySession session(&cache);
    AdaptiveStratifiedSweep sweep(6, config);
    FEDSHAP_CHECK_OK(sweep.Run(session).status());
    uninterrupted_fresh = session.num_fresh_trainings();
  }

  const std::string stem = TempPath("adaptive_crash_store");
  std::remove(UtilityStore::StemPath(stem, fn.Fingerprint()).c_str());
  std::string snapshot;
  size_t fresh_before_crash = 0;
  {
    UtilityCache cache(&fn);
    Result<std::unique_ptr<UtilityStore>> store =
        OpenAndAttachStore(stem, /*resume=*/false, fn, cache);
    ASSERT_TRUE(store.ok());
    UtilitySession session(&cache);
    AdaptiveStratifiedSweep sweep(6, config);
    // 19 rounds: past the pilot (12 rounds at n=6) and 7 rounds into the
    // first reallocated epoch — mid-epoch, plan half-executed.
    ASSERT_TRUE(sweep.Step(session, 19).ok());
    ASSERT_FALSE(sweep.done());
    Result<std::string> snap = sweep.Snapshot();
    ASSERT_TRUE(snap.ok());
    snapshot = std::move(snap).value();
    fresh_before_crash = session.num_fresh_trainings();
    ASSERT_TRUE((*store)->Flush().ok());
    // The process dies here: cache, session and sweep all vanish.
  }
  {
    UtilityCache cache(&fn);
    Result<std::unique_ptr<UtilityStore>> store =
        OpenAndAttachStore(stem, /*resume=*/true, fn, cache);
    ASSERT_TRUE(store.ok());
    EXPECT_GT((*store)->loaded_entries(), 0u);
    UtilitySession session(&cache);
    AdaptiveStratifiedSweep sweep(6, config);
    ASSERT_TRUE(sweep.Restore(snapshot).ok());
    EXPECT_EQ(sweep.completed_units(), 19u);
    while (!sweep.done()) {
      ASSERT_TRUE(sweep.Step(session, 4).ok());
    }
    Result<ValuationResult> result = sweep.Finish(session);
    ASSERT_TRUE(result.ok());
    ExpectBitIdentical(uninterrupted.values, result->values);
    // Every distinct coalition was trained exactly once across the two
    // phases; the restored phase re-used the store for everything the
    // first phase already paid for.
    EXPECT_EQ(fresh_before_crash + session.num_fresh_trainings(),
              uninterrupted_fresh);
  }
  std::remove(UtilityStore::StemPath(stem, fn.Fingerprint()).c_str());
}

TEST(AdaptiveSweepTest, ConfigMismatchRejected) {
  AdaptiveAllocationConfig config;
  config.total_rounds = 24;
  config.seed = 7;
  AdaptiveStratifiedSweep original(5, config);
  Result<std::string> snapshot = original.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  config.seed = 8;
  AdaptiveStratifiedSweep different_seed(5, config);
  EXPECT_EQ(different_seed.Restore(*snapshot).code(),
            StatusCode::kFailedPrecondition);

  config.seed = 7;
  config.reallocate_every = 4;
  AdaptiveStratifiedSweep different_epochs(5, config);
  EXPECT_EQ(different_epochs.Restore(*snapshot).code(),
            StatusCode::kFailedPrecondition);

  config = {};
  config.total_rounds = 24;
  config.seed = 7;
  config.coverage_per_client = 0.0;
  AdaptiveStratifiedSweep different_coverage(5, config);
  EXPECT_EQ(different_coverage.Restore(*snapshot).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotValidationTest, VersionOneSnapshotsStillRestore) {
  // Snapshots written before the adaptive sweep existed carry frame
  // version 1; a service upgrade must keep restoring them. The payload
  // layout of the pre-existing sweeps did not change, so a v1 frame is
  // simply the old version number around the same bytes.
  TableUtility fn = MonotoneTable(5);
  StratifiedConfig config;
  config.total_rounds = 20;
  config.seed = 3;
  StratifiedSweep sweep(5, config);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  ASSERT_TRUE(sweep.Step(session, 8).ok());
  Result<std::string> snapshot = sweep.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  Result<std::string_view> payload = DecodeFramed(
      kSweepSnapshotMagic, kSweepSnapshotVersion, *snapshot);
  ASSERT_TRUE(payload.ok());
  const std::string v1 =
      EncodeFramed(kSweepSnapshotMagic, 1, std::string(*payload));

  StratifiedSweep restored(5, config);
  ASSERT_TRUE(restored.Restore(v1).ok());
  EXPECT_EQ(restored.completed_units(), 8u);

  // A frame from a *future* version is rejected, not misparsed.
  const std::string v9 = EncodeFramed(
      kSweepSnapshotMagic, kSweepSnapshotVersion + 7,
      std::string(*payload));
  StratifiedSweep other(5, config);
  EXPECT_FALSE(other.Restore(v9).ok());
}

TEST(AdaptiveSweepTest, CorruptedSnapshotRejectedAndTargetUsable) {
  TableUtility fn = MonotoneTable(5);
  AdaptiveAllocationConfig config;
  config.total_rounds = 20;
  config.seed = 11;
  AdaptiveStratifiedSweep sweep(5, config);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  ASSERT_TRUE(sweep.Step(session, 9).ok());
  Result<std::string> snapshot = sweep.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  std::string corrupted = *snapshot;
  corrupted[corrupted.size() - 2] ^= 0x11;
  AdaptiveStratifiedSweep target(5, config);
  EXPECT_FALSE(target.Restore(corrupted).ok());
  EXPECT_EQ(target.completed_units(), 0u);
  EXPECT_TRUE(target.Restore(*snapshot).ok());
  EXPECT_EQ(target.completed_units(), 9u);
}

// ---------------------------------------------------------------------------
// Run-level determinism over a real batched-training FedAvg utility.

/// A 5-client FedAvg MLP workload trained through the batched kernel
/// path (the default gradient mode) with the given batch size.
std::unique_ptr<FedAvgUtility> MakeDeterminismGame(int batch_size) {
  Rng rng(2024);
  Result<Dataset> pool = GenerateBlobs(3, 6, 3.0, 5 * 14 + 30, rng);
  FEDSHAP_CHECK(pool.ok());
  std::vector<Dataset> clients;
  for (int c = 0; c < 5; ++c) {
    std::vector<size_t> idx;
    for (size_t i = c * 14; i < static_cast<size_t>(c + 1) * 14; ++i) {
      idx.push_back(i);
    }
    clients.push_back(pool->Subset(idx));
  }
  std::vector<size_t> test_idx;
  for (size_t i = 5 * 14; i < pool->size(); ++i) test_idx.push_back(i);
  Dataset test = pool->Subset(test_idx);

  Mlp prototype(6, 4, 3);
  Rng init(77);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = 2;
  config.local.epochs = 1;
  config.local.batch_size = batch_size;
  config.local.learning_rate = 0.2;
  config.seed = 4321;
  Result<std::unique_ptr<FedAvgUtility>> fn = FedAvgUtility::Create(
      std::move(clients), std::move(test), prototype, config,
      UtilityMetric::kNegativeLoss);
  FEDSHAP_CHECK(fn.ok());
  return std::move(fn).value();
}

/// Runs `sweep` to completion over a cold cache of `fn` on `threads`
/// compute threads (1 = sequential).
ValuationResult RunOnThreads(const UtilityFunction& fn,
                             ResumableEstimator& sweep, int threads) {
  PinnedThreads pinned(threads);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  Result<ValuationResult> result = sweep.Run(session);
  FEDSHAP_CHECK_OK(result.status());
  return std::move(result).value();
}

ValuationResult RunIpss(const UtilityFunction& fn, int threads = 1) {
  IpssConfig config;
  config.total_rounds = 20;
  config.seed = 99;
  IpssSweep sweep(fn.num_clients(), config);
  return RunOnThreads(fn, sweep, threads);
}

TEST(DeterminismTest, SameSeedBitIdenticalAcrossInProcessRuns) {
  std::unique_ptr<FedAvgUtility> fn = MakeDeterminismGame(8);
  ValuationResult first = RunIpss(*fn);
  ValuationResult second = RunIpss(*fn);
  ExpectBitIdentical(first.values, second.values);
  EXPECT_EQ(first.num_trainings, second.num_trainings);
}

TEST(DeterminismTest, SameSeedBitIdenticalAcrossThreadCounts) {
  std::unique_ptr<FedAvgUtility> fn = MakeDeterminismGame(8);
  ValuationResult sequential = RunIpss(*fn, /*threads=*/1);
  ValuationResult wide = RunIpss(*fn, /*threads=*/5);
  ExpectBitIdentical(sequential.values, wide.values);
  EXPECT_EQ(sequential.num_trainings, wide.num_trainings);
}

// The coalition fan-out trains a batch's misses side by side, each nested
// TrainFedAvg fanning its clients out over what the batch left of the
// budget. Neither width may change a value or the training count.
TEST(DeterminismTest, ExactAndPermutationMcBitIdenticalAcrossThreads) {
  std::unique_ptr<FedAvgUtility> fn = MakeDeterminismGame(8);
  ExactSweep exact_sequential(5, SvScheme::kMarginal);
  ExactSweep exact_wide(5, SvScheme::kMarginal);
  ValuationResult sequential = RunOnThreads(*fn, exact_sequential, 1);
  ValuationResult wide = RunOnThreads(*fn, exact_wide, 5);
  ExpectBitIdentical(sequential.values, wide.values);
  EXPECT_EQ(sequential.num_fresh_trainings, 32u);
  EXPECT_EQ(wide.num_fresh_trainings, sequential.num_fresh_trainings);

  PermutationMcConfig config;
  config.permutations = 6;
  config.seed = 5;
  PermutationMcSweep perm_sequential(5, config);
  PermutationMcSweep perm_wide(5, config);
  sequential = RunOnThreads(*fn, perm_sequential, 1);
  wide = RunOnThreads(*fn, perm_wide, 5);
  ExpectBitIdentical(sequential.values, wide.values);
  EXPECT_GT(sequential.num_fresh_trainings, 0u);
  EXPECT_EQ(wide.num_fresh_trainings, sequential.num_fresh_trainings);
  EXPECT_EQ(wide.num_evaluations, sequential.num_evaluations);
}

TEST(DeterminismTest, SameSeedBitIdenticalAcrossStoreWarmResume) {
  std::unique_ptr<FedAvgUtility> fn = MakeDeterminismGame(8);
  const std::string stem = TempPath("determinism_store");
  std::remove(UtilityStore::StemPath(stem, fn->Fingerprint()).c_str());

  ValuationResult cold;
  {
    UtilityCache cache(fn.get());
    Result<std::unique_ptr<UtilityStore>> store =
        OpenAndAttachStore(stem, /*resume=*/false, *fn, cache);
    ASSERT_TRUE(store.ok());
    UtilitySession session(&cache);
    IpssConfig config;
    config.total_rounds = 20;
    config.seed = 99;
    Result<ValuationResult> result = IpssShapley(session, config);
    ASSERT_TRUE(result.ok());
    cold = std::move(result).value();
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    UtilityCache cache(fn.get());
    Result<std::unique_ptr<UtilityStore>> store =
        OpenAndAttachStore(stem, /*resume=*/true, *fn, cache);
    ASSERT_TRUE(store.ok());
    EXPECT_GT((*store)->loaded_entries(), 0u)
        << "warm resume should preload persisted trainings";
    UtilitySession session(&cache);
    IpssConfig config;
    config.total_rounds = 20;
    config.seed = 99;
    Result<ValuationResult> warm = IpssShapley(session, config);
    ASSERT_TRUE(warm.ok());
    ExpectBitIdentical(cold.values, warm->values);
    EXPECT_EQ(cold.num_trainings, warm->num_trainings);
  }
  std::remove(UtilityStore::StemPath(stem, fn->Fingerprint()).c_str());
}

TEST(DeterminismTest, BatchConfigIsPartOfTheWorkloadFingerprint) {
  // Different --batch-size (or gradient mode) means different training
  // numerics, so the content-addressed store must treat them as
  // different workloads.
  std::unique_ptr<FedAvgUtility> batch8 = MakeDeterminismGame(8);
  std::unique_ptr<FedAvgUtility> batch8_again = MakeDeterminismGame(8);
  std::unique_ptr<FedAvgUtility> batch16 = MakeDeterminismGame(16);
  EXPECT_EQ(batch8->Fingerprint(), batch8_again->Fingerprint());
  EXPECT_NE(batch8->Fingerprint(), batch16->Fingerprint());

  // And the two batch sizes genuinely are different workloads.
  ValuationResult v8 = RunIpss(*batch8);
  ValuationResult v16 = RunIpss(*batch16);
  bool any_different = false;
  for (size_t i = 0; i < v8.values.size(); ++i) {
    if (v8.values[i] != v16.values[i]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(SweepLifecycleTest, FinishBeforeDoneFails) {
  TableUtility fn = MonotoneTable(5);
  IpssConfig config;
  config.total_rounds = 12;
  IpssSweep sweep(5, config);
  UtilityCache cache(&fn);
  UtilitySession session(&cache);
  ASSERT_TRUE(sweep.Step(session, 2).ok());
  EXPECT_EQ(sweep.Finish(session).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace fedshap
