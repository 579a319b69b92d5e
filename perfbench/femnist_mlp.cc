// femnist-mlp: the library path (core sweeps -> UtilitySession ->
// UtilityCache -> FedAvgUtility) on the FEMNIST-like n=10 MLP scenario.
// One exact-MC reference job, then IPSS at gamma=32 over 24 seeds plus
// stratified and permutation-MC jobs at the same budget, one at a time,
// each over its own cold cache. Local SGD and scoring are nearly all of
// the time, as in the paper's cost model; no service, cluster or store
// is involved.

#include "bench/common.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

using fedshap::EstimatorKind;
using fedshap::JobSpec;
using fedshap::Stopwatch;
using fedshap::UtilityCache;
using fedshap::ValuationResult;

constexpr int kClients = 10;
constexpr int kGamma = 32;
constexpr int kIpssJobs = 24;
constexpr int kOtherJobs = 3;  // each of stratified and perm-MC
constexpr double kRelErrorCeiling = 0.1;
// The federation is fixed; --seed picks the estimators' sampling seeds.
constexpr uint64_t kScenarioSeed = 2025;
// Per-layer metrics of layers this workload never calls; they read 0.
constexpr const char* kOffPath[] = {
    "core.snapshot_bytes",     "service.submit_p50_ms",
    "service.slices",          "service.warm_pass_s",
    "cluster.start_s",         "cluster.rpc_p50_ms",
    "cluster.rpc_p99_ms",      "cluster.rpc_overhead_ms",
    "cluster.useful_ratio",    "cluster.retried_tasks",
    "cluster.workers_lost",    "cluster.worker_fresh_trainings",
    "cluster.worker_peak_rss_mb",
};

class FemnistMlp : public Workload {
 public:
  explicit FemnistMlp(const Options& options)
      : options_(options) {
    auto add = [&](const std::string& name, EstimatorKind estimator,
                   uint64_t seed) {
      JobSpec spec;
      spec.name = name;
      spec.estimator = estimator;
      spec.gamma = kGamma;
      spec.seed = seed;
      jobs_.push_back(spec);
    };
    add("exact", EstimatorKind::kExactMc, 1);
    const uint64_t base = options.seed * 1000;
    for (int j = 0; j < kIpssJobs; ++j) {
      add("ipss-" + std::to_string(j), EstimatorKind::kIpss, base + j);
    }
    for (int j = 0; j < kOtherJobs; ++j) {
      add("stratified-" + std::to_string(j), EstimatorKind::kStratified,
          base + 100 + j);
      add("perm-" + std::to_string(j), EstimatorKind::kPermMc,
          base + 200 + j);
    }
    planned_ = PlannedTrainings(jobs_, kClients, /*isolated=*/true);
  }

  double SetupOnly(Report&) override {
    Stopwatch timer;
    Setup();
    return timer.ElapsedSeconds();
  }

  PassOutcome RunPass(Report& report, bool traced) override {
    PassOutcome out;
    Stopwatch setup_timer;
    Setup();
    out.setup_s = setup_timer.ElapsedSeconds();

    traced_ = std::make_unique<TracedUtility>(scenario_.utility.get());
    const fedshap::UtilityFunction* utility =
        traced ? traced_.get() : scenario_.utility.get();
    caches_.clear();
    std::vector<ValuationResult> results;

    Tracer::Get().set_enabled(traced);
    const double cpu_before = ProcessCpuSeconds();
    Stopwatch wall;
    for (size_t i = 0; i < jobs_.size(); ++i) {
      caches_.push_back(std::make_unique<UtilityCache>(utility));
      Stopwatch job_timer;
      results.push_back(RunJob(jobs_[i], kClients, *caches_.back(),
                               static_cast<int64_t>(i), report));
      out.job_seconds.push_back(job_timer.ElapsedSeconds());
    }
    out.wall_s = wall.ElapsedSeconds();
    const double cpu_seconds = ProcessCpuSeconds() - cpu_before;
    Tracer::Get().set_enabled(false);

    for (const ValuationResult& result : results) {
      out.fresh_trainings += result.num_fresh_trainings;
      out.values.push_back(result.values);
    }
    report.Check(out.fresh_trainings == planned_,
                 "fresh trainings " + std::to_string(out.fresh_trainings) +
                     " != planned " + std::to_string(planned_));
    // The exact job's cache holds every coalition: bounds are free hits.
    UtilityCache& full = *caches_.front();
    const auto grand = full.Get(fedshap::Coalition::Full(kClients));
    const auto empty = full.Get(fedshap::Coalition());
    report.Check(grand.ok() && empty.ok(), "bounds lookup");
    // The library path ignores JobSpec::scenario: every job carries the
    // default one, so they all group under one key.
    std::map<std::string, Bounds> bounds;
    if (grand.ok() && empty.ok()) {
      bounds[jobs_.front().scenario.CanonicalKey()] =
          Bounds{grand->utility, empty->utility};
    }
    out.rel_error = CheckMix(jobs_, results, bounds, kRelErrorCeiling, report);

    if (traced) {
      report.Layer("data.build_s", build_s_);
      report.Layer("util.cpu_util", cpu_seconds / out.wall_s);
      ReportJobCounts(results, out.fresh_trainings, report);
      ReportTrainSpans(out.wall_s, /*lanes=*/1, report);
    }
    return out;
  }

  void Replay(Report& report, const PassOutcome&) override {
    std::vector<UtilityCache*> warm(jobs_.size(), caches_.front().get());
    ProbeSweeps(jobs_, warm, kClients, /*snapshots=*/false, report);
    ProbeFedAvgLayers(*scenario_.fedavg, options_.seed, report);
    for (const char* name : kOffPath) report.Layer(name, 0.0);
  }

 private:
  /// Data build, workload build and the lazily created training pool.
  void Setup() {
    fedshap::bench::BenchOptions bench_options;
    bench_options.seed = kScenarioSeed;
    caches_.clear();
    traced_.reset();
    Stopwatch timer;
    {
      Tracer::Scope span("data.build");
      scenario_ = fedshap::bench::MakeFemnistScenario(
          kClients, fedshap::bench::ModelKind::kMlp, bench_options);
    }
    build_s_ = timer.ElapsedSeconds();
    fedshap::SharedTrainingPool();
  }

  const Options options_;
  std::vector<JobSpec> jobs_;
  size_t planned_ = 0;
  fedshap::bench::Scenario scenario_;
  std::unique_ptr<TracedUtility> traced_;
  std::vector<std::unique_ptr<UtilityCache>> caches_;
  double build_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeFemnistMlp(const Options& options) {
  return std::make_unique<FemnistMlp>(options);
}

}  // namespace perfbench
