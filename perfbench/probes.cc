// Helpers shared by the workloads: plan-implied training counts, result
// checks, the in-process job runner and the per-layer replays of the ml,
// fl and core layers.

#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "core/resumable.h"
#include "fl/server.h"
#include "ml/matrix.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "workload.h"

namespace perfbench {

using fedshap::Coalition;
using fedshap::CoalitionHash;
using fedshap::EstimatorKind;
using fedshap::JobSpec;
using fedshap::ResumableEstimator;
using fedshap::Result;
using fedshap::Status;
using fedshap::Stopwatch;
using fedshap::UtilityCache;
using fedshap::UtilitySession;
using fedshap::ValuationResult;

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::printf("# check failed: %s\n", what.c_str());
}

void Report::Attempt(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::Info(const std::string& line) const {
  std::printf("# %s\n", line.c_str());
}

size_t PlannedTrainings(const std::vector<JobSpec>& jobs, int n,
                        bool isolated) {
  std::unordered_map<std::string,
                     std::unordered_set<Coalition, CoalitionHash>>
      per_workload;
  for (const JobSpec& spec : jobs) {
    Result<std::unique_ptr<ResumableEstimator>> sweep =
        fedshap::MakeSweep(spec, n);
    if (!sweep.ok()) return 0;
    const std::string key =
        isolated ? spec.name : spec.scenario.CanonicalKey();
    for (const Coalition& c : (*sweep)->PeekNext((*sweep)->total_units())) {
      per_workload[key].insert(c);
    }
  }
  size_t total = 0;
  for (const auto& [key, coalitions] : per_workload) total += coalitions.size();
  return total;
}

namespace {

double RelativeError(const std::vector<double>& estimate,
                     const std::vector<double>& exact) {
  if (estimate.size() != exact.size()) return INFINITY;
  double diff = 0.0;
  double norm = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    diff += (estimate[i] - exact[i]) * (estimate[i] - exact[i]);
    norm += exact[i] * exact[i];
  }
  return norm > 0.0 ? std::sqrt(diff / norm) : INFINITY;
}

}  // namespace

double CheckMix(const std::vector<JobSpec>& jobs,
                const std::vector<ValuationResult>& results,
                const std::map<std::string, Bounds>& bounds, double ceiling,
                Report& report) {
  std::map<std::string, const std::vector<double>*> exact;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].estimator != EstimatorKind::kExactMc) continue;
    const std::string key = jobs[i].scenario.CanonicalKey();
    exact[key] = &results[i].values;
    const auto bound = bounds.find(key);
    report.Check(bound != bounds.end(), "no bounds for " + key);
    if (bound == bounds.end()) continue;
    double sum = 0.0;
    for (double v : results[i].values) sum += v;
    const double expected = bound->second.grand - bound->second.empty;
    report.Check(
        std::abs(sum - expected) <= 1e-9 * std::max(1.0, std::abs(expected)),
        "efficiency of " + jobs[i].name + ": sum(phi)=" +
            std::to_string(sum) + " vs U(N)-U(0)=" + std::to_string(expected));
  }
  std::vector<double> errors;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].estimator != EstimatorKind::kIpss) continue;
    const auto reference = exact.find(jobs[i].scenario.CanonicalKey());
    report.Check(reference != exact.end(), "no exact job for " + jobs[i].name);
    if (reference == exact.end()) continue;
    errors.push_back(RelativeError(results[i].values, *reference->second));
  }
  const double median = Median(errors);
  report.Check(median > 0.0 && median < ceiling,
               "rel_error " + std::to_string(median) + " outside (0, " +
                   std::to_string(ceiling) + ")");
  return median;
}

ValuationResult RunJob(const JobSpec& job, int n, UtilityCache& cache,
                       int64_t job_id, Report& report) {
  Tracer::JobScope job_scope(job_id);
  Result<ValuationResult> result = Status::Internal("not run");
  {
    Tracer::Scope span("core.job");
    UtilitySession session(&cache);
    Result<std::unique_ptr<ResumableEstimator>> sweep =
        fedshap::MakeSweep(job, n);
    result = sweep.ok() ? (*sweep)->Run(session)
                        : Result<ValuationResult>(sweep.status());
  }
  report.Attempt(result.ok());
  report.Check(result.ok(), "job " + job.name + " failed: " +
                                (result.ok() ? std::string()
                                             : result.status().ToString()));
  return result.ok() ? std::move(result).value() : ValuationResult();
}

namespace {

/// The matrix shapes of one forward pass of the prototype, layer by layer:
/// (k, n) with batch rows m supplied by the caller. Logistic regression
/// is one affine layer; the MLP is two (hidden width recovered from the
/// parameter count: P = (d + 1) h + (h + 1) c).
std::vector<std::pair<size_t, size_t>> LayerShapes(
    const fedshap::FedAvgUtility& utility) {
  const size_t d = static_cast<size_t>(utility.test_data().num_features());
  const size_t c = static_cast<size_t>(utility.prototype().NumOutputs());
  const size_t p = utility.prototype().NumParameters();
  if (p == (d + 1) * c) return {{d, c}};
  const size_t h = (p - c) / (d + 1 + c);
  return {{d, h}, {h, c}};
}

}  // namespace

void ProbeFedAvgLayers(const fedshap::FedAvgUtility& utility, uint64_t seed,
                       Report& report) {
  const int n = utility.num_clients();
  const fedshap::FedAvgConfig& config = utility.config();
  const std::vector<float> global = utility.prototype().GetParameters();
  std::unique_ptr<fedshap::Model> scratch = utility.prototype().Clone();

  // A fixed sample of coalitions: every client's first-round local update
  // and the aggregation FedAvg runs over them.
  fedshap::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  std::vector<double> update_ms;
  std::vector<double> aggregate_ms;
  constexpr int kCoalitions = 12;
  for (int s = 0; s < kCoalitions; ++s) {
    std::vector<int> members =
        rng.SampleWithoutReplacement(n, 2 + static_cast<int>(rng.UniformInt(
                                                static_cast<uint64_t>(n - 1))));
    std::vector<std::vector<float>> params;
    std::vector<double> weights;
    for (int client : members) {
      const fedshap::FlClient& fl_client = utility.client(client);
      if (fl_client.num_samples() == 0) continue;
      fedshap::Rng local_rng(seed + 97 * static_cast<uint64_t>(client) +
                             static_cast<uint64_t>(s));
      Stopwatch timer;
      Result<std::vector<float>> updated = Status::Internal("not run");
      {
        Tracer::Scope span("ml.local_update");
        updated = fl_client.LocalUpdate(global, *scratch, config.local,
                                        local_rng);
      }
      update_ms.push_back(timer.ElapsedSeconds() * 1e3);
      report.Attempt(updated.ok());
      if (!updated.ok()) continue;
      params.push_back(std::move(updated).value());
      weights.push_back(static_cast<double>(fl_client.num_samples()));
    }
    if (params.empty()) continue;
    Stopwatch timer;
    Result<std::vector<float>> aggregated = Status::Internal("not run");
    {
      Tracer::Scope span("fl.aggregate");
      aggregated = fedshap::FedAvgAggregate(params, weights);
    }
    aggregate_ms.push_back(timer.ElapsedSeconds() * 1e3);
    report.Attempt(aggregated.ok());
  }
  report.Layer("ml.local_update_p50_ms", Median(update_ms));
  report.Layer("fl.aggregate_p50_ms", Median(aggregate_ms));

  std::vector<double> score_ms;
  for (int r = 0; r < 16; ++r) {
    Stopwatch timer;
    Result<double> score = Status::Internal("not run");
    {
      Tracer::Scope span("ml.score");
      score = utility.EvaluateParameters(global);
    }
    score_ms.push_back(timer.ElapsedSeconds() * 1e3);
    report.Attempt(score.ok());
  }
  report.Layer("ml.score_p50_ms", Median(score_ms));

  // MatMul at the model's layer shapes with the local minibatch as rows.
  const size_t m = static_cast<size_t>(config.local.batch_size);
  double flops_per_pass = 0.0;
  std::vector<std::vector<float>> a_buffers, b_buffers, c_buffers;
  const auto shapes = LayerShapes(utility);
  for (const auto& [k, cols] : shapes) {
    a_buffers.emplace_back(m * k);
    b_buffers.emplace_back(k * cols);
    c_buffers.emplace_back(m * cols);
    for (float& x : a_buffers.back()) x = static_cast<float>(rng.Uniform());
    for (float& x : b_buffers.back()) x = static_cast<float>(rng.Uniform());
    flops_per_pass += 2.0 * static_cast<double>(m * k * cols);
  }
  std::vector<double> gflops;
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int kIterations = 2000;
    Stopwatch timer;
    {
      Tracer::Scope span("ml.gemm");
      for (int it = 0; it < kIterations; ++it) {
        for (size_t l = 0; l < shapes.size(); ++l) {
          fedshap::MatMul(a_buffers[l].data(), m, shapes[l].first,
                          b_buffers[l].data(), shapes[l].second,
                          c_buffers[l].data());
        }
      }
    }
    gflops.push_back(flops_per_pass * kIterations / timer.ElapsedSeconds() /
                     1e9);
  }
  report.Layer("ml.gemm_gflops", Median(gflops));
}

void ProbeSweeps(const std::vector<JobSpec>& jobs,
                 const std::vector<UtilityCache*>& caches, int n,
                 bool snapshots, Report& report) {
  std::vector<double> walls;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch timer;
    for (size_t i = 0; i < jobs.size(); ++i) {
      Tracer::Scope span("core.sweep");
      UtilitySession session(caches[i]);
      Result<std::unique_ptr<ResumableEstimator>> sweep =
          fedshap::MakeSweep(jobs[i], n);
      const bool ok = sweep.ok() && (*sweep)->Run(session).ok();
      report.Attempt(ok);
      report.Check(session.num_fresh_trainings() == 0,
                   "sweep replay of " + jobs[i].name + " trained");
    }
    walls.push_back(timer.ElapsedSeconds());
  }
  report.Layer("core.sweep_s", Median(walls));

  if (!snapshots) return;
  double bytes = 0.0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    UtilitySession session(caches[i]);
    Result<std::unique_ptr<ResumableEstimator>> sweep =
        fedshap::MakeSweep(jobs[i], n);
    if (!sweep.ok()) continue;
    while (!(*sweep)->done()) {
      if (!(*sweep)->Step(session, jobs[i].checkpoint_every).ok()) break;
      Result<std::string> snapshot = (*sweep)->Snapshot();
      if (snapshot.ok()) bytes += static_cast<double>(snapshot->size());
    }
  }
  report.Layer("core.snapshot_bytes", bytes);
}

void ReportJobCounts(const std::vector<ValuationResult>& results,
                     size_t fresh_trainings, Report& report) {
  double evaluations = 0.0;
  double distinct = 0.0;
  for (const ValuationResult& result : results) {
    evaluations += static_cast<double>(result.num_evaluations);
    distinct += static_cast<double>(result.num_trainings);
  }
  const double fresh = static_cast<double>(fresh_trainings);
  report.Layer("core.evaluations", evaluations);
  report.Layer("core.distinct", distinct);
  report.Layer("fl.cache_hit_ratio",
               evaluations > 0.0 ? 1.0 - fresh / evaluations : 0.0);
  report.Layer("fl.dedup_factor", fresh > 0.0 ? distinct / fresh : 0.0);
}

void ReportTrainSpans(double wall_s, int lanes, Report& report) {
  const std::vector<Span> spans = Tracer::Get().spans();
  const std::vector<double> trainings = SpanDurations(spans, "fl.train");
  double total = 0.0;
  for (double d : trainings) total += d;
  report.Layer("fl.train_p50_ms", Quantile(trainings, 0.5) * 1e3);
  report.Layer("fl.train_p99_ms", Quantile(trainings, 0.99) * 1e3);
  report.Layer("fl.train_share", total / (wall_s * lanes));
  report.Layer("core.plan_s", SpanSelfSeconds(spans, "core.job"));
}

}  // namespace perfbench
