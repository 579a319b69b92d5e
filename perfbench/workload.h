#ifndef FEDSHAP_PERFBENCH_WORKLOAD_H_
#define FEDSHAP_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/valuation_result.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "service/job_spec.h"
#include "trace.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Correctness and failure accounting of one run, plus the per-layer
/// values a traced run fills in.
class Report {
 public:
  /// Records a correctness check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Counts one attempted operation (a job, a replayed training or RPC).
  void Attempt(bool ok);
  /// Prints an informational line ("# ...") on stdout.
  void Info(const std::string& line) const;
  /// Sets a per-layer metric value (names as in BENCHMARK.json).
  void Layer(const std::string& name, double value) { layers_[name] = value; }

  bool correct() const { return correct_; }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::map<std::string, double>& layers() const { return layers_; }

 private:
  bool correct_ = true;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::map<std::string, double> layers_;
};

/// What one pass of a workload measured: set-up, the cold pass, the jobs
/// run one at a time, and the outputs the checks compare.
struct PassOutcome {
  double setup_s = 0.0;
  /// First submit to last values of the cold pass.
  double wall_s = 0.0;
  /// Submit-to-values time of each job run one at a time.
  std::vector<double> job_seconds;
  size_t fresh_trainings = 0;
  double rel_error = 0.0;
  /// Cold-pass values in job order (bit-compared across passes).
  std::vector<std::vector<double>> values;
};

/// One benchmark workload. A pass is self-contained: it sets up from
/// scratch, so every pass starts with cold caches and empty state.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up and tear-down without jobs; returns the set-up seconds.
  virtual double SetupOnly(Report& report) = 0;
  /// Runs one pass. With `traced`, the pass records spans and fills the
  /// per-layer values its own run determines.
  virtual PassOutcome RunPass(Report& report, bool traced) = 0;
  /// Traced runs only: replays that feed the remaining per-layer values.
  virtual void Replay(Report& report, const PassOutcome& traced) = 0;
};

std::unique_ptr<Workload> MakeFemnistMlp(const Options& options);
std::unique_ptr<Workload> MakeDigitsCluster(const Options& options);

// ---------------------------------------------------------------------------
// Shared helpers (probes.cc).

/// Trainings the plan implies: per workload key, the number of distinct
/// coalitions all its jobs' sweeps evaluate (from PeekNext on fresh
/// sweeps), summed over workloads. `isolated` counts every job as its own
/// workload (jobs with private cold caches).
size_t PlannedTrainings(const std::vector<fedshap::JobSpec>& jobs, int n,
                        bool isolated);

/// U(N) and U(empty) of a workload, for the efficiency check.
struct Bounds {
  double grand = 0.0;
  double empty = 0.0;
};

/// Checks every exact-MC job against the efficiency axiom,
/// sum(phi) = U(N) - U(empty), and returns rel_error: the median over the
/// IPSS jobs of ||phi_hat - phi||_2 / ||phi||_2, phi being the exact job of
/// the same scenario. Checks rel_error is positive and below `ceiling`.
double CheckMix(const std::vector<fedshap::JobSpec>& jobs,
                const std::vector<fedshap::ValuationResult>& results,
                const std::map<std::string, Bounds>& bounds, double ceiling,
                Report& report);

/// Runs one job through the library path (MakeSweep + Run) over `cache`
/// inside a "core.job" span tagged `job_id`. A failed job counts as failed
/// and returns an empty result.
fedshap::ValuationResult RunJob(const fedshap::JobSpec& job, int n,
                                fedshap::UtilityCache& cache, int64_t job_id,
                                Report& report);

/// Per-layer replays of the ml and fl layers on a FedAvg workload:
/// ml.local_update_p50_ms, ml.score_p50_ms, ml.gemm_gflops and
/// fl.aggregate_p50_ms on a fixed coalition sample drawn from `seed`.
void ProbeFedAvgLayers(const fedshap::FedAvgUtility& utility, uint64_t seed,
                       Report& report);

/// core.sweep_s: jobs[i] replayed one at a time over caches[i], which
/// already hold every utility (median of 5 replays). With `snapshots`,
/// also core.snapshot_bytes: summed Snapshot() sizes at each job's
/// checkpoint cadence.
void ProbeSweeps(const std::vector<fedshap::JobSpec>& jobs,
                 const std::vector<fedshap::UtilityCache*>& caches,
                 int n, bool snapshots, Report& report);

/// Layer values derived from job results: core.evaluations,
/// core.distinct, fl.cache_hit_ratio and fl.dedup_factor.
void ReportJobCounts(const std::vector<fedshap::ValuationResult>& results,
                     size_t fresh_trainings, Report& report);

/// fl.train_p50_ms, fl.train_p99_ms, fl.train_share (summed "fl.train"
/// span time over `wall_s` x `lanes`) and core.plan_s (self time of the
/// "core.job" spans) from the recorded spans.
void ReportTrainSpans(double wall_s, int lanes, Report& report);

}  // namespace perfbench

#endif  // FEDSHAP_PERFBENCH_WORKLOAD_H_
