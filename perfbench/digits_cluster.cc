// digits-cluster: a ValuationService coordinator with 2 service workers
// over a LocalCluster of 2 fork()ed workers on loopback TCP. The mix is
// 2 tenants x {exact-mc, ipss, stratified, perm-mc} on digits with n=12
// and gamma=256, submitted at once. Trainings are sub-millisecond
// logistic regressions, so dispatch, framing, TCP and single-flight dedup
// carry the blocking path. Then sampling jobs run one at a time, each on
// a new coordinator over the warm cluster: RPCs the workers serve from
// their caches.

#include <map>
#include <unordered_set>

#include "fl/fedavg.h"
#include "service/cluster.h"
#include "service/cluster_worker.h"
#include "service/valuation_service.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "workload.h"

namespace perfbench {
namespace {

using fedshap::ClusterDispatcher;
using fedshap::Coalition;
using fedshap::EstimatorKind;
using fedshap::JobSpec;
using fedshap::LocalCluster;
using fedshap::Result;
using fedshap::ScenarioSpec;
using fedshap::ServiceConfig;
using fedshap::Status;
using fedshap::Stopwatch;
using fedshap::UtilityCache;
using fedshap::ValuationResult;
using fedshap::ValuationService;

constexpr int kClients = 12;
constexpr int kClusterWorkers = 2;
constexpr int kServiceWorkers = 2;
// Sampling budget of every job: large enough that a warm sampling job's
// time is mostly its RPCs, not the coordinator's workload build.
constexpr int kGamma = 256;
constexpr double kRelErrorCeiling = 0.2;
// Rounds of warm sampling jobs per pass, each about 0.1 s: job_p50_s is
// the median of 6 x kWarmRounds jobs per pass.
constexpr int kWarmRounds = 8;
constexpr int kRpcWarmup = 8;
constexpr int kRpcSamples = 48;

/// The mix: 2 tenants (scenario seeds `base.seed` and `base.seed + 1`) x
/// {exact-mc, ipss, stratified, perm-mc}, sampling seed `job_seed`, budget
/// kGamma, default job keys otherwise. Names are
/// "<prefix>t<tenant>-<estimator>".
std::vector<JobSpec> ServiceJobMix(const ScenarioSpec& base,
                                   uint64_t job_seed,
                                   const std::string& prefix) {
  const struct {
    const char* name;
    EstimatorKind estimator;
  } kMix[] = {
      {"exact", EstimatorKind::kExactMc},
      {"ipss", EstimatorKind::kIpss},
      {"stratified", EstimatorKind::kStratified},
      {"perm", EstimatorKind::kPermMc},
  };
  std::vector<JobSpec> jobs;
  for (int tenant = 0; tenant < 2; ++tenant) {
    for (const auto& entry : kMix) {
      JobSpec spec;
      spec.name = prefix + "t" + std::to_string(tenant) + "-" + entry.name;
      spec.estimator = entry.estimator;
      spec.seed = job_seed;
      spec.gamma = kGamma;
      spec.scenario = base;
      spec.scenario.seed = base.seed + static_cast<uint64_t>(tenant);
      jobs.push_back(spec);
    }
  }
  return jobs;
}


/// U(N) and U(empty) of every scenario in `jobs`, keyed by
/// ScenarioSpec::CanonicalKey, from locally built utilities.
std::map<std::string, Bounds> ScenarioBounds(const std::vector<JobSpec>& jobs,
                                             Report& report) {
  std::map<std::string, Bounds> bounds;
  for (const JobSpec& spec : jobs) {
    const std::string key = spec.scenario.CanonicalKey();
    if (bounds.count(key) != 0) continue;
    Result<std::unique_ptr<fedshap::UtilityFunction>> utility =
        spec.scenario.Build();
    report.Check(utility.ok(), "scenario build: " + key);
    if (!utility.ok()) continue;
    Result<double> grand =
        (*utility)->Evaluate(Coalition::Full(spec.scenario.n));
    Result<double> empty = (*utility)->Evaluate(Coalition());
    report.Check(grand.ok() && empty.ok(), "bounds of " + key);
    if (grand.ok() && empty.ok()) bounds[key] = Bounds{*grand, *empty};
  }
  return bounds;
}


/// The coordinator service's configuration over `dispatcher`.
ServiceConfig ServiceConfigFor(ClusterDispatcher* dispatcher) {
  ServiceConfig config;
  config.workers = kServiceWorkers;
  config.cluster = dispatcher;
  return config;
}

/// A job mix submitted to a service all at once (the cold pass).
struct ServiceMixRun {
  std::vector<ValuationResult> results;
  double wall_s = 0.0;  ///< First submit to last values.
  std::vector<double> submit_ms;
  double cpu_s = 0.0;   ///< Process CPU seconds over the pass.
};

/// Submits every job at once, waits for all, and checks each is done.
/// Submit calls are "service.submit" spans, the wait a "service.wait" span.
ServiceMixRun RunServiceMix(ValuationService& service,
                            const std::vector<JobSpec>& jobs,
                            Report& report) {
  ServiceMixRun run;
  const double cpu_before = ProcessCpuSeconds();
  Stopwatch wall;
  for (const JobSpec& spec : jobs) {
    Stopwatch timer;
    Status submitted = Status::OK();
    {
      Tracer::Scope span("service.submit");
      submitted = service.Submit(spec);
    }
    run.submit_ms.push_back(timer.ElapsedSeconds() * 1e3);
    report.Check(submitted.ok(), "submit " + spec.name + ": " +
                                     submitted.ToString());
  }
  {
    Tracer::Scope span("service.wait");
    service.WaitAll();
  }
  run.wall_s = wall.ElapsedSeconds();
  run.cpu_s = ProcessCpuSeconds() - cpu_before;
  for (const JobSpec& spec : jobs) {
    Result<fedshap::JobStatus> status = service.GetStatus(spec.name);
    const bool done =
        status.ok() && status->state == fedshap::JobState::kDone;
    report.Attempt(done);
    report.Check(done, "job " + spec.name + " did not finish");
    run.results.push_back(done ? status->result : ValuationResult());
  }
  return run;
}

/// One warm round: every sampling job of `jobs` (the cold mix under new
/// names) run alone on a new coordinator service over the warm cluster.
/// Each job starts from a cold coordinator cache, so every coalition it
/// evaluates is one RPC that a worker serves from its cache: the job's
/// time is submit, workload build, slices and RPCs. Exact jobs are left
/// out: at 4096 RPCs each they would take most of the round and never be
/// the median. Checks each job returns values bit-identical to `cold` and
/// appends its submit-to-values seconds to `job_seconds`.
void RunServiceWarm(ClusterDispatcher* dispatcher,
                    const std::vector<JobSpec>& jobs,
                    const std::vector<ValuationResult>& cold, Report& report,
                    std::vector<double>* job_seconds) {
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].estimator == EstimatorKind::kExactMc) continue;
    ValuationService service(ServiceConfigFor(dispatcher));
    Stopwatch timer;
    const Status submitted = service.Submit(jobs[i]);
    Result<ValuationResult> result =
        submitted.ok() ? service.Wait(jobs[i].name)
                       : Result<ValuationResult>(submitted);
    job_seconds->push_back(timer.ElapsedSeconds());
    report.Attempt(result.ok());
    report.Check(result.ok() && result->values == cold[i].values,
                 "warm job " + jobs[i].name + " failed or changed values");
    service.Stop();
  }
}

/// The per-layer values of the cold pass: util.cpu_util,
/// service.submit_p50_ms and service.slices.
void ReportServicePass(const ServiceMixRun& run,
                       const fedshap::ServiceStats& stats, Report& report) {
  report.Layer("util.cpu_util", run.cpu_s / run.wall_s);
  report.Layer("service.submit_p50_ms", Median(run.submit_ms));
  report.Layer("service.slices", static_cast<double>(stats.slices_executed));
}


/// Traced runs: the mix run one job at a time in process, per scenario
/// over a TracedUtility and one cold in-memory cache. Checks the values are
/// bit-identical to `service_values` and reports data.build_s, the
/// ReportTrainSpans values against the service's `wall_s`, the ProbeSweeps
/// values and the ml/fl replays.
void ReplayServiceMix(const std::vector<JobSpec>& jobs, int n,
                      const std::vector<std::vector<double>>& service_values,
                      double wall_s, int lanes, uint64_t seed,
                      Report& report) {
  // One locally built utility, traced view and cold cache per scenario.
  struct Tenant {
    std::unique_ptr<fedshap::UtilityFunction> utility;
    std::unique_ptr<TracedUtility> traced;
    std::unique_ptr<UtilityCache> cache;
  };
  std::map<std::string, Tenant> tenants;
  std::vector<UtilityCache*> caches;
  std::vector<double> build_s;
  for (size_t i = 0; i < jobs.size(); ++i) {
    Tenant& tenant = tenants[jobs[i].scenario.CanonicalKey()];
    if (tenant.cache == nullptr) {
      Stopwatch timer;
      Result<std::unique_ptr<fedshap::UtilityFunction>> built =
          Status::Internal("not built");
      {
        Tracer::Scope span("data.build");
        built = jobs[i].scenario.Build();
      }
      build_s.push_back(timer.ElapsedSeconds());
      report.Check(built.ok(), "scenario build for replay");
      if (!built.ok()) return;
      tenant.utility = std::move(built).value();
      tenant.traced = std::make_unique<TracedUtility>(tenant.utility.get());
      tenant.cache = std::make_unique<UtilityCache>(tenant.traced.get());
    }
    caches.push_back(tenant.cache.get());
    const ValuationResult result =
        RunJob(jobs[i], n, *tenant.cache, static_cast<int64_t>(i), report);
    report.Check(i < service_values.size() &&
                     result.values == service_values[i],
                 "in-process values of " + jobs[i].name +
                     " differ from the service's");
  }
  report.Layer("data.build_s", Median(build_s));
  ReportTrainSpans(wall_s, lanes, report);
  ProbeSweeps(jobs, caches, n, /*snapshots=*/true, report);
  const auto* fedavg = dynamic_cast<const fedshap::FedAvgUtility*>(
      tenants.begin()->second.utility.get());
  if (fedavg != nullptr) ProbeFedAvgLayers(*fedavg, seed, report);
}

/// The cluster and the coordinator service over it.
struct Stack {
  std::unique_ptr<LocalCluster> cluster;
  std::unique_ptr<ValuationService> service;

  Stack() = default;
  Stack(Stack&&) = default;
  Stack& operator=(Stack&&) = delete;
  ~Stack() {
    if (service != nullptr) service->Stop();
    service.reset();  // joins its workers before the cluster goes away
    if (cluster != nullptr) cluster->Shutdown();
  }
};

class DigitsCluster : public Workload {
 public:
  explicit DigitsCluster(const Options& options) : options_(options) {
    // One training thread per process. This also keeps the shared
    // training pool from ever starting here: a worker forked after its
    // threads exist would inherit the pool without them and hang on its
    // first fanned-out FedAvg round.
    fedshap::SetFedAvgClientParallelism(1);
    base_.kind = "digits";
    base_.n = kClients;
    base_.seed = 2025;
    jobs_ = ServiceJobMix(base_, options.seed, "c-");
    planned_ = PlannedTrainings(jobs_, kClients, /*isolated=*/false);
  }

  double SetupOnly(Report& report) override {
    Stopwatch timer;
    Stack stack = Setup(report);
    return timer.ElapsedSeconds();
  }

  PassOutcome RunPass(Report& report, bool traced) override {
    PassOutcome out;
    Stopwatch setup_timer;
    Stack stack = Setup(report);
    out.setup_s = setup_timer.ElapsedSeconds();
    if (stack.service == nullptr) return out;
    ClusterDispatcher* dispatcher = stack.cluster->dispatcher();

    Tracer::Get().set_enabled(traced);
    const ServiceMixRun cold = RunServiceMix(*stack.service, jobs_, report);
    Tracer::Get().set_enabled(false);
    out.wall_s = cold.wall_s;
    for (const auto& result : cold.results) {
      out.fresh_trainings += result.num_fresh_trainings;
      out.values.push_back(result.values);
    }
    const fedshap::ClusterStats cluster_stats = dispatcher->stats();
    const fedshap::ServiceStats service_stats = stack.service->stats();
    report.Check(out.fresh_trainings == planned_,
                 "fresh trainings " + std::to_string(out.fresh_trainings) +
                     " != planned " + std::to_string(planned_));
    report.Check(cluster_stats.worker_fresh_trainings == out.fresh_trainings,
                 "worker fresh trainings " +
                     std::to_string(cluster_stats.worker_fresh_trainings) +
                     " != coordinator " +
                     std::to_string(out.fresh_trainings));
    if (bounds_.empty()) bounds_ = ScenarioBounds(jobs_, report);
    out.rel_error =
        CheckMix(jobs_, cold.results, bounds_, kRelErrorCeiling, report);

    // Coordinator restarts over the warm cluster: each sampling job alone
    // on a new service, trained by nobody, in kWarmRounds rounds.
    stack.service->Stop();
    stack.service.reset();
    const std::vector<JobSpec> warm_jobs =
        ServiceJobMix(base_, options_.seed, "w");
    std::vector<double> warm_rounds_s;
    for (int round = 0; round < kWarmRounds; ++round) {
      Stopwatch warm;
      RunServiceWarm(dispatcher, warm_jobs, cold.results, report,
                     &out.job_seconds);
      warm_rounds_s.push_back(warm.ElapsedSeconds());
    }
    const size_t worker_fresh = dispatcher->stats().worker_fresh_trainings;
    report.Check(worker_fresh == cluster_stats.worker_fresh_trainings,
                 "warm pass trained " +
                     std::to_string(worker_fresh -
                                    cluster_stats.worker_fresh_trainings) +
                     " coalitions on the workers");

    if (traced) {
      report.Layer("cluster.start_s", cluster_start_s_);
      report.Layer("service.warm_pass_s", Median(warm_rounds_s));
      ReportServicePass(cold, service_stats, report);
      ReportJobCounts(cold.results, out.fresh_trainings, report);
      report.Layer("cluster.useful_ratio",
                   cluster_stats.tasks_dispatched == 0
                       ? 0.0
                       : static_cast<double>(cluster_stats.results_applied) /
                             static_cast<double>(cluster_stats.tasks_dispatched));
      report.Layer("cluster.retried_tasks",
                   static_cast<double>(cluster_stats.retried_tasks));
      report.Layer("cluster.workers_lost",
                   static_cast<double>(cluster_stats.workers_lost));
      report.Layer("cluster.worker_fresh_trainings",
                   static_cast<double>(cluster_stats.worker_fresh_trainings));
      ProbeRpc(dispatcher, report);
    }
    return out;
  }

  void Replay(Report& report, const PassOutcome& traced) override {
    // Forked workers are reaped by now: their peak RSS is on record.
    report.Layer("cluster.worker_peak_rss_mb", ChildrenPeakRssMb());
    ReplayServiceMix(jobs_, kClients, traced.values, traced.wall_s,
                     kClusterWorkers, options_.seed, report);
  }

 private:
  /// Cluster start and registration, then the coordinator service.
  Stack Setup(Report& report) {
    Stack stack;
    fedshap::LocalClusterOptions cluster_options;
    cluster_options.num_workers = kClusterWorkers;
    cluster_options.fork_workers = true;
    cluster_options.transport = fedshap::ClusterTransport::kTcp;
    Stopwatch timer;
    fedshap::Result<std::unique_ptr<LocalCluster>> cluster =
        fedshap::Status::Internal("not started");
    {
      Tracer::Scope span("cluster.start");
      cluster = LocalCluster::Start(cluster_options);
    }
    cluster_start_s_ = timer.ElapsedSeconds();
    report.Attempt(cluster.ok());
    report.Check(cluster.ok(), "cluster start: " + cluster.status().ToString());
    if (!cluster.ok()) return stack;
    stack.cluster = std::move(cluster).value();
    stack.service = std::make_unique<ValuationService>(
        ServiceConfigFor(stack.cluster->dispatcher()));
    return stack;
  }

  /// cluster.rpc_*: ClusterUtility::Evaluate timed on coalitions of a
  /// scenario no job has trained (so every RPC carries one training). The
  /// overhead is the median of each RPC's time minus the same coalition's
  /// training in this process.
  void ProbeRpc(ClusterDispatcher* dispatcher, Report& report) {
    ScenarioSpec probe = base_;
    probe.seed = base_.seed + 1000;
    auto local = probe.Build();
    report.Check(local.ok(), "probe scenario build");
    if (!local.ok()) return;
    const std::string key = "perfbench-rpc-probe";
    dispatcher->RegisterWorkload(key, probe, (*local)->Fingerprint());
    fedshap::ClusterUtility remote(dispatcher, key, local->get());

    fedshap::Rng rng(options_.seed * 7919 + 3);
    std::vector<double> rpc_ms, overhead_ms;
    std::unordered_set<Coalition, fedshap::CoalitionHash> seen;
    while (seen.size() < static_cast<size_t>(kRpcWarmup + kRpcSamples)) {
      Coalition c;
      for (int i = 0; i < kClients; ++i) {
        if (rng.Bernoulli(0.5)) c.Add(i);
      }
      if (!seen.insert(c).second) continue;
      Stopwatch rpc_timer;
      fedshap::Result<double> value = fedshap::Status::Internal("not run");
      {
        Tracer::Scope span("cluster.rpc");
        value = remote.Evaluate(c);
      }
      const double rpc = rpc_timer.ElapsedSeconds() * 1e3;
      Stopwatch local_timer;
      const fedshap::Result<double> expected = (*local)->Evaluate(c);
      const double train = local_timer.ElapsedSeconds() * 1e3;
      report.Attempt(value.ok());
      report.Check(value.ok() && expected.ok() && *value == *expected,
                   "RPC value differs from the in-process training");
      if (seen.size() <= static_cast<size_t>(kRpcWarmup)) continue;
      rpc_ms.push_back(rpc);
      overhead_ms.push_back(rpc - train);
    }
    report.Layer("cluster.rpc_p50_ms", Quantile(rpc_ms, 0.5));
    report.Layer("cluster.rpc_p99_ms", Quantile(rpc_ms, 0.99));
    report.Layer("cluster.rpc_overhead_ms", Median(overhead_ms));
  }

  const Options options_;
  ScenarioSpec base_;
  std::vector<JobSpec> jobs_;
  size_t planned_ = 0;
  std::map<std::string, Bounds> bounds_;
  double cluster_start_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeDigitsCluster(const Options& options) {
  return std::make_unique<DigitsCluster>(options);
}

}  // namespace perfbench
