// The cluster invariance suite: a coordinator ValuationService with N
// sharded workers must produce bit-identical values and exact training
// accounting versus a single-process run — at every topology, and under
// every scripted fault (worker death mid-training, dropped / duplicated
// / reordered result frames, a killed-and-recovered coordinator). This
// is the C++ home of the scenarios tests/fedshapd_restart_test.sh used
// to drive through the binary; the shell test remains as a smoke
// wrapper over fedshapd itself.

#include <chrono>
#include <csignal>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "service/cluster.h"
#include "service/cluster_worker.h"
#include "service/job_spec.h"
#include "service/valuation_service.h"
#include "util/coalition.h"
#include "util/framing.h"
#include "util/serialization.h"
#include "util/tcp_transport.h"
#include "util/thread_pool.h"

// The fork-mode tests fork worker processes from a coordinator whose
// shared training pool already runs (the coalition fan-out of earlier
// jobs started it), and the children start threads of their own.
// ThreadSanitizer aborts that by default (die_after_fork=1); a child
// that builds a fresh pool is the designed behaviour (see the fork
// handlers in util/thread_pool.cc), so this binary turns the abort off.
#if defined(__SANITIZE_THREAD__)
extern "C" const char* __tsan_default_options() { return "die_after_fork=0"; }
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
extern "C" const char* __tsan_default_options() { return "die_after_fork=0"; }
#endif
#endif

namespace fedshap {
namespace {

std::string StateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fedshap_cluster_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ScenarioSpec LinregScenario(int n, uint64_t seed = 11) {
  ScenarioSpec scenario;
  scenario.kind = "linreg";
  scenario.n = n;
  scenario.seed = seed;
  return scenario;
}

JobSpec MakeJob(const std::string& name, EstimatorKind estimator,
                const ScenarioSpec& scenario, int gamma = 24, int chunk = 4) {
  JobSpec spec;
  spec.name = name;
  spec.estimator = estimator;
  spec.gamma = gamma;
  spec.seed = 5;
  spec.checkpoint_every = chunk;
  spec.scenario = scenario;
  return spec;
}

/// The clusterless baseline: one job in a private single-worker
/// in-memory service.
Coalition FromMask(uint32_t mask) {
  Coalition coalition;
  for (int i = 0; i < 32; ++i) {
    if ((mask >> i) & 1u) coalition.Add(i);
  }
  return coalition;
}

ValuationResult RunIsolated(const JobSpec& spec) {
  ServiceConfig config;
  config.workers = 1;
  ValuationService service(config);
  EXPECT_TRUE(service.Submit(spec).ok());
  Result<ValuationResult> result = service.Wait(spec.name);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : ValuationResult{};
}

// ---------------------------------------------------------------------------
// The invariance property: cluster == single process, bit for bit
// ---------------------------------------------------------------------------

// {1,2,4} workers x {ipss, adaptive-neyman stratified, perm-mc} x
// prefetch {off, 8}: every combination must reproduce the isolated
// run's values bitwise, with identical evaluation/training/fresh
// counts (the coordinator cache is authoritative for accounting, so a
// cold cluster run trains exactly the isolated run's distinct
// coalitions — on the workers).
TEST(ClusterInvarianceTest, BitIdenticalAcrossTopologiesEstimatorsPrefetch) {
  struct EstimatorCase {
    const char* tag;
    EstimatorKind kind;
    const char* allocation;  // nullptr = spec default
  };
  const EstimatorCase estimators[] = {
      {"ipss", EstimatorKind::kIpss, nullptr},
      {"neyman", EstimatorKind::kStratified, "neyman"},
      {"permmc", EstimatorKind::kPermMc, nullptr},
  };
  const ScenarioSpec scenario = LinregScenario(8);
  for (const EstimatorCase& est : estimators) {
    for (int prefetch : {0, 8}) {
      JobSpec job = MakeJob("job", est.kind, scenario);
      if (est.allocation != nullptr) job.allocation = est.allocation;
      job.prefetch = prefetch;
      const ValuationResult reference = RunIsolated(job);
      ASSERT_EQ(reference.values.size(), 8u);
      for (int workers : {1, 2, 4}) {
        ClusterFixture::Options options;
        options.num_workers = workers;
        auto fixture = ClusterFixture::Start(options);
        ASSERT_NE(fixture, nullptr);
        Result<ValuationResult> result = fixture->Run(job);
        ASSERT_TRUE(result.ok()) << result.status();
        const std::string topology = std::string(est.tag) + " prefetch=" +
                                     std::to_string(prefetch) + " workers=" +
                                     std::to_string(workers);
        ExpectBitIdentical(reference, *result, topology);
        const ClusterStats stats = fixture->cluster_stats();
        // Every fresh training ran remotely, none twice.
        EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings)
            << topology;
        EXPECT_EQ(stats.worker_fresh_trainings, reference.num_fresh_trainings)
            << topology;
        EXPECT_EQ(stats.workers_lost, 0u) << topology;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fault scripts: the scenarios the harness exists for
// ---------------------------------------------------------------------------

// A worker dies mid-job after its 3rd fresh training (kill-worker fault
// = channel torn down with no store flush, the simulated crash). The
// dispatcher reassigns its in-flight coalition, subsequent shard-0
// coalitions fail over to the surviving worker, and the job finishes
// bit-identical with exact fresh accounting — the dead worker's lost
// partial work is invisible because the coordinator cache, not the
// workers, counts fresh trainings.
TEST(ClusterFaultTest, WorkerDeathReassignsAndStaysBitIdentical) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 2;
  options.fault_specs = {"kill-worker:after=3"};
  options.heartbeat_timeout_ms = 1000;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "worker-death");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_EQ(stats.workers_lost, 1u);
  EXPECT_GE(stats.reassigned_coalitions, 1u);
  EXPECT_EQ(fixture->cluster().dispatcher()->live_workers(), 1u);
  // Exactly-once application: one result per fresh training, even
  // though the dying worker's in-flight coalition was dispatched twice.
  EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings);
  EXPECT_GT(stats.tasks_dispatched, stats.results_applied);
}

// Every worker death in sequence until one remains; the job must still
// finish bit-identical (the last shard serves every coalition).
TEST(ClusterFaultTest, CascadingWorkerDeathsConvergeOnLastShard) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 4;
  options.fault_specs = {"kill-worker:after=1", "kill-worker:after=2",
                         "kill-worker:after=3"};
  options.heartbeat_timeout_ms = 1000;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "cascading-deaths");
  EXPECT_EQ(fixture->cluster_stats().workers_lost, 3u);
  EXPECT_EQ(fixture->cluster().dispatcher()->live_workers(), 1u);
}

// A result frame delivered twice (dup-frame fault): the second copy hits
// a completed task id and is dropped — results_applied stays exactly the
// fresh-training count and accounting does not double.
TEST(ClusterFaultTest, DuplicateDeliveryAppliesExactlyOnce) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 2;
  options.fault_specs = {"dup-frame:nth=2", "dup-frame:nth=4"};
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "dup-frame");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_GE(stats.duplicate_results_ignored, 1u);
  EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings);
}

// A dropped result frame (drop-frame fault): the task timeout re-sends
// the assignment, the worker's cache turns the re-run into a hit, and
// the job completes bit-identical — the lost frame costs one retry, not
// correctness.
TEST(ClusterFaultTest, DroppedResultFrameRecoveredByRetry) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 2;
  options.fault_specs = {"drop-frame:nth=2"};
  options.task_retry_ms = 200;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "drop-frame");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_GE(stats.retried_tasks, 1u);
  EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings);
}

// Reordered result frames (reorder-frame fault holds frames back and
// flushes them behind later sends / idle beats): arrival order is not
// plan order, values must not care.
TEST(ClusterFaultTest, ReorderedResultFramesDoNotChangeValues) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 2;
  options.fault_specs = {"reorder-frame:p=0.3,seed=9",
                         "reorder-frame:p=0.3,seed=10"};
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "reorder-frame");
}

// ---------------------------------------------------------------------------
// Subprocess workers: real process deaths
// ---------------------------------------------------------------------------

// Fork-mode cluster at the dispatcher level: SIGKILL one child worker
// between evaluations, then keep evaluating. Coalitions homed on the
// dead shard probe over to the survivor; every evaluation still
// returns the exact utility (linreg is closed-form, so the expected
// value is recomputable locally).
TEST(ClusterSubprocessTest, SigkilledWorkerFailsOverToSurvivor) {
  const ScenarioSpec scenario = LinregScenario(6);
  Result<std::unique_ptr<UtilityFunction>> local = scenario.Build();
  ASSERT_TRUE(local.ok()) << local.status();

  LocalClusterOptions options;
  options.num_workers = 2;
  options.fork_workers = true;
  options.dispatcher.heartbeat_timeout_ms = 1000;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  (*cluster)->dispatcher()->RegisterWorkload("w", scenario,
                                             (*local)->Fingerprint());

  auto evaluate_all = [&](int count) {
    for (uint32_t mask = 1; mask <= static_cast<uint32_t>(count); ++mask) {
      const Coalition coalition = FromMask(mask);
      Result<UtilityRecord> remote =
          (*cluster)->dispatcher()->Evaluate("w", coalition);
      ASSERT_TRUE(remote.ok()) << remote.status();
      Result<double> expected = (*local)->Evaluate(coalition);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(remote->utility, *expected) << "mask " << mask;
    }
  };
  evaluate_all(10);
  EXPECT_EQ((*cluster)->dispatcher()->live_workers(), 2u);

  (*cluster)->KillWorker(0);  // real SIGKILL on the child process
  evaluate_all(20);           // includes shard-0 coalitions -> failover
  EXPECT_EQ((*cluster)->dispatcher()->live_workers(), 1u);
  EXPECT_EQ((*cluster)->dispatcher()->stats().workers_lost, 1u);
  (*cluster)->Shutdown();
}

// The full acceptance scenario through subprocess workers: 2 fork()ed
// workers, one scripted to die mid-job, versus the isolated run.
TEST(ClusterSubprocessTest, ForkedWorkerDeathStaysBitIdentical) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 2;
  options.fork_workers = true;
  options.fault_specs = {"kill-worker:after=3"};
  options.heartbeat_timeout_ms = 1000;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "forked-worker-death");
  EXPECT_EQ(fixture->cluster_stats().workers_lost, 1u);
  EXPECT_GE(fixture->cluster_stats().reassigned_coalitions, 1u);
}

// ---------------------------------------------------------------------------
// Coordinator kill + recover (the restart_test.sh resume scenario)
// ---------------------------------------------------------------------------

// The coordinator halts mid-job (max_slices hook = the deterministic
// stand-in for kill -9 on fedshapd), its cluster dies with it; a new
// coordinator over a fresh cluster recovers the checkpoint and resumes
// to the bit-identical result. Worker stores are per-incarnation here —
// recovery correctness must come from the coordinator's own checkpoint
// + store tier, never from worker-side state.
TEST(ClusterRecoveryTest, CoordinatorKillRecoverResumesBitIdentical) {
  const std::string dir = StateDir("recover");
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8), 32);
  const ValuationResult reference = RunIsolated(job);

  {
    ClusterFixture::Options options;
    options.num_workers = 2;
    options.state_dir = dir;
    options.max_slices = 2;  // halt with the job mid-sweep
    auto fixture = ClusterFixture::Start(options);
    ASSERT_NE(fixture, nullptr);
    ASSERT_TRUE(fixture->service().Submit(job).ok());
    EXPECT_FALSE(fixture->service().WaitAll());  // halted, job unfinished
  }

  {
    ClusterFixture::Options options;
    options.num_workers = 2;
    options.state_dir = dir;
    auto fixture = ClusterFixture::Start(options);
    ASSERT_NE(fixture, nullptr);
    ASSERT_TRUE(fixture->service().Recover().ok());
    ASSERT_TRUE(fixture->service().WaitAll());
    Result<ValuationResult> result = fixture->service().Wait(job.name);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->values.size(), reference.values.size());
    for (size_t i = 0; i < reference.values.size(); ++i) {
      EXPECT_EQ(result->values[i], reference.values[i]) << "client " << i;
    }
    // Trainings done before the kill were persisted by the coordinator
    // store tier, so the resumed run recomputes strictly fewer fresh.
    // (A resumed session accounts only the post-checkpoint portion, so
    // its counters are bounded by the uninterrupted run's, not equal.)
    EXPECT_LT(result->num_fresh_trainings, reference.num_fresh_trainings);
    EXPECT_LE(result->num_trainings, reference.num_trainings);
  }
}

// Worker stores shared across cluster incarnations: a second cluster
// over the same store_dir serves every coalition read-through, zero
// worker-side retraining.
TEST(ClusterRecoveryTest, WorkerStoreTierSurvivesClusterRestart) {
  const std::string dir = StateDir("stores");
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  ValuationResult first;
  {
    ClusterFixture::Options options;
    options.num_workers = 2;
    options.store_dir = dir + "/workers";
    auto fixture = ClusterFixture::Start(options);
    ASSERT_NE(fixture, nullptr);
    Result<ValuationResult> result = fixture->Run(job);
    ASSERT_TRUE(result.ok()) << result.status();
    first = std::move(result).value();
    EXPECT_EQ(fixture->cluster_stats().worker_fresh_trainings,
              first.num_fresh_trainings);
  }
  {
    ClusterFixture::Options options;
    options.num_workers = 2;
    options.store_dir = dir + "/workers";
    auto fixture = ClusterFixture::Start(options);
    ASSERT_NE(fixture, nullptr);
    Result<ValuationResult> result = fixture->Run(job);
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectBitIdentical(first, *result, "restarted-store-tier");
    // The coordinator cache was cold (fresh == first run's), but every
    // worker training was a store hit: zero worker-side fresh work.
    EXPECT_EQ(fixture->cluster_stats().worker_fresh_trainings, 0u);
  }
}

// ---------------------------------------------------------------------------
// Dispatcher edge semantics
// ---------------------------------------------------------------------------

TEST(ClusterDispatcherTest, EvaluateFailsCleanlyWithNoLiveWorkers) {
  const ScenarioSpec scenario = LinregScenario(4);
  Result<std::unique_ptr<UtilityFunction>> local = scenario.Build();
  ASSERT_TRUE(local.ok());

  LocalClusterOptions options;
  options.num_workers = 1;
  options.dispatcher.heartbeat_timeout_ms = 1000;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  (*cluster)->dispatcher()->RegisterWorkload("w", scenario,
                                             (*local)->Fingerprint());
  (*cluster)->KillWorker(0);
  // The lone worker is gone: evaluation must fail with a clear error,
  // not hang. (The dispatcher may need a beat to observe the EOF.)
  Result<UtilityRecord> record =
      (*cluster)->dispatcher()->Evaluate("w", Coalition::Of({0, 1}));
  EXPECT_FALSE(record.ok());
  (*cluster)->Shutdown();
}

TEST(ClusterDispatcherTest, UnknownWorkloadIsAnError) {
  LocalClusterOptions options;
  options.num_workers = 1;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  Result<UtilityRecord> record =
      (*cluster)->dispatcher()->Evaluate("nope", Coalition::Of({0}));
  EXPECT_FALSE(record.ok());
  (*cluster)->Shutdown();
}

// ---------------------------------------------------------------------------
// TCP transport: the same invariance, over real sockets
// ---------------------------------------------------------------------------

// The core invariance over loopback TCP at {1,2,4} workers: the framed
// protocol is transport-agnostic, so swapping socketpairs for the real
// listener/connector + registration handshake must change nothing about
// the values.
TEST(ClusterTcpTest, BitIdenticalOverTcpAcrossTopologies) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);
  for (int workers : {1, 2, 4}) {
    ClusterFixture::Options options;
    options.num_workers = workers;
    options.transport = ClusterTransport::kTcp;
    auto fixture = ClusterFixture::Start(options);
    ASSERT_NE(fixture, nullptr);
    Result<ValuationResult> result = fixture->Run(job);
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectBitIdentical(reference, *result,
                       "tcp workers=" + std::to_string(workers));
    const ClusterStats stats = fixture->cluster_stats();
    EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings);
    EXPECT_EQ(stats.worker_reconnects, 0u);
  }
}

// Fork-mode workers over TCP: separate processes dialing the
// coordinator's real listener — the closest the single-host harness gets
// to an actual multi-node deployment.
TEST(ClusterTcpTest, ForkedWorkersOverTcpStayBitIdentical) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 2;
  options.fork_workers = true;
  options.transport = ClusterTransport::kTcp;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "tcp-forked");
  EXPECT_EQ(fixture->cluster_stats().results_applied,
            reference.num_fresh_trainings);
}

// An injected partition mid-job tears the lone worker's connection
// down; the worker redials with backoff, re-registers its shard (warm
// caches), the orphaned in-flight coalition is re-dispatched, and the
// job finishes bit-identical. A single worker plus a long degraded
// grace makes the reconnect load-bearing: the job cannot complete any
// other way, so the partition costs a reconnect, never correctness.
TEST(ClusterTcpFaultTest, PartitionAndHealStaysBitIdentical) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 1;
  options.transport = ClusterTransport::kTcp;
  options.fault_specs = {"partition:nth=3"};
  options.heartbeat_timeout_ms = 2000;
  options.task_retry_ms = 200;
  options.degraded_grace_ms = 10000;  // wait for the heal, don't degrade
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "tcp-partition-heal");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_GE(stats.worker_reconnects, 1u);
  EXPECT_GE(stats.recovery_seconds_total, 0.0);
  EXPECT_EQ(stats.degraded_evaluations, 0u);
  EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings);
}

// A corrupted result frame is rejected by the coordinator's CRC check,
// which reads as a dead peer: the connection is torn down, the worker
// reconnects, the task is re-dispatched. Corruption can cost a round
// trip, never a wrong value.
TEST(ClusterTcpFaultTest, CorruptFrameRejectedAndRecovered) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 1;
  options.transport = ClusterTransport::kTcp;
  options.fault_specs = {"corrupt-frame:nth=2"};
  options.heartbeat_timeout_ms = 2000;
  options.task_retry_ms = 200;
  options.degraded_grace_ms = 10000;  // wait for the reconnect
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "tcp-corrupt-frame");
  EXPECT_GE(fixture->cluster_stats().worker_reconnects, 1u);
  EXPECT_EQ(fixture->cluster_stats().results_applied,
            reference.num_fresh_trainings);
}

// The reconnect schedule is a pure function of (attempt, seed): a client
// that cannot reach its coordinator walks exactly the backoff sequence
// ReconnectBackoffMs prescribes, in order.
TEST(ClusterTcpFaultTest, ReconnectBackoffFollowsSeededSchedule) {
  // Bind a port, then free it: every dial is refused.
  int dead_port = 0;
  {
    Result<std::unique_ptr<TcpListener>> listener =
        TcpListener::Listen({"127.0.0.1", 0});
    ASSERT_TRUE(listener.ok()) << listener.status();
    dead_port = (*listener)->port();
  }
  TcpWorkerClientOptions options;
  options.endpoint = {"127.0.0.1", dead_port};
  options.worker.shard = -1;
  options.connect_timeout_ms = 500;
  options.backoff_base_ms = 20;
  options.backoff_cap_ms = 100;
  options.backoff_seed = 77;
  options.max_connect_failures = 4;
  TcpWorkerClient client(options);
  Status status = client.Run();
  ASSERT_FALSE(status.ok());  // gave up with the dial error
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
  EXPECT_EQ(client.reconnects(), 0u);  // never registered, so no resumes
  // Three backoffs separate the four dials; each is the scheduled wait.
  const std::vector<int> expected = {ReconnectBackoffMs(0, 20, 100, 77),
                                     ReconnectBackoffMs(1, 20, 100, 77),
                                     ReconnectBackoffMs(2, 20, 100, 77)};
  EXPECT_EQ(client.backoff_history(), expected);
}

// ---------------------------------------------------------------------------
// Circuit breaker and degraded mode
// ---------------------------------------------------------------------------

// Three consecutive dropped results exhaust their RPC deadlines and trip
// the lone worker's breaker; the cooldown elapses into a half-open
// probe, the (now healed) worker answers it, the breaker closes, and the
// job completes bit-identical with no degraded work.
TEST(ClusterBreakerTest, TripProbeCloseUnderConsecutiveDeadlineExpiry) {
  // One RPC at a time, so the three dropped results are consecutive
  // failures: with concurrent RPCs a timely answer to another one could
  // reset the count between them and the breaker might never trip. The
  // concurrent case is LateAnswerDoesNotCloseAnOpenBreaker below.
  PinnedThreads sequential(1);
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 1;
  options.fault_specs = {"drop-frame:until=3"};
  options.rpc_deadline_ms = 150;
  options.max_task_attempts = 8;
  options.breaker_trip_threshold = 3;
  options.breaker_cooldown_ms = 250;
  options.degraded_grace_ms = 10000;  // wait for the probe, don't degrade
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "breaker-trip-probe-close");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_GE(stats.deadline_expirations, 3u);
  EXPECT_GE(stats.breaker_trips, 1u);
  EXPECT_GE(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.degraded_evaluations, 0u);
  EXPECT_EQ(stats.results_applied, reference.num_fresh_trainings);
}

// With concurrent coordinator RPCs, a worker's answer can land after its
// deadline expired and opened the breaker. That late answer must not
// close the breaker: only the answer to an RPC dispatched after the
// cooldown (the half-open probe) does. The test plays the
// worker over a socketpair, so it decides when each answer arrives.
TEST(ClusterBreakerTest, LateAnswerDoesNotCloseAnOpenBreaker) {
  const ScenarioSpec scenario = LinregScenario(4);
  Result<std::unique_ptr<UtilityFunction>> local = scenario.Build();
  ASSERT_TRUE(local.ok());
  auto pair = CreateChannelPair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  std::unique_ptr<FrameChannel> worker = std::move(pair->second);

  ClusterDispatcher::Options options;
  options.rpc_deadline_ms = 100;
  options.breaker_trip_threshold = 1;
  options.breaker_cooldown_ms = 500;
  options.degraded_grace_ms = 10000;
  ClusterDispatcher dispatcher(options);
  dispatcher.AddWorker(std::move(pair->first));
  dispatcher.RegisterWorkload("w", scenario, (*local)->Fingerprint());

  // Returns the task id of the next Assign the worker receives.
  auto next_assign = [&worker]() -> uint64_t {
    for (;;) {
      Result<std::optional<Frame>> frame = worker->Recv(5000);
      if (!frame.ok() || !frame->has_value()) return 0;
      if ((*frame)->type != cluster_proto::kAssign) continue;
      ByteReader reader((*frame)->payload);
      Result<uint64_t> task_id = reader.GetVarint();
      return task_id.ok() ? *task_id : 0;
    }
  };
  auto answer = [&worker](uint64_t task_id, const Coalition& coalition) {
    ByteWriter writer;
    writer.PutVarint(task_id);
    writer.PutU64(coalition.Hash());
    writer.PutDouble(0.5);  // utility
    writer.PutDouble(0.0);  // cost_seconds
    writer.PutU8(1);        // fresh
    return worker->Send(cluster_proto::kResult, writer.bytes());
  };
  auto wait_for = [](auto condition) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!condition() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return condition();
  };

  const Coalition late = Coalition::Of({0, 1});
  const Coalition probe = Coalition::Of({2});
  const Coalition after = Coalition::Of({3});
  Result<UtilityRecord> late_record = Status::Internal("not run");
  Result<UtilityRecord> probe_record = Status::Internal("not run");
  Result<UtilityRecord> after_record = Status::Internal("not run");
  // Each Evaluate blocks until its answer lands, so it runs on a thread
  // of its own. Leaving the test early shuts the dispatcher down first,
  // which fails every pending call, so the joins cannot hang.
  std::vector<std::thread> callers;
  struct JoinCallers {
    ClusterDispatcher& dispatcher;
    std::vector<std::thread>& callers;
    ~JoinCallers() {
      dispatcher.Shutdown();
      for (std::thread& caller : callers) caller.join();
    }
  } join_callers{dispatcher, callers};
  auto evaluate = [&](const Coalition& coalition,
                      Result<UtilityRecord>* record) {
    callers.emplace_back([&dispatcher, coalition, record] {
      *record = dispatcher.Evaluate("w", coalition);
    });
  };

  evaluate(late, &late_record);
  const uint64_t late_id = next_assign();
  ASSERT_NE(late_id, 0u);
  // Unanswered past its deadline: the breaker opens.
  ASSERT_TRUE(wait_for([&] { return dispatcher.stats().breaker_trips == 1; }));
  ASSERT_TRUE(answer(late_id, late).ok());

  evaluate(probe, &probe_record);
  const uint64_t probe_id = next_assign();
  ASSERT_NE(probe_id, 0u);
  // Nothing reaches the worker before the cooldown half-opens the
  // breaker: the late answer did not close it.
  EXPECT_EQ(dispatcher.stats().breaker_probes, 1u);
  ASSERT_TRUE(answer(probe_id, probe).ok());

  // The probe's answer closed the breaker: the next RPC goes straight
  // out, with no further trip or probe.
  evaluate(after, &after_record);
  const uint64_t after_id = next_assign();
  ASSERT_NE(after_id, 0u);
  ASSERT_TRUE(answer(after_id, after).ok());
  for (std::thread& caller : callers) caller.join();
  callers.clear();
  EXPECT_TRUE(late_record.ok()) << late_record.status();
  EXPECT_TRUE(probe_record.ok()) << probe_record.status();
  EXPECT_TRUE(after_record.ok()) << after_record.status();
  const ClusterStats stats = dispatcher.stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.results_applied, 3u);
}

// Total outage from the start: the lone worker is killed before the job
// runs. Every evaluation passes the grace window with no schedulable
// worker, fails Unavailable, and ClusterUtility trains it on the
// coordinator instead — bit-identical values, zero remote results.
TEST(ClusterDegradedTest, TotalOutageServesBitIdenticalValuesLocally) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 1;
  options.heartbeat_timeout_ms = 500;
  options.degraded_grace_ms = 100;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  fixture->KillWorker(0);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "degraded-total-outage");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_EQ(stats.results_applied, 0u);  // nothing came from a worker
  EXPECT_GE(stats.degraded_evaluations, reference.num_fresh_trainings);
}

// A total outage costs one grace window, not one per coalition: the
// first expiry latches degraded mode and every later coalition trains
// locally at once. Bounded by three windows plus the job's own local
// training time (the isolated run), over a 64-coalition job.
TEST(ClusterDegradedTest, TotalOutageCostsAboutOneGraceWindow) {
  JobSpec job = MakeJob("job", EstimatorKind::kExactMc, LinregScenario(6));
  const auto isolated_start = std::chrono::steady_clock::now();
  const ValuationResult reference = RunIsolated(job);
  const auto local_training = std::chrono::steady_clock::now() -
                              isolated_start;
  ASSERT_GE(reference.num_fresh_trainings, 50u);

  ClusterFixture::Options options;
  options.num_workers = 1;
  options.heartbeat_timeout_ms = 500;
  options.degraded_grace_ms = 200;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  fixture->KillWorker(0);
  const auto start = std::chrono::steady_clock::now();
  Result<ValuationResult> result = fixture->Run(job);
  const auto outage_wall = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "degraded-outage-bound");
  EXPECT_LT(outage_wall,
            3 * std::chrono::milliseconds(options.degraded_grace_ms) +
                local_training);

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_EQ(stats.results_applied, 0u);
  EXPECT_GE(stats.degraded_evaluations, reference.num_fresh_trainings);
}

// The latch clears when a worker registers: the next outage waits out
// a grace window of its own instead of failing at once.
TEST(ClusterDegradedTest, WorkerRegistrationClearsTheDegradedLatch) {
  const ScenarioSpec scenario = LinregScenario(4);
  Result<std::unique_ptr<UtilityFunction>> local = scenario.Build();
  ASSERT_TRUE(local.ok());
  ClusterDispatcher::Options options;
  options.degraded_grace_ms = 200;
  ClusterDispatcher dispatcher(options);
  Result<int> port = dispatcher.ListenAndServe({"127.0.0.1", 0});
  ASSERT_TRUE(port.ok()) << port.status();
  dispatcher.RegisterWorkload("w", scenario, (*local)->Fingerprint());
  const Coalition coalition = Coalition::Of({0, 1});
  const auto unavailable_after = [&] {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(dispatcher.Evaluate("w", coalition).status().code(),
              StatusCode::kUnavailable);
    return std::chrono::steady_clock::now() - start;
  };
  const auto wait_for_live = [&](size_t live) {
    for (int i = 0; i < 1000 && dispatcher.live_workers() != live; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(dispatcher.live_workers(), live);
  };
  const std::chrono::milliseconds grace(options.degraded_grace_ms);
  EXPECT_GE(unavailable_after(), grace);  // the outage's one window
  EXPECT_LT(unavailable_after(), grace);  // latched: no second window

  TcpWorkerClientOptions client_options;
  client_options.endpoint = {"127.0.0.1", *port};
  client_options.worker.shard = -1;
  TcpWorkerClient client(client_options);
  std::thread serving([&] { (void)client.Run(); });
  wait_for_live(1);
  EXPECT_TRUE(dispatcher.Evaluate("w", coalition).ok());
  client.Stop();
  serving.join();
  wait_for_live(0);
  EXPECT_GE(unavailable_after(), grace);  // a new outage, a new window
  dispatcher.Shutdown();
}

// Mid-job outage: the worker dies partway through. Work done before the
// death arrived remotely; everything after degrades to coordinator-local
// training. The seam between the two regimes is invisible in the values.
TEST(ClusterDegradedTest, MidJobOutageDegradesAndStaysBitIdentical) {
  JobSpec job = MakeJob("job", EstimatorKind::kIpss, LinregScenario(8));
  const ValuationResult reference = RunIsolated(job);

  ClusterFixture::Options options;
  options.num_workers = 1;
  options.fault_specs = {"kill-worker:after=2"};
  options.heartbeat_timeout_ms = 500;
  options.degraded_grace_ms = 100;
  auto fixture = ClusterFixture::Start(options);
  ASSERT_NE(fixture, nullptr);
  Result<ValuationResult> result = fixture->Run(job);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(reference, *result, "degraded-mid-job");

  const ClusterStats stats = fixture->cluster_stats();
  EXPECT_EQ(stats.workers_lost, 1u);
  EXPECT_GE(stats.results_applied, 1u);       // some work ran remotely
  EXPECT_GE(stats.degraded_evaluations, 1u);  // the rest degraded
}

// ---------------------------------------------------------------------------
// Monitor deadline unification (the tick-clamp helper)
// ---------------------------------------------------------------------------

TEST(ClusterMonitorTest, NextDeadlineMsPicksTheEarliestPendingDeadline) {
  using Deadlines = ClusterDispatcher::MonitorDeadlines;
  // Nothing pending: the max tick.
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{-1, -1, -1}), 250);
  // The earliest class wins regardless of which one it is.
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{100, 50, -1}), 50);
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{40, 200, 120}), 40);
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{-1, -1, 30}), 30);
}

TEST(ClusterMonitorTest, NextDeadlineMsClampsToTickBounds) {
  using Deadlines = ClusterDispatcher::MonitorDeadlines;
  // An overdue (or absurdly small) deadline cannot spin the monitor.
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{0, -1, -1}), 10);
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{-1, 3, -1}), 10);
  // A far-future deadline cannot stall it past the heartbeat scan.
  EXPECT_EQ(ClusterDispatcher::NextDeadlineMs(Deadlines{60000, -1, -1}), 250);
}

// ---------------------------------------------------------------------------
// Registration handshake protocol
// ---------------------------------------------------------------------------

TEST(ClusterProtocolTest, WorkerRegistrationCodecRoundTrips) {
  WorkerRegistration registration;
  registration.shard = 3;
  registration.pid = 4242;
  registration.workloads = {{"linreg/8/11", 0xDEADBEEFCAFEF00DULL},
                            {"digits/4/7", 17}};
  const std::string payload = EncodeWorkerRegistration(registration);
  Result<WorkerRegistration> decoded = DecodeWorkerRegistration(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->protocol_version, kClusterProtocolVersion);
  EXPECT_EQ(decoded->shard, 3);
  EXPECT_EQ(decoded->pid, 4242u);
  EXPECT_EQ(decoded->workloads, registration.workloads);

  // The unassigned-shard sentinel survives the wire.
  registration.shard = -1;
  decoded = DecodeWorkerRegistration(EncodeWorkerRegistration(registration));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->shard, -1);

  EXPECT_FALSE(DecodeWorkerRegistration("").ok());
  EXPECT_FALSE(DecodeWorkerRegistration("\xff\xff\xff").ok());
}

// A worker speaking a different protocol version is vetoed at the
// handshake — a Reject frame naming the mismatch, before any workload
// state is exchanged. (Driven through the real listener.)
TEST(ClusterProtocolTest, VersionMismatchIsRejectedAtRegistration) {
  ClusterDispatcher dispatcher;
  Result<int> port = dispatcher.ListenAndServe({"127.0.0.1", 0});
  ASSERT_TRUE(port.ok()) << port.status();
  EXPECT_EQ(dispatcher.listen_port(), *port);

  Result<std::unique_ptr<FrameChannel>> channel =
      TcpConnect({"127.0.0.1", *port}, 2000);
  ASSERT_TRUE(channel.ok()) << channel.status();
  WorkerRegistration stale;
  stale.protocol_version = kClusterProtocolVersion - 1;
  ASSERT_TRUE((*channel)
                  ->Send(cluster_proto::kRegister,
                         EncodeWorkerRegistration(stale))
                  .ok());
  Result<std::optional<Frame>> reply = (*channel)->Recv(5000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_TRUE(reply->has_value());
  EXPECT_EQ((*reply)->type, cluster_proto::kReject);
  EXPECT_EQ(dispatcher.live_workers(), 0u);
  dispatcher.Shutdown();
}

// ScenarioSpec wire codec: round-trip identity and version rejection —
// the handshake the workload announce rides on.
TEST(ClusterProtocolTest, ScenarioSpecCodecRoundTrips) {
  ScenarioSpec spec;
  spec.kind = "digits";
  spec.n = 7;
  spec.partition = "skew";
  spec.seed = 99;
  spec.fl_rounds = 5;
  spec.local_epochs = 2;
  spec.batch_size = 8;
  spec.learning_rate = 0.125;
  spec.samples_per_client = 33;
  spec.noise_scale = 0.5;

  ByteWriter writer;
  EncodeScenarioSpec(spec, writer);
  ByteReader reader(writer.bytes());
  Result<ScenarioSpec> decoded = DecodeScenarioSpec(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->CanonicalKey(), spec.CanonicalKey());
  EXPECT_EQ(decoded->learning_rate, spec.learning_rate);
  EXPECT_EQ(decoded->noise_scale, spec.noise_scale);

  ByteWriter bad;
  bad.PutU8(99);  // unknown future version
  ByteReader bad_reader(bad.bytes());
  EXPECT_FALSE(DecodeScenarioSpec(bad_reader).ok());
}

}  // namespace
}  // namespace fedshap
