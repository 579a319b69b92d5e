#include "fl/fedavg.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <thread>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fl/server.h"
#include "util/thread_pool.h"
#include "fl/training_log.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"

// The fork tests below start threads in the child of a multi-threaded
// process, which ThreadSanitizer aborts by default (die_after_fork=1).
// A child that trains over a fresh pool is the behaviour under test, so
// this binary turns that abort off under TSan.
#if defined(__SANITIZE_THREAD__)
extern "C" const char* __tsan_default_options() { return "die_after_fork=0"; }
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
extern "C" const char* __tsan_default_options() { return "die_after_fork=0"; }
#endif
#endif

namespace fedshap {
namespace {

Dataset MakeBlobData(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Result<Dataset> data = GenerateBlobs(2, 4, 5.0, rows, rng);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

LogisticRegression MakePrototype(uint64_t seed = 42) {
  LogisticRegression model(4, 2);
  Rng rng(seed);
  model.InitializeParameters(rng);
  return model;
}

TEST(FedAvgAggregateTest, WeightedAverage) {
  Result<std::vector<float>> agg = FedAvgAggregate(
      {{1.0f, 2.0f}, {3.0f, 6.0f}}, {1.0, 3.0});
  ASSERT_TRUE(agg.ok());
  EXPECT_FLOAT_EQ((*agg)[0], 2.5f);  // (1*1 + 3*3)/4
  EXPECT_FLOAT_EQ((*agg)[1], 5.0f);  // (2*1 + 6*3)/4
}

TEST(FedAvgAggregateTest, SingleClientIsIdentity) {
  Result<std::vector<float>> agg = FedAvgAggregate({{7.0f, -1.0f}}, {5.0});
  ASSERT_TRUE(agg.ok());
  EXPECT_FLOAT_EQ((*agg)[0], 7.0f);
  EXPECT_FLOAT_EQ((*agg)[1], -1.0f);
}

TEST(FedAvgAggregateTest, ZeroWeightClientIgnored) {
  Result<std::vector<float>> agg =
      FedAvgAggregate({{1.0f}, {100.0f}}, {1.0, 0.0});
  ASSERT_TRUE(agg.ok());
  EXPECT_FLOAT_EQ((*agg)[0], 1.0f);
}

TEST(FedAvgAggregateTest, Validation) {
  EXPECT_FALSE(FedAvgAggregate({}, {}).ok());
  EXPECT_FALSE(FedAvgAggregate({{1.0f}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(FedAvgAggregate({{1.0f}, {1.0f, 2.0f}}, {1.0, 1.0}).ok());
  EXPECT_FALSE(FedAvgAggregate({{1.0f}}, {-1.0}).ok());
  EXPECT_FALSE(FedAvgAggregate({{1.0f}, {2.0f}}, {0.0, 0.0}).ok());
}

TEST(TrainFedAvgTest, EmptyClientListReturnsPrototype) {
  LogisticRegression prototype = MakePrototype();
  FedAvgConfig config;
  Result<std::unique_ptr<Model>> model = TrainFedAvg(prototype, {}, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->GetParameters(), prototype.GetParameters());
}

TEST(TrainFedAvgTest, ClientsWithNoDataActAsAbsent) {
  LogisticRegression prototype = MakePrototype();
  FedAvgConfig config;
  Result<Dataset> empty_data = Dataset::Create(4, 2);
  ASSERT_TRUE(empty_data.ok());
  FlClient empty_client(0, std::move(empty_data).value());
  Result<std::unique_ptr<Model>> model =
      TrainFedAvg(prototype, {&empty_client}, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->GetParameters(), prototype.GetParameters());
}

TEST(TrainFedAvgTest, TrainingImprovesUtility) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(200, 1));
  FlClient b(1, MakeBlobData(200, 2));
  Dataset test = MakeBlobData(300, 3);
  FedAvgConfig config;
  config.rounds = 6;
  config.local.epochs = 2;
  config.local.learning_rate = 0.3;
  Result<std::unique_ptr<Model>> model =
      TrainFedAvg(prototype, {&a, &b}, config);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(EvaluateAccuracy(**model, test),
            EvaluateAccuracy(prototype, test));
  EXPECT_GT(EvaluateAccuracy(**model, test), 0.85);
}

TEST(TrainFedAvgTest, DeterministicForSameCoalition) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(100, 4));
  FlClient b(1, MakeBlobData(100, 5));
  FedAvgConfig config;
  Result<std::unique_ptr<Model>> m1 = TrainFedAvg(prototype, {&a, &b}, config);
  Result<std::unique_ptr<Model>> m2 = TrainFedAvg(prototype, {&a, &b}, config);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ((*m1)->GetParameters(), (*m2)->GetParameters());
}

TEST(TrainFedAvgTest, DifferentCoalitionsDrawDifferentNoise) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(100, 6));
  FlClient b(1, MakeBlobData(100, 7));
  FedAvgConfig config;
  Result<std::unique_ptr<Model>> ma = TrainFedAvg(prototype, {&a}, config);
  Result<std::unique_ptr<Model>> mab =
      TrainFedAvg(prototype, {&a, &b}, config);
  ASSERT_TRUE(ma.ok());
  ASSERT_TRUE(mab.ok());
  EXPECT_NE((*ma)->GetParameters(), (*mab)->GetParameters());
}

TEST(TrainFedAvgTest, ClientParallelismInvariance) {
  // The per-round client fan-out must be invisible in the result: the
  // trained parameters are bit-identical at 1, 2 and 8 workers, and
  // with the cap released to the budget. This is the determinism
  // contract that lets backends/stores ignore the worker count.
  LogisticRegression prototype = MakePrototype(91);
  std::vector<FlClient> clients;
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back(i, MakeBlobData(60 + 10 * i, 200 + i));
  }
  // One empty client: the null-player skip must hold under fan-out too.
  clients.emplace_back(6, Dataset());
  std::vector<const FlClient*> members;
  for (const FlClient& client : clients) members.push_back(&client);

  FedAvgConfig config;
  config.rounds = 3;
  config.local.epochs = 1;

  // Widen the global budget so the fan-out actually runs parallel even
  // on single-core CI machines (the invariance claim is vacuous when
  // every setting degrades to sequential).
  const int entry_total = WorkerBudget::Global().total();
  WorkerBudget::Global().SetTotal(8);
  const int entry_cap = FedAvgClientParallelism();
  std::vector<std::vector<float>> params;
  for (int workers : {1, 2, 8, 0}) {  // 0 = budget-driven (no cap)
    SetFedAvgClientParallelism(workers);
    Result<std::unique_ptr<Model>> model =
        TrainFedAvg(prototype, members, config);
    ASSERT_TRUE(model.ok()) << "workers=" << workers;
    params.push_back((*model)->GetParameters());
  }
  SetFedAvgClientParallelism(entry_cap);
  WorkerBudget::Global().SetTotal(entry_total);
  for (size_t i = 1; i < params.size(); ++i) {
    EXPECT_EQ(params[i], params[0]) << "worker setting #" << i;
  }
}

TEST(TrainFedAvgTest, ParallelClientTrainingMatchesLog) {
  // The training log is order-sensitive (client deltas in client
  // order); it must be identical under fan-out.
  LogisticRegression prototype = MakePrototype(17);
  FlClient a(0, MakeBlobData(80, 21));
  FlClient b(1, MakeBlobData(90, 22));
  FlClient c(2, MakeBlobData(70, 23));
  FedAvgConfig config;
  config.rounds = 2;

  const int entry_total = WorkerBudget::Global().total();
  WorkerBudget::Global().SetTotal(8);
  const int entry_cap = FedAvgClientParallelism();
  SetFedAvgClientParallelism(1);
  TrainingLog sequential_log;
  Result<std::unique_ptr<Model>> sequential =
      TrainFedAvg(prototype, {&a, &b, &c}, config, &sequential_log);
  SetFedAvgClientParallelism(8);
  TrainingLog parallel_log;
  Result<std::unique_ptr<Model>> parallel =
      TrainFedAvg(prototype, {&a, &b, &c}, config, &parallel_log);
  SetFedAvgClientParallelism(entry_cap);
  WorkerBudget::Global().SetTotal(entry_total);

  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ((*sequential)->GetParameters(), (*parallel)->GetParameters());
  ASSERT_EQ(sequential_log.rounds.size(), parallel_log.rounds.size());
  EXPECT_EQ(sequential_log.final_params, parallel_log.final_params);
  for (size_t r = 0; r < sequential_log.rounds.size(); ++r) {
    EXPECT_EQ(sequential_log.rounds[r].client_ids,
              parallel_log.rounds[r].client_ids);
    EXPECT_EQ(sequential_log.rounds[r].client_deltas,
              parallel_log.rounds[r].client_deltas);
  }
}

/// Runs `body` in a fork()ed child and returns its exit code, or -1
/// when the child has not exited within `timeout` (it is then killed).
int ExitCodeOfForkedChild(const std::function<int()>& body,
                          std::chrono::seconds timeout) {
  const pid_t pid = fork();
  if (pid < 0) return -2;
  if (pid == 0) _exit(body());
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  int status = 0;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -3;
}

TEST(TrainFedAvgTest, ForkedChildFansOutOverAFreshSharedPool) {
  // fork() copies only the calling thread. A child that kept the warmed
  // shared training pool would queue its client trainings on workers
  // that do not exist and wait forever; it must build a fresh pool.
  LogisticRegression prototype = MakePrototype(33);
  std::vector<FlClient> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back(i, MakeBlobData(60 + 10 * i, 300 + i));
  }
  std::vector<const FlClient*> members;
  for (const FlClient& client : clients) members.push_back(&client);
  FedAvgConfig config;
  config.rounds = 2;

  const int entry_total = WorkerBudget::Global().total();
  WorkerBudget::Global().SetTotal(8);
  const int entry_cap = FedAvgClientParallelism();
  SetFedAvgClientParallelism(0);
  Result<std::unique_ptr<Model>> reference =
      TrainFedAvg(prototype, members, config);  // warms the shared pool
  ASSERT_TRUE(reference.ok());
  const std::vector<float> expected = (*reference)->GetParameters();

  const int exit_code = ExitCodeOfForkedChild(
      [&] {
        Result<std::unique_ptr<Model>> model =
            TrainFedAvg(prototype, members, config);
        if (!model.ok()) return 2;
        return (*model)->GetParameters() == expected ? 0 : 3;
      },
      std::chrono::seconds(30));
  SetFedAvgClientParallelism(entry_cap);
  WorkerBudget::Global().SetTotal(entry_total);
  EXPECT_NE(exit_code, -1) << "forked child hung in TrainFedAvg";
  EXPECT_EQ(exit_code, 0);
}

TEST(TrainFedAvgTest, ForkedChildInheritsNoBudgetLeases) {
  // A slot leased by another parent thread belongs to a thread the child
  // does not have; the child must see every slot free.
  int granted = 0;
  std::thread([&] { granted = WorkerBudget::Global().TryAcquire(1); }).join();
  ASSERT_EQ(granted, 1);
  const int exit_code = ExitCodeOfForkedChild(
      [] { return WorkerBudget::Global().in_use() == 0 ? 0 : 2; },
      std::chrono::seconds(30));
  WorkerBudget::Global().Release(granted);
  EXPECT_EQ(exit_code, 0);
}

TEST(TrainFedAvgTest, ZeroRoundsReturnsInitialModel) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(50, 8));
  FedAvgConfig config;
  config.rounds = 0;
  Result<std::unique_ptr<Model>> model = TrainFedAvg(prototype, {&a}, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->GetParameters(), prototype.GetParameters());
}

TEST(TrainFedAvgTest, LogRecordsRoundsAndDeltas) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(80, 9));
  FlClient b(1, MakeBlobData(120, 10));
  FedAvgConfig config;
  config.rounds = 3;
  TrainingLog log;
  Result<std::unique_ptr<Model>> model =
      TrainFedAvg(prototype, {&a, &b}, config, &log);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(log.num_rounds(), 3);
  EXPECT_EQ(log.initial_params, prototype.GetParameters());
  EXPECT_EQ(log.final_params, (*model)->GetParameters());
  for (const RoundRecord& round : log.rounds) {
    ASSERT_EQ(round.client_ids.size(), 2u);
    EXPECT_EQ(round.client_weights[0], 80.0);
    EXPECT_EQ(round.client_weights[1], 120.0);
    EXPECT_EQ(round.client_deltas[0].size(), prototype.NumParameters());
  }
}

TEST(TrainingLogTest, FullCoalitionReconstructionMatchesTraining) {
  // Replaying *all* clients' deltas must reproduce the actual final model:
  // the reconstruction operator is exact for the grand coalition.
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(100, 11));
  FlClient b(1, MakeBlobData(150, 12));
  FlClient c(2, MakeBlobData(80, 13));
  FedAvgConfig config;
  config.rounds = 4;
  TrainingLog log;
  Result<std::unique_ptr<Model>> model =
      TrainFedAvg(prototype, {&a, &b, &c}, config, &log);
  ASSERT_TRUE(model.ok());
  Result<std::vector<float>> reconstructed =
      ReconstructParameters(log, {0, 1, 2});
  ASSERT_TRUE(reconstructed.ok());
  const std::vector<float>& actual = (*model)->GetParameters();
  ASSERT_EQ(reconstructed->size(), actual.size());
  for (size_t p = 0; p < actual.size(); ++p) {
    EXPECT_NEAR((*reconstructed)[p], actual[p], 1e-4f);
  }
}

TEST(TrainingLogTest, EmptySubsetReconstructsInitialParams) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(60, 14));
  FedAvgConfig config;
  TrainingLog log;
  ASSERT_TRUE(TrainFedAvg(prototype, {&a}, config, &log).ok());
  Result<std::vector<float>> reconstructed = ReconstructParameters(log, {});
  ASSERT_TRUE(reconstructed.ok());
  EXPECT_EQ(*reconstructed, log.initial_params);
}

TEST(TrainingLogTest, SubsetReconstructionDiffersFromFull) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(100, 15));
  FlClient b(1, MakeBlobData(100, 16));
  FedAvgConfig config;
  TrainingLog log;
  ASSERT_TRUE(TrainFedAvg(prototype, {&a, &b}, config, &log).ok());
  Result<std::vector<float>> just_a = ReconstructParameters(log, {0});
  Result<std::vector<float>> both = ReconstructParameters(log, {0, 1});
  ASSERT_TRUE(just_a.ok());
  ASSERT_TRUE(both.ok());
  EXPECT_NE(*just_a, *both);
}

TEST(TrainingLogTest, RoundReconstructionBounds) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(60, 17));
  FedAvgConfig config;
  config.rounds = 2;
  TrainingLog log;
  ASSERT_TRUE(TrainFedAvg(prototype, {&a}, config, &log).ok());
  EXPECT_TRUE(ReconstructRoundParameters(log, 0, {0}).ok());
  EXPECT_TRUE(ReconstructRoundParameters(log, 1, {0}).ok());
  EXPECT_FALSE(ReconstructRoundParameters(log, 2, {0}).ok());
  EXPECT_FALSE(ReconstructRoundParameters(log, -1, {0}).ok());
}

TEST(TrainingLogTest, RoundReconstructionWithAbsentSubset) {
  LogisticRegression prototype = MakePrototype();
  FlClient a(0, MakeBlobData(60, 18));
  FedAvgConfig config;
  config.rounds = 1;
  TrainingLog log;
  ASSERT_TRUE(TrainFedAvg(prototype, {&a}, config, &log).ok());
  // Client 5 never participated: round reconstruction falls back to the
  // round's starting parameters.
  Result<std::vector<float>> params = ReconstructRoundParameters(log, 0, {5});
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(*params, log.rounds[0].global_before);
}

TEST(FlClientTest, LocalUpdateTrainsOnLocalData) {
  LogisticRegression prototype = MakePrototype();
  FlClient client(0, MakeBlobData(200, 19));
  LogisticRegression scratch(4, 2);
  SgdConfig config;
  config.epochs = 3;
  config.learning_rate = 0.3;
  Rng rng(20);
  Result<std::vector<float>> updated = client.LocalUpdate(
      prototype.GetParameters(), scratch, config, rng);
  ASSERT_TRUE(updated.ok());
  EXPECT_NE(*updated, prototype.GetParameters());
  // The updated model should fit the local data better.
  LogisticRegression updated_model(4, 2);
  ASSERT_TRUE(updated_model.SetParameters(*updated).ok());
  EXPECT_LT(updated_model.Loss(client.data()), prototype.Loss(client.data()));
}

}  // namespace
}  // namespace fedshap
