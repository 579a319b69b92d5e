/// Resumable valuation end to end: a sweep that checkpoints its estimator
/// state after every chunk of utility evaluations and persists every FL
/// training to an on-disk utility store — then survives being killed.
///
/// Simulate a crash and recover from it:
///
///   ./resume_run --kill-after=2 --cache-file=/tmp/demo --snapshot=/tmp/demo.snap
///   ./resume_run --resume      --cache-file=/tmp/demo --snapshot=/tmp/demo.snap
///
/// The second invocation restores the snapshot (cursor, recorded
/// utilities, RNG state), preloads the persisted trainings, and finishes
/// in seconds with estimates bit-identical to an uninterrupted run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "core/resumable.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "fl/utility_store.h"
#include "ml/logistic_regression.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "ml/kernel_backend.h"

using namespace fedshap;

namespace {

struct Options {
  std::string algo = "ipss";   // ipss | stratified | exact | perm
  int n = 8;
  int gamma = 0;               // 0 = 4*n
  uint64_t seed = 7;
  int chunk = 4;               // work units per checkpoint
  int kill_after = 0;          // exit after this many chunks (0 = never)
  int threads = 0;             // compute threads; 0 = the process default
  std::string snapshot = "resume_run.snapshot";
  std::string cache_stem;      // empty = no persistent store
  bool resume = false;
};

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--algo=", 0) == 0) {
      options.algo = arg.substr(7);
    } else if (arg.rfind("--n=", 0) == 0) {
      options.n = std::atoi(arg.c_str() + 4);
    } else if (arg.rfind("--gamma=", 0) == 0) {
      options.gamma = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--chunk=", 0) == 0) {
      options.chunk = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--kill-after=", 0) == 0) {
      options.kill_after = std::atoi(arg.c_str() + 13);
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--snapshot=", 0) == 0) {
      options.snapshot = arg.substr(11);
    } else if (arg.rfind("--cache-file=", 0) == 0) {
      options.cache_stem = arg.substr(13);
    } else if (arg == "--resume") {
      options.resume = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (options.gamma <= 0) options.gamma = 4 * options.n;
  if (options.chunk < 1) options.chunk = 1;
  return options;
}

/// A small but real FedAvg workload: every utility evaluation trains a
/// federated logistic-regression model, so interrupting and resuming has
/// visible cost to save.
std::unique_ptr<UtilityFunction> MakeUtility(const Options& options) {
  DigitsConfig digits;
  digits.image_size = 6;
  digits.num_classes = 5;
  digits.num_writers = 2 * options.n;
  digits.pixel_noise = 0.3;
  Rng rng(options.seed);
  Result<FederatedSource> source =
      GenerateDigits(digits, 120 * options.n + 200, rng);
  FEDSHAP_CHECK_OK(source.status());

  const size_t test_rows = 200;
  const size_t train_rows = source->data.size() - test_rows;
  FederatedSource train;
  train.num_groups = source->num_groups;
  train.data = source->data.Head(train_rows);
  train.group_ids.assign(source->group_ids.begin(),
                         source->group_ids.begin() + train_rows);
  std::vector<size_t> test_idx;
  for (size_t i = train_rows; i < source->data.size(); ++i) {
    test_idx.push_back(i);
  }
  Dataset test = source->data.Subset(test_idx);

  Result<std::vector<Dataset>> clients =
      PartitionByGroup(train, options.n, rng);
  FEDSHAP_CHECK_OK(clients.status());

  LogisticRegression prototype(test.num_features(), test.num_classes());
  Rng init(options.seed + 17);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = 3;
  config.local.epochs = 1;
  config.local.batch_size = 16;
  config.local.learning_rate = 0.3;
  config.seed = options.seed + 29;
  Result<std::unique_ptr<FedAvgUtility>> utility = FedAvgUtility::Create(
      std::move(clients).value(), std::move(test), prototype, config);
  FEDSHAP_CHECK_OK(utility.status());
  return std::move(utility).value();
}

std::unique_ptr<ResumableEstimator> MakeEstimator(const Options& options) {
  if (options.algo == "ipss") {
    IpssConfig config;
    config.total_rounds = options.gamma;
    config.seed = options.seed;
    return std::make_unique<IpssSweep>(options.n, config);
  }
  if (options.algo == "stratified") {
    StratifiedConfig config;
    config.total_rounds = options.gamma;
    config.seed = options.seed;
    return std::make_unique<StratifiedSweep>(options.n, config);
  }
  if (options.algo == "exact") {
    return std::make_unique<ExactSweep>(options.n, SvScheme::kMarginal);
  }
  if (options.algo == "perm") {
    PermutationMcConfig config;
    config.permutations = std::max(1, options.gamma / options.n);
    config.seed = options.seed;
    return std::make_unique<PermutationMcSweep>(options.n, config);
  }
  std::fprintf(stderr, "unknown --algo=%s (ipss|stratified|exact|perm)\n",
               options.algo.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  // --threads=N runs on N compute threads (1 = sequential), shared by
  // the coalition fan-out and the FedAvg client fan-out.
  std::optional<PinnedThreads> pinned;
  if (options.threads > 0) {
    pinned.emplace(options.threads);
  } else {
    options.threads = WorkerBudget::Global().total() + 1;
  }
  // Provenance: which kernel backend / worker budget produced this
  // run (see ml/kernel_backend.h).
  std::printf("%s\n", fedshap::KernelProvenanceString().c_str());
  std::printf("resume_run: algo=%s n=%d gamma=%d chunk=%d threads=%d\n",
              options.algo.c_str(), options.n, options.gamma,
              options.chunk, options.threads);
  std::printf("snapshot=%s cache=%s resume=%s kill-after=%d\n\n",
              options.snapshot.c_str(),
              options.cache_stem.empty() ? "(none)"
                                         : options.cache_stem.c_str(),
              options.resume ? "yes" : "no", options.kill_after);

  std::unique_ptr<UtilityFunction> utility = MakeUtility(options);
  UtilityCache cache(utility.get());

  // Persistent utility store: every FL training this process performs
  // becomes durable; with --resume, previous processes' trainings are
  // preloaded as warm cache entries.
  std::unique_ptr<UtilityStore> store;
  if (!options.cache_stem.empty()) {
    Result<std::unique_ptr<UtilityStore>> opened = OpenAndAttachStore(
        options.cache_stem, options.resume, *utility, cache,
        /*flush_every=*/1);
    FEDSHAP_CHECK_OK(opened.status());
    store = std::move(opened).value();
    std::printf("[store] %s: %zu trainings preloaded\n",
                store->path().c_str(), store->loaded_entries());
  }

  std::unique_ptr<ResumableEstimator> estimator = MakeEstimator(options);
  if (options.resume) {
    Status restored = LoadSnapshot(*estimator, options.snapshot);
    if (restored.ok()) {
      std::printf("[snapshot] restored %s at %zu/%zu work units\n",
                  options.snapshot.c_str(), estimator->completed_units(),
                  estimator->total_units());
    } else if (restored.code() == StatusCode::kNotFound) {
      std::printf("[snapshot] %s not found, starting fresh\n",
                  options.snapshot.c_str());
    } else {
      std::fprintf(stderr, "snapshot restore failed: %s\n",
                   restored.ToString().c_str());
      return 1;
    }
  }

  UtilitySession session(&cache);

  int chunks_done = 0;
  while (!estimator->done()) {
    Status stepped = estimator->Step(session, options.chunk);
    if (!stepped.ok()) {
      std::fprintf(stderr, "step failed: %s\n",
                   stepped.ToString().c_str());
      return 1;
    }
    Status saved = SaveSnapshot(*estimator, options.snapshot);
    if (!saved.ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    ++chunks_done;
    std::printf("[step] %zu/%zu work units done (checkpoint written)\n",
                estimator->completed_units(), estimator->total_units());
    if (options.kill_after > 0 && chunks_done >= options.kill_after &&
        !estimator->done()) {
      std::printf("\n[kill] simulating a crash after %d chunks; relaunch "
                  "with --resume to continue\n",
                  chunks_done);
      return 17;
    }
  }

  Result<ValuationResult> result = estimator->Finish(session);
  if (!result.ok()) {
    std::fprintf(stderr, "finish failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("\nper-client data values (%s):\n", options.algo.c_str());
  for (int i = 0; i < options.n; ++i) {
    std::printf("  client %-3d %+.6f\n", i, result->values[i]);
  }
  std::printf("\nthis process: %zu evaluations, %zu distinct trainings "
              "charged, %.3fs charged\n",
              result->num_evaluations, result->num_trainings,
              result->charged_seconds);
  std::printf("cache: %zu hits, %zu misses, %zu preloaded from disk\n",
              cache.hits(), cache.misses(), cache.preloaded());
  // The run is complete: drop the checkpoint so a later fresh invocation
  // does not accidentally resume a finished sweep.
  std::remove(options.snapshot.c_str());
  return 0;
}
