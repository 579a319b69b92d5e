#include "common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "baselines/cc_shapley.h"
#include "baselines/dig_fl.h"
#include "baselines/extended_gtb.h"
#include "baselines/extended_tmc.h"
#include "baselines/gtg_shapley.h"
#include "baselines/lambda_mr.h"
#include "baselines/or_baseline.h"
#include "core/kgreedy.h"
#include "core/valuation_metrics.h"
#include "data/synthetic.h"
#include "ml/cnn.h"
#include "ml/kernel_backend.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "util/logging.h"
#include "util/combinatorics.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace fedshap {
namespace bench {

BenchOptions BenchOptions::Parse(int argc, char** argv) {
  BenchOptions options;
  if (const char* env = std::getenv("FEDSHAP_BENCH_SCALE")) {
    options.scale = std::atof(env);
  }
  if (const char* env = std::getenv("FEDSHAP_BENCH_THREADS")) {
    options.threads = std::atoi(env);
  }
  if (const char* env = std::getenv("FEDSHAP_BENCH_BATCH_SIZE")) {
    options.batch_size = std::atoi(env);
  }
  if (const char* env = std::getenv("FEDSHAP_BENCH_CACHE_FILE")) {
    options.cache_file = env;
  }
  if (const char* env = std::getenv("FEDSHAP_BENCH_STORE_DIR")) {
    options.store_dir = env;
  }
  if (const char* env = std::getenv("FEDSHAP_BENCH_JSON")) {
    options.json = env;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      options.scale = std::atof(arg.c_str() + 8);
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--quick") {
      options.scale = 0.4;
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--batch-size=", 0) == 0) {
      options.batch_size = std::atoi(arg.c_str() + 13);
    } else if (arg.rfind("--cache-file=", 0) == 0) {
      options.cache_file = arg.substr(13);
    } else if (arg.rfind("--store-dir=", 0) == 0) {
      options.store_dir = arg.substr(12);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json = arg.substr(7);
    }
  }
  if (options.scale <= 0.0) options.scale = 1.0;
  if (options.threads > 0) {
    // Held for the life of the process; a later Parse re-pins.
    static std::optional<PinnedThreads> pinned;
    pinned.reset();
    pinned.emplace(options.threads);
  } else {
    options.threads = WorkerBudget::Global().total() + 1;
  }
  if (options.batch_size < 0) options.batch_size = 0;
  return options;
}

size_t BenchOptions::ScaledRows(size_t rows) const {
  const size_t scaled = static_cast<size_t>(rows * scale);
  return std::max<size_t>(scaled, 64);
}

namespace {

/// Reads a `<field>  1234 kB` line from /proc/self/status (Linux); other
/// platforms get 0, and consumers treat 0 as "no reading".
uint64_t ReadRssBytes(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t bytes = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, std::strlen(field)) != 0) continue;
    bytes = std::strtoull(line + std::strlen(field), nullptr, 10) * 1024;
    break;
  }
  std::fclose(f);
  return bytes;
}

}  // namespace

std::string BenchOptions::StoreStem() const {
  if (!cache_file.empty()) return cache_file;
  if (!store_dir.empty()) return store_dir + "/utilities";
  return "";
}

uint64_t PeakRssBytes() { return ReadRssBytes("VmHWM:"); }

uint64_t CurrentRssBytes() { return ReadRssBytes("VmRSS:"); }

void PrintRunHeader(const char* title, const BenchOptions& options,
                    bool runner_backed) {
  std::printf("=== %s ===\n", title);
  if (runner_backed) {
    char batch[16] = "default";
    if (options.batch_size > 0) {
      std::snprintf(batch, sizeof(batch), "%d", options.batch_size);
    }
    std::printf(
        "config: scale=%.2f seed=%llu threads=%d batch-size=%s cache=%s "
        "resume=%s\n",
        options.scale, static_cast<unsigned long long>(options.seed),
        options.threads, batch,
        options.StoreStem().empty() ? "(none)" : options.StoreStem().c_str(),
        options.resume ? "yes" : "no");
  } else {
    std::printf(
        "config: scale=%.2f seed=%llu (closed-form utilities, reseeded "
        "per run: --threads/--cache-file do not apply)\n",
        options.scale, static_cast<unsigned long long>(options.seed));
  }
  // Hardware provenance: which kernel backend produced these numbers
  // and how many compute slots the run could use.
  std::printf("%s\n\n", KernelProvenanceString().c_str());
}

// ---------------------------------------------------------------------------
// BenchJson

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // JSON has no inf/nan literals; null keeps consumers parsing.
  if (std::isnan(value) || std::isinf(value)) return "null";
  return buf;
}

}  // namespace

BenchJson::Record& BenchJson::Record::Label(const std::string& key,
                                            const std::string& value) {
  labels_.emplace_back(key, value);
  return *this;
}

BenchJson::Record& BenchJson::Record::Metric(const std::string& key,
                                             double value) {
  metrics_.emplace_back(key, value);
  return *this;
}

BenchJson::Record& BenchJson::Add(const std::string& name) {
  records_.emplace_back();
  records_.back().name_ = name;
  return records_.back();
}

Status BenchJson::WriteTo(const std::string& path) const {
  if (path.empty()) return Status::OK();
  std::string out;
  out += "{\n  \"bench\": \"" + JsonEscape(bench_name_) + "\",\n";
  out += "  \"provenance\": {\n";
  out += "    \"kernel_backend\": \"" +
         std::string(KernelBackendName(SelectedKernelBackend())) + "\",\n";
  out += "    \"worker_budget\": " +
         std::to_string(WorkerBudget::Global().total()) + ",\n";
  out += "    \"hardware_threads\": " +
         std::to_string(ThreadPool::DefaultThreads()) + ",\n";
  out += "    \"peak_rss_bytes\": " + std::to_string(PeakRssBytes()) + "\n";
  out += "  },\n  \"records\": [\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    out += "    {\"name\": \"" + JsonEscape(record.name_) + "\"";
    for (const auto& [key, value] : record.labels_) {
      out += ", \"" + JsonEscape(key) + "\": \"" + JsonEscape(value) + "\"";
    }
    for (const auto& [key, value] : record.metrics_) {
      out += ", \"" + JsonEscape(key) + "\": " + JsonNumber(value);
    }
    out += i + 1 < records_.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open bench JSON output: " + path);
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const int closed = std::fclose(f);
  if (written != out.size() || closed != 0) {
    return Status::Internal("short write to bench JSON output: " + path);
  }
  return Status::OK();
}

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMlp:
      return "MLP";
    case ModelKind::kCnn:
      return "CNN";
    case ModelKind::kLogReg:
      return "LogReg";
    case ModelKind::kXgb:
      return "XGB";
  }
  return "?";
}

namespace {

constexpr int kImageSide = 8;
constexpr int kDigitClasses = 10;

std::unique_ptr<Model> MakePrototype(ModelKind kind, int features,
                                     int classes, uint64_t seed) {
  std::unique_ptr<Model> model;
  switch (kind) {
    case ModelKind::kMlp:
      model = std::make_unique<Mlp>(features, 16, classes);
      break;
    case ModelKind::kCnn: {
      const int side = static_cast<int>(std::lround(std::sqrt(features)));
      FEDSHAP_CHECK(side * side == features);
      model = std::make_unique<Cnn>(side, 4, classes);
      break;
    }
    case ModelKind::kLogReg:
      model = std::make_unique<LogisticRegression>(features, classes);
      break;
    case ModelKind::kXgb:
      FEDSHAP_CHECK(false);  // GBDT is not a gradient Model
  }
  Rng rng(seed);
  model->InitializeParameters(rng);
  return model;
}

FedAvgConfig MakeFedAvgConfig(ModelKind kind, uint64_t seed,
                              int batch_size_override) {
  FedAvgConfig config;
  config.rounds = 5;
  config.local.epochs = 2;
  config.local.batch_size = 16;
  config.local.learning_rate = kind == ModelKind::kCnn ? 0.15 : 0.25;
  config.seed = seed;
  if (batch_size_override > 0) config.local.batch_size = batch_size_override;
  return config;
}

Scenario AssembleFedAvg(std::vector<Dataset> clients, Dataset test,
                        ModelKind kind, int classes, uint64_t seed,
                        int batch_size_override, std::string description) {
  const int features = test.num_features();
  std::unique_ptr<Model> prototype =
      MakePrototype(kind, features, classes, seed + 17);
  Result<std::unique_ptr<FedAvgUtility>> utility = FedAvgUtility::Create(
      std::move(clients), std::move(test), *prototype,
      MakeFedAvgConfig(kind, seed, batch_size_override));
  FEDSHAP_CHECK_OK(utility.status());
  Scenario scenario;
  scenario.n = static_cast<int>((*utility)->num_clients());
  scenario.fedavg = utility->get();
  scenario.utility = std::move(utility).value();
  scenario.description = std::move(description);
  return scenario;
}

}  // namespace

Scenario MakeFemnistScenario(int n, ModelKind kind,
                             const BenchOptions& options) {
  FEDSHAP_CHECK(kind != ModelKind::kXgb);
  DigitsConfig digits;
  digits.image_size = kImageSide;
  digits.num_classes = kDigitClasses;
  digits.num_writers = 4 * n;
  digits.pixel_noise = 0.3;
  digits.writer_shift = 0.25;
  Rng rng(options.seed);
  const size_t rows = options.ScaledRows(350 * n + 400);
  Result<FederatedSource> source = GenerateDigits(digits, rows, rng);
  FEDSHAP_CHECK_OK(source.status());

  // Hold out a test set (last rows; generation order is i.i.d.).
  const size_t test_rows = options.ScaledRows(400);
  const size_t train_rows = source->data.size() - test_rows;
  FederatedSource train;
  train.num_groups = source->num_groups;
  train.data = source->data.Head(train_rows);
  train.group_ids.assign(source->group_ids.begin(),
                         source->group_ids.begin() + train_rows);
  Dataset test;
  {
    std::vector<size_t> idx;
    for (size_t i = train_rows; i < source->data.size(); ++i) {
      idx.push_back(i);
    }
    test = source->data.Subset(idx);
  }

  Result<std::vector<Dataset>> clients = PartitionByGroup(train, n, rng);
  FEDSHAP_CHECK_OK(clients.status());
  return AssembleFedAvg(std::move(clients).value(), std::move(test), kind,
                        kDigitClasses, options.seed, options.batch_size,
                        "FEMNIST-like digits, by-writer, n=" +
                            std::to_string(n) + ", " + ModelKindName(kind));
}

Scenario MakeAdultScenario(int n, ModelKind kind,
                           const BenchOptions& options) {
  TabularConfig tabular;
  tabular.num_occupations = std::max(12, 4 * n);
  Rng rng(options.seed + 1);
  const size_t rows = options.ScaledRows(400 * n + 500);
  Result<FederatedSource> source = GenerateTabular(tabular, rows, rng);
  FEDSHAP_CHECK_OK(source.status());

  const size_t test_rows = options.ScaledRows(400);
  const size_t train_rows = source->data.size() - test_rows;
  FederatedSource train;
  train.num_groups = source->num_groups;
  train.data = source->data.Head(train_rows);
  train.group_ids.assign(source->group_ids.begin(),
                         source->group_ids.begin() + train_rows);
  Dataset test;
  {
    std::vector<size_t> idx;
    for (size_t i = train_rows; i < source->data.size(); ++i) {
      idx.push_back(i);
    }
    test = source->data.Subset(idx);
  }
  Result<std::vector<Dataset>> clients = PartitionByGroup(train, n, rng);
  FEDSHAP_CHECK_OK(clients.status());

  const std::string description = "Adult-like tabular, by-occupation, n=" +
                                  std::to_string(n) + ", " +
                                  ModelKindName(kind);
  if (kind == ModelKind::kXgb) {
    GbdtConfig gbdt;
    gbdt.num_trees = 20;
    gbdt.max_depth = 3;
    Result<std::unique_ptr<GbdtUtility>> utility = GbdtUtility::Create(
        std::move(clients).value(), std::move(test), gbdt);
    FEDSHAP_CHECK_OK(utility.status());
    Scenario scenario;
    scenario.n = n;
    scenario.utility = std::move(utility).value();
    scenario.description = description;
    return scenario;
  }
  return AssembleFedAvg(std::move(clients).value(), std::move(test), kind,
                        2, options.seed + 1, options.batch_size, description);
}

Scenario MakeSyntheticScenario(PartitionScheme scheme, int n, ModelKind kind,
                               const BenchOptions& options) {
  FEDSHAP_CHECK(kind != ModelKind::kXgb);
  DigitsConfig digits;
  digits.image_size = kImageSide;
  digits.num_classes = kDigitClasses;
  digits.num_writers = 1;  // IID pool; the partitioner creates the setup
  digits.pixel_noise = 0.3;
  Rng rng(options.seed + 2);
  const size_t rows = options.ScaledRows(350 * n + 400);
  Result<FederatedSource> source = GenerateDigits(digits, rows, rng);
  FEDSHAP_CHECK_OK(source.status());

  const size_t test_rows = options.ScaledRows(400);
  const size_t train_rows = source->data.size() - test_rows;
  Dataset train = source->data.Head(train_rows);
  Dataset test;
  {
    std::vector<size_t> idx;
    for (size_t i = train_rows; i < source->data.size(); ++i) {
      idx.push_back(i);
    }
    test = source->data.Subset(idx);
  }

  PartitionConfig part;
  part.scheme = scheme;
  part.num_clients = n;
  Result<std::vector<Dataset>> clients = PartitionDataset(train, part, rng);
  FEDSHAP_CHECK_OK(clients.status());
  return AssembleFedAvg(std::move(clients).value(), std::move(test), kind,
                        kDigitClasses, options.seed + 2, options.batch_size,
                        std::string(PartitionSchemeName(scheme)) + ", n=" +
                            std::to_string(n) + ", " + ModelKindName(kind));
}

ScalabilityScenario MakeScalabilityScenario(int n,
                                            const BenchOptions& options) {
  DigitsConfig digits;
  digits.image_size = 6;  // 36 features: the scalability bench is volume
  digits.num_classes = 5;
  digits.num_writers = 1;
  digits.pixel_noise = 0.3;
  Rng rng(options.seed + 3);
  const size_t per_client = options.ScaledRows(600) / 20;  // ~30 rows
  Result<FederatedSource> source =
      GenerateDigits(digits, per_client * n + 300, rng);
  FEDSHAP_CHECK_OK(source.status());
  Dataset pool = source->data.Head(per_client * n);
  Dataset test;
  {
    std::vector<size_t> idx;
    for (size_t i = per_client * n; i < source->data.size(); ++i) {
      idx.push_back(i);
    }
    test = source->data.Subset(idx);
  }

  // Base equal split.
  PartitionConfig part;
  part.scheme = PartitionScheme::kSameSizeSameDist;
  part.num_clients = n;
  Result<std::vector<Dataset>> clients = PartitionDataset(pool, part, rng);
  FEDSHAP_CHECK_OK(clients.status());
  std::vector<Dataset> all = std::move(clients).value();

  // Plant 5% free riders (empty datasets) and 5% duplicates (same data as
  // a partner), as in Fig. 9.
  ScalabilityScenario result;
  const int nulls = std::max(1, n / 20);
  const int dups = std::max(1, n / 20);
  for (int j = 0; j < nulls; ++j) {
    const int victim = n - 1 - j;
    Result<Dataset> empty =
        Dataset::Create(pool.num_features(), pool.num_classes());
    FEDSHAP_CHECK_OK(empty.status());
    all[victim] = std::move(empty).value();
    result.null_players.push_back(victim);
  }
  for (int j = 0; j < dups; ++j) {
    const int a = 2 * j;      // keep its data
    const int b = 2 * j + 1;  // becomes a's twin
    all[b] = all[a];
    result.duplicate_pairs.emplace_back(a, b);
  }

  LogisticRegression prototype(pool.num_features(), pool.num_classes());
  Rng init(options.seed + 4);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = 2;
  config.local.epochs = 1;
  config.local.batch_size = 16;
  config.local.learning_rate = 0.3;
  config.seed = options.seed + 5;
  if (options.batch_size > 0) config.local.batch_size = options.batch_size;
  Result<std::unique_ptr<FedAvgUtility>> utility = FedAvgUtility::Create(
      std::move(all), std::move(test), prototype, config);
  FEDSHAP_CHECK_OK(utility.status());
  result.scenario.n = n;
  result.scenario.fedavg = utility->get();
  result.scenario.utility = std::move(utility).value();
  result.scenario.description =
      "scalability digits, n=" + std::to_string(n) + ", LogReg";
  return result;
}

int PaperGamma(int n) {
  switch (n) {
    case 3:
      return 5;
    case 6:
      return 8;
    case 10:
      return 32;
    default:
      return std::max(4, static_cast<int>(std::lround(
                             n * std::log2(static_cast<double>(n)))));
  }
}

const char* AlgoName(Algo algo) {
  switch (algo) {
    case Algo::kPermShapley:
      return "Perm-Shap.";
    case Algo::kMcShapley:
      return "MC-Shap.";
    case Algo::kDigFl:
      return "DIG-FL";
    case Algo::kExtTmc:
      return "Ext-TMC";
    case Algo::kExtGtb:
      return "Ext-GTB";
    case Algo::kCcShapley:
      return "CC-Shap.";
    case Algo::kGtgShapley:
      return "GTG-Shap.";
    case Algo::kOr:
      return "OR";
    case Algo::kLambdaMr:
      return "lambda-MR";
    case Algo::kIpss:
      return "IPSS";
  }
  return "?";
}

std::vector<Algo> AllAlgos() {
  return {Algo::kPermShapley, Algo::kMcShapley, Algo::kDigFl,
          Algo::kExtTmc,      Algo::kExtGtb,    Algo::kCcShapley,
          Algo::kGtgShapley,  Algo::kOr,        Algo::kLambdaMr,
          Algo::kIpss};
}

std::vector<Algo> SamplingAlgos() {
  return {Algo::kExtTmc, Algo::kExtGtb, Algo::kCcShapley, Algo::kIpss};
}

ScenarioRunner::ScenarioRunner(Scenario scenario)
    : scenario_(std::move(scenario)), cache_(scenario_.utility.get()) {}

ScenarioRunner::ScenarioRunner(Scenario scenario,
                               const BenchOptions& options)
    : ScenarioRunner(std::move(scenario)) {
  const std::string stem = options.StoreStem();
  if (stem.empty()) return;
  // Flush after every training (flush_bytes=1: any appended byte trips
  // the interval): one bench utility evaluation is a full FL training,
  // so fsync cost is noise next to what a crash would otherwise lose.
  Result<std::unique_ptr<UtilityStore>> store =
      OpenAndAttachStore(stem, options.resume, *scenario_.utility, cache_,
                         /*flush_bytes=*/1);
  FEDSHAP_CHECK_OK(store.status());
  store_ = std::move(store).value();
  std::printf("[cache] %s: %zu utilities loaded (%s)\n",
              store_->path().c_str(), store_->loaded_entries(),
              scenario_.description.c_str());
}

ScenarioRunner::~ScenarioRunner() {
  if (store_ != nullptr) {
    Status flushed = store_->Flush();
    if (!flushed.ok()) {
      std::fprintf(stderr, "[cache] final flush failed: %s\n",
                   flushed.ToString().c_str());
    }
  }
}

Result<ReconstructionContext*> ScenarioRunner::GetContext() {
  if (scenario_.fedavg == nullptr) {
    return Status::FailedPrecondition(
        "gradient-based baselines need a FedAvg utility");
  }
  if (context_ == nullptr) {
    FEDSHAP_ASSIGN_OR_RETURN(context_,
                             ReconstructionContext::Create(
                                 *scenario_.fedavg));
  }
  return context_.get();
}

const std::vector<double>& ScenarioRunner::GroundTruth() {
  if (!ground_truth_.has_value()) {
    UtilitySession session(&cache_);
    Result<ValuationResult> exact = ExactShapleyMc(session);
    FEDSHAP_CHECK_OK(exact.status());
    ground_truth_ = exact->values;
    ground_truth_seconds_ = session.charged_seconds();
  }
  return *ground_truth_;
}

double ScenarioRunner::MeanTrainingCost() const {
  const size_t entries = cache_.size();
  if (entries == 0) return 0.0;
  // Recorded costs, not this-process compute time: a store-warmed run
  // still knows what each of its utilities originally cost to train.
  return cache_.recorded_cost_seconds() / static_cast<double>(entries);
}

Result<AlgoRun> ScenarioRunner::Run(Algo algo, int gamma, uint64_t seed) {
  AlgoRun run;
  switch (algo) {
    case Algo::kPermShapley: {
      // Report the extrapolated cost of enumerating n! permutations, like
      // the paper's 10^6..10^9-second entries; values = ground truth.
      run.exact = true;
      run.estimated_time = true;
      run.result.values = GroundTruth();
      run.result.charged_seconds =
          EstimatePermShapleySeconds(n(), MeanTrainingCost());
      run.result.num_trainings = static_cast<size_t>(
          std::min<double>(1e18, std::exp(LogFactorial(n())) * n()));
      return run;
    }
    case Algo::kMcShapley: {
      UtilitySession session(&cache_);
      FEDSHAP_ASSIGN_OR_RETURN(run.result, ExactShapleyMc(session));
      run.exact = true;
      return run;
    }
    case Algo::kDigFl: {
      FEDSHAP_ASSIGN_OR_RETURN(ReconstructionContext * context,
                               GetContext());
      FEDSHAP_ASSIGN_OR_RETURN(run.result, DigFlShapley(*context));
      return run;
    }
    case Algo::kExtTmc: {
      UtilitySession session(&cache_);
      ExtendedTmcConfig config;
      config.permutations = gamma;
      config.seed = seed;
      FEDSHAP_ASSIGN_OR_RETURN(run.result,
                               ExtendedTmcShapley(session, config));
      return run;
    }
    case Algo::kExtGtb: {
      UtilitySession session(&cache_);
      ExtendedGtbConfig config;
      config.samples = gamma;
      config.seed = seed;
      FEDSHAP_ASSIGN_OR_RETURN(run.result,
                               ExtendedGtbShapley(session, config));
      return run;
    }
    case Algo::kCcShapley: {
      UtilitySession session(&cache_);
      CcShapleyConfig config;
      config.rounds = gamma;
      config.seed = seed;
      FEDSHAP_ASSIGN_OR_RETURN(run.result, CcShapley(session, config));
      return run;
    }
    case Algo::kGtgShapley: {
      FEDSHAP_ASSIGN_OR_RETURN(ReconstructionContext * context,
                               GetContext());
      GtgShapleyConfig config;
      config.max_permutations_per_round = std::max(2, gamma / 4);
      config.seed = seed;
      FEDSHAP_ASSIGN_OR_RETURN(run.result, GtgShapley(*context, config));
      return run;
    }
    case Algo::kOr: {
      FEDSHAP_ASSIGN_OR_RETURN(ReconstructionContext * context,
                               GetContext());
      FEDSHAP_ASSIGN_OR_RETURN(run.result, OrShapley(*context));
      return run;
    }
    case Algo::kLambdaMr: {
      FEDSHAP_ASSIGN_OR_RETURN(ReconstructionContext * context,
                               GetContext());
      LambdaMrConfig config;
      FEDSHAP_ASSIGN_OR_RETURN(run.result,
                               LambdaMrShapley(*context, config));
      return run;
    }
    case Algo::kIpss: {
      UtilitySession session(&cache_);
      IpssConfig config;
      config.total_rounds = gamma;
      config.seed = seed;
      FEDSHAP_ASSIGN_OR_RETURN(run.result, IpssShapley(session, config));
      return run;
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

std::string TimeCell(const AlgoRun& run) {
  if (!run.applicable) return "\\";
  std::string cell = FormatSeconds(run.result.charged_seconds);
  if (run.estimated_time) cell = "~" + cell;
  return cell;
}

std::string ErrorCell(const AlgoRun& run,
                      const std::vector<double>& exact) {
  if (!run.applicable) return "\\";
  if (run.exact) return "-";
  return FormatDouble(RelativeL2Error(exact, run.result.values), 4);
}

}  // namespace bench
}  // namespace fedshap
