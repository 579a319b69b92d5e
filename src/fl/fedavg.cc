#include "fl/fedavg.h"

#include <atomic>
#include <cstdlib>

#include "fl/server.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace fedshap {

namespace {

/// -1 = unread, then the FEDSHAP_FEDAVG_WORKERS value (0 when unset).
std::atomic<int> g_client_parallelism{-1};

int ReadClientParallelism() {
  int cap = g_client_parallelism.load(std::memory_order_relaxed);
  if (cap >= 0) return cap;
  int from_env = 0;
  if (const char* env = std::getenv("FEDSHAP_FEDAVG_WORKERS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) from_env = parsed;
  }
  // Losing this race is fine: both writers store the same env value.
  g_client_parallelism.store(from_env, std::memory_order_relaxed);
  return from_env;
}

}  // namespace

void SetFedAvgClientParallelism(int max_workers) {
  g_client_parallelism.store(max_workers < 0 ? 0 : max_workers,
                             std::memory_order_relaxed);
}

int FedAvgClientParallelism() { return ReadClientParallelism(); }

Result<std::unique_ptr<Model>> TrainFedAvg(
    const Model& prototype, const std::vector<const FlClient*>& clients,
    const FedAvgConfig& config, TrainingLog* log) {
  if (config.rounds < 0) {
    return Status::InvalidArgument("rounds must be >= 0");
  }
  std::unique_ptr<Model> model = prototype.Clone();
  std::vector<float> global = model->GetParameters();
  if (log != nullptr) {
    log->initial_params = global;
    log->rounds.clear();
  }

  // Mix the coalition into the seed so different coalitions draw
  // independent local-SGD noise, deterministically. Clients without data
  // are excluded from the mix: they contribute nothing to training, so a
  // coalition with and without them must produce the *same* model — the
  // exact null-player property (Def. 2(i)).
  uint64_t mixed_seed = config.seed;
  std::vector<const FlClient*> participants;
  for (const FlClient* client : clients) {
    FEDSHAP_CHECK(client != nullptr);
    if (client->num_samples() == 0) continue;  // null player: no update
    mixed_seed = mixed_seed * 0x9E3779B97F4A7C15ULL +
                 static_cast<uint64_t>(client->id()) + 0x7F4A7C15ULL;
    participants.push_back(client);
  }
  Rng rng(mixed_seed);

  if (participants.empty() || config.rounds == 0) {
    if (log != nullptr) log->final_params = global;
    return model;
  }

  // Per-round client fan-out: lease extra compute slots from the global
  // budget (0 granted under an already-saturated outer layer — see the
  // header) and shard the participants over granted+1 workers, the
  // calling thread included. Everything order-sensitive — RNG forks,
  // aggregation, log records, error selection — happens in client order
  // regardless of the shard count, so the trained model is bit-identical
  // at every worker count.
  const size_t num_participants = participants.size();
  int wanted = static_cast<int>(num_participants) - 1;
  const int cap = ReadClientParallelism();
  if (cap > 0) wanted = std::min(wanted, cap - 1);
  WorkerBudget::Lease lease(WorkerBudget::Global(), wanted);
  const int shards = 1 + lease.granted();

  std::vector<std::unique_ptr<Model>> scratch;
  scratch.reserve(shards);
  for (int s = 0; s < shards; ++s) scratch.push_back(prototype.Clone());

  for (int round = 0; round < config.rounds; ++round) {
    // Fork every participant's RNG stream up front, in client order —
    // the exact draw sequence of a sequential round.
    std::vector<Rng> client_rngs;
    client_rngs.reserve(num_participants);
    for (size_t i = 0; i < num_participants; ++i) {
      client_rngs.push_back(rng.Fork());
    }

    std::vector<std::vector<float>> updated(num_participants);
    std::vector<Status> statuses(num_participants, Status::OK());
    auto train_client = [&](size_t i) {
      Result<std::vector<float>> result = participants[i]->LocalUpdate(
          global, *scratch[i % shards], config.local, client_rngs[i]);
      if (result.ok()) {
        updated[i] = std::move(result).value();
      } else {
        statuses[i] = result.status();
      }
    };
    // Shard s trains clients s, s + shards, ...; shard 0 is this thread.
    TaskGroup group(shards > 1 ? SharedTrainingPool() : nullptr);
    for (int s = 1; s < shards; ++s) {
      group.Run([&, s] {
        for (size_t i = s; i < num_participants;
             i += static_cast<size_t>(shards)) {
          train_client(i);
        }
      });
    }
    for (size_t i = 0; i < num_participants;
         i += static_cast<size_t>(shards)) {
      train_client(i);
    }
    group.Wait();
    // First failure in client order — the same error a sequential round
    // would have returned.
    for (size_t i = 0; i < num_participants; ++i) {
      if (!statuses[i].ok()) return statuses[i];
    }

    RoundRecord record;
    if (log != nullptr) record.global_before = global;
    std::vector<std::vector<float>> local_params;
    std::vector<double> weights;
    local_params.reserve(num_participants);
    weights.reserve(num_participants);
    for (size_t i = 0; i < num_participants; ++i) {
      const FlClient* client = participants[i];
      if (log != nullptr) {
        std::vector<float> delta(updated[i].size());
        for (size_t p = 0; p < updated[i].size(); ++p) {
          delta[p] = updated[i][p] - global[p];
        }
        record.client_deltas.push_back(std::move(delta));
        record.client_ids.push_back(client->id());
        record.client_weights.push_back(
            static_cast<double>(client->num_samples()));
      }
      weights.push_back(static_cast<double>(client->num_samples()));
      local_params.push_back(std::move(updated[i]));
    }
    FEDSHAP_ASSIGN_OR_RETURN(global, FedAvgAggregate(local_params, weights));
    if (log != nullptr) log->rounds.push_back(std::move(record));
  }
  FEDSHAP_RETURN_NOT_OK(model->SetParameters(global));
  if (log != nullptr) log->final_params = global;
  return model;
}

}  // namespace fedshap
