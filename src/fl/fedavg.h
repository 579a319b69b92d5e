#ifndef FEDSHAP_FL_FEDAVG_H_
#define FEDSHAP_FL_FEDAVG_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "fl/client.h"
#include "fl/training_log.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "util/status.h"

namespace fedshap {

/// FedAvg hyper-parameters (McMahan et al., 2017).
struct FedAvgConfig {
  /// Communication rounds.
  int rounds = 5;
  /// Local SGD configuration used by each client per round.
  SgdConfig local;
  /// Base seed for local-training randomness. The effective seed is mixed
  /// with the participating coalition so each coalition's training is an
  /// independent yet reproducible run.
  uint64_t seed = 42;
};

/// Trains `prototype`'s architecture with FedAvg over the given clients.
///
/// The returned model starts from the prototype's *current* parameters, so
/// every coalition trains from the same initialization — a prerequisite for
/// both fair utility comparison and gradient-based reconstruction.
///
/// If `log` is non-null, records the per-round global parameters and client
/// deltas for gradient-based valuation baselines.
///
/// Passing an empty client list returns a clone of the prototype (the
/// "model trained on no data" M_empty used by U(M_empty)).
///
/// **Hierarchical parallelism.** Within a round, the participating
/// clients' local trainings are independent by construction, so they are
/// fanned out over the shared training pool (util/thread_pool.h); round
/// aggregation remains a barrier. The width is bounded by a WorkerBudget
/// lease, so under a saturated coalition fan-out (UtilityCache::Prefetch)
/// or busy service workers the clients train sequentially instead of
/// oversubscribing cores; a batch with one miss leaves it the budget.
/// The result is *bit-identical* at every worker count: per-client RNG
/// streams are forked in client order before the fan-out, and the
/// aggregation consumes local models in client order.
Result<std::unique_ptr<Model>> TrainFedAvg(
    const Model& prototype, const std::vector<const FlClient*>& clients,
    const FedAvgConfig& config, TrainingLog* log = nullptr);

/// Process-global cap on concurrent local client trainings inside one
/// TrainFedAvg round. 0 (the default) lets the WorkerBudget decide;
/// 1 forces sequential training. Also readable from the
/// FEDSHAP_FEDAVG_WORKERS environment variable at first use. Not part of
/// any workload fingerprint — the trained model is bit-identical at
/// every setting (tests/fl_fedavg_test.cc pins this).
void SetFedAvgClientParallelism(int max_workers);

/// The current cap set by SetFedAvgClientParallelism (0 = budget-driven).
int FedAvgClientParallelism();

}  // namespace fedshap

#endif  // FEDSHAP_FL_FEDAVG_H_
