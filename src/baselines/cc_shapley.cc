#include "baselines/cc_shapley.h"

#include "core/stratified.h"
#include "util/combinatorics.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace fedshap {

Result<ValuationResult> CcShapley(UtilitySession& session,
                                  const CcShapleyConfig& config) {
  const int n = session.num_clients();
  if (n < 1) return Status::InvalidArgument("need at least one client");
  if (config.rounds < 1) {
    return Status::InvalidArgument("rounds must be >= 1");
  }
  Stopwatch timer;
  Rng rng(config.seed);

  // strata[i][k-1] accumulates client i's complementary contributions
  // whose "with-i" coalition has size k, as the shared running-moment
  // statistics of the stratified framework (core/stratified.h).
  std::vector<std::vector<StratumMoments>> strata(
      n, std::vector<StratumMoments>(n));

  // Draw every round's (S, N\S) pair first — the rng stream does not
  // depend on utilities — then train the whole batch as one fan-out,
  // accounted in the order a sequential run would evaluate.
  std::vector<std::pair<int, Coalition>> drawn;  // (k, S) per round
  std::vector<Coalition> order;
  drawn.reserve(config.rounds);
  order.reserve(2 * static_cast<size_t>(config.rounds));
  for (int t = 0; t < config.rounds; ++t) {
    const int k =
        static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n))) + 1;
    const Coalition s = RandomSubsetOfSize(n, k, rng);
    drawn.emplace_back(k, s);
    order.push_back(s);
    order.push_back(s.ComplementIn(n));
  }
  FEDSHAP_ASSIGN_OR_RETURN(std::vector<double> u,
                           session.EvaluateBatch(order));

  for (int t = 0; t < config.rounds; ++t) {
    const int k = drawn[t].first;
    const Coalition& s = drawn[t].second;
    const double u_s = u[2 * static_cast<size_t>(t)];
    const double u_c = u[2 * static_cast<size_t>(t) + 1];
    const double cc = u_s - u_c;
    // One pair informs every client (Zhang et al.'s key efficiency trick).
    for (int i = 0; i < n; ++i) {
      if (s.Contains(i)) {
        strata[i][k - 1].Add(cc);
      } else {
        const int comp_size = n - k;
        if (comp_size >= 1) {
          strata[i][comp_size - 1].Add(-cc);
        }
      }
    }
  }

  std::vector<double> values(n, 0.0);
  for (int i = 0; i < n; ++i) {
    double total = 0.0;
    for (int k = 0; k < n; ++k) {
      if (strata[i][k].count > 0) total += strata[i][k].Mean();
    }
    values[i] = total / n;
  }

  return FinishValuation(std::move(values), session,
                         timer.ElapsedSeconds());
}

}  // namespace fedshap
