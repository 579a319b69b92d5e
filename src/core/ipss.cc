#include "core/ipss.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/resumable.h"
#include "util/combinatorics.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace fedshap {

int IpssKStar(int n, int total_rounds) {
  if (total_rounds < 1) return -1;
  int k_star = -1;
  uint64_t used = 0;
  for (int k = 0; k <= n; ++k) {
    const uint64_t stratum = BinomialU64(n, k);
    if (used + stratum > static_cast<uint64_t>(total_rounds)) break;
    used += stratum;
    k_star = k;
  }
  return k_star;
}

std::vector<Coalition> BalancedCoalitionSample(int n, int size, int count,
                                               Rng& rng) {
  FEDSHAP_CHECK(size >= 1 && size <= n);
  FEDSHAP_CHECK(count >= 0);
  std::vector<Coalition> sample;
  std::unordered_set<Coalition, CoalitionHash> used;
  std::vector<int> coverage(n, 0);

  constexpr int kMaxTries = 64;
  for (int s = 0; s < count; ++s) {
    Coalition chosen;
    bool accepted = false;
    for (int attempt = 0; attempt < kMaxTries && !accepted; ++attempt) {
      // Constraint (3): equal per-client frequency. Greedily prefer the
      // clients with the lowest coverage so far; random jitter breaks ties
      // and, on retries, increasingly randomizes to escape duplicates.
      std::vector<std::pair<double, int>> keyed(n);
      const double jitter = 0.25 + attempt;  // grows with each retry
      for (int i = 0; i < n; ++i) {
        keyed[i] = {coverage[i] + jitter * rng.Uniform(), i};
      }
      std::sort(keyed.begin(), keyed.end());
      Coalition candidate;
      for (int j = 0; j < size; ++j) candidate.Add(keyed[j].second);
      if (used.count(candidate) == 0) {
        chosen = candidate;
        accepted = true;
      }
    }
    if (!accepted) break;  // stratum effectively exhausted
    used.insert(chosen);
    chosen.ForEach([&](int member) { ++coverage[member]; });
    sample.push_back(chosen);
  }
  return sample;
}

Result<ValuationResult> AdaptiveIpssShapley(
    UtilitySession& session, const AdaptiveIpssConfig& config) {
  if (config.initial_rounds < 1) {
    return Status::InvalidArgument("initial_rounds must be >= 1");
  }
  if (config.max_rounds < config.initial_rounds) {
    return Status::InvalidArgument("max_rounds must be >= initial_rounds");
  }
  if (config.tolerance < 0.0) {
    return Status::InvalidArgument("tolerance must be >= 0");
  }
  Stopwatch timer;

  std::vector<double> previous;
  ValuationResult current;
  int gamma = config.initial_rounds;
  while (true) {
    IpssConfig step;
    step.total_rounds = gamma;
    step.seed = config.seed;
    FEDSHAP_ASSIGN_OR_RETURN(
        current, IpssSweep(session.num_clients(), step).Run(session));
    if (!previous.empty()) {
      // Relative l2 change between consecutive estimates.
      double diff_sq = 0.0, norm_sq = 0.0;
      for (size_t i = 0; i < current.values.size(); ++i) {
        const double d = current.values[i] - previous[i];
        diff_sq += d * d;
        norm_sq += current.values[i] * current.values[i];
      }
      const bool converged =
          norm_sq == 0.0 ? diff_sq == 0.0
                         : std::sqrt(diff_sq / norm_sq) < config.tolerance;
      if (converged) break;
    }
    if (gamma >= config.max_rounds) break;
    previous = current.values;
    gamma = std::min(config.max_rounds, gamma * 2);
  }
  // The session's counters already span every doubling; only the wall
  // time of the last step needs widening to the whole loop.
  current.wall_seconds = timer.ElapsedSeconds();
  return current;
}

Result<ValuationResult> IpssShapley(UtilitySession& session,
                                    const IpssConfig& config) {
  return IpssSweep(session.num_clients(), config).Run(session);
}

}  // namespace fedshap
