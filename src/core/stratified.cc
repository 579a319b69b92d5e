#include "core/stratified.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "core/resumable.h"
#include "util/combinatorics.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace fedshap {

const char* SvSchemeName(SvScheme scheme) {
  switch (scheme) {
    case SvScheme::kMarginal:
      return "MC-SV";
    case SvScheme::kComplementary:
      return "CC-SV";
  }
  return "unknown";
}

std::vector<int> DefaultStratumAllocation(int n, int total_rounds) {
  FEDSHAP_CHECK(n >= 1);
  FEDSHAP_CHECK(total_rounds >= 0);
  std::vector<int> allocation(n, 0);
  std::vector<uint64_t> capacity(n);
  for (int k = 1; k <= n; ++k) capacity[k - 1] = BinomialU64(n, k);
  int remaining = total_rounds;
  // Round-robin one sample at a time so small budgets still touch every
  // stratum (matching the framework's "each stratum gets m_k" spirit).
  bool progressed = true;
  while (remaining > 0 && progressed) {
    progressed = false;
    for (int k = 0; k < n && remaining > 0; ++k) {
      if (static_cast<uint64_t>(allocation[k]) < capacity[k]) {
        ++allocation[k];
        --remaining;
        progressed = true;
      }
    }
  }
  return allocation;
}

Result<ValuationResult> PerClientStratifiedShapley(
    UtilitySession& session, const PerClientStratifiedConfig& config) {
  const int n = session.num_clients();
  if (n < 1) return Status::InvalidArgument("need at least one client");
  if (config.samples_per_stratum < 1) {
    return Status::InvalidArgument("samples_per_stratum must be >= 1");
  }
  Stopwatch timer;
  Rng rng(config.seed);

  // Draw every stratum sample up front (the rng stream is independent of
  // the utilities), recording the evaluation order a sequential run would
  // use: per draw, U(S u {i}) then its scheme pair. One batch then fans
  // the trainings out under the worker budget with identical
  // accounting.
  std::vector<Coalition> order;
  for (int i = 0; i < n; ++i) {
    // Stratum k holds the coalitions S with |S| = k that exclude i.
    for (int k = 0; k <= n - 1; ++k) {
      const uint64_t population = BinomialU64(n - 1, k);
      const int m = static_cast<int>(std::min<uint64_t>(
          population, static_cast<uint64_t>(config.samples_per_stratum)));
      for (int draw = 0; draw < m; ++draw) {
        const Coalition s = RandomSubsetOfSizeExcluding(n, k, i, rng);
        order.push_back(s.With(i));
        switch (config.scheme) {
          case SvScheme::kMarginal:
            order.push_back(s);
            break;
          case SvScheme::kComplementary:
            order.push_back(s.With(i).ComplementIn(n));
            break;
        }
      }
    }
  }
  FEDSHAP_ASSIGN_OR_RETURN(std::vector<double> u, session.EvaluateBatch(order));

  std::vector<double> values(n, 0.0);
  size_t cursor = 0;
  for (int i = 0; i < n; ++i) {
    double stratum_total = 0.0;
    for (int k = 0; k <= n - 1; ++k) {
      const uint64_t population = BinomialU64(n - 1, k);
      const int m = static_cast<int>(std::min<uint64_t>(
          population, static_cast<uint64_t>(config.samples_per_stratum)));
      double stratum_sum = 0.0;
      for (int draw = 0; draw < m; ++draw) {
        const double u_with = u[cursor++];
        const double u_pair = u[cursor++];
        stratum_sum += u_with - u_pair;
      }
      stratum_total += stratum_sum / m;
    }
    values[i] = stratum_total / n;
  }
  return FinishValuation(std::move(values), session,
                         timer.ElapsedSeconds());
}

std::vector<int> SmallestFirstAllocation(int n, int total_rounds) {
  FEDSHAP_CHECK(n >= 1);
  FEDSHAP_CHECK(total_rounds >= 0);
  std::vector<uint64_t> capacity(n);
  for (int k = 1; k <= n; ++k) capacity[k - 1] = BinomialU64(n, k);
  // Stratum indices ordered by population, ties broken toward smaller k
  // (singletons before the grand coalition's size-(n-1) mirror).
  std::vector<int> order(n);
  for (int k = 0; k < n; ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (capacity[a] != capacity[b]) return capacity[a] < capacity[b];
    return a < b;
  });
  std::vector<int> allocation(n, 0);
  int remaining = total_rounds;
  // Pass 1: fully cover strata in ascending-population order. Sampling is
  // with replacement, so budget each stratum by the coupon-collector bound
  // N * (ln N + 5): a specific set is then missed with probability ~e^-5/N.
  for (int k : order) {
    if (remaining <= 0) break;
    const double population = static_cast<double>(capacity[k]);
    const double want_d = population * (std::log(population) + 5.0);
    const int want = static_cast<int>(std::min(want_d, 1e6));
    const int take = std::min(remaining, want);
    allocation[k] = take;
    remaining -= take;
  }
  // Pass 2: round-robin any leftover across all strata.
  bool progressed = true;
  while (remaining > 0 && progressed) {
    progressed = false;
    for (int k = 0; k < n && remaining > 0; ++k) {
      ++allocation[k];
      --remaining;
      progressed = true;
    }
  }
  return allocation;
}

Result<ValuationResult> StratifiedSamplingShapley(
    UtilitySession& session, const StratifiedConfig& config) {
  return StratifiedSweep(session.num_clients(), config).Run(session);
}

// ---------------------------------------------------------------------------
// Adaptive allocation

double StratumMoments::StdDev() const { return std::sqrt(Variance()); }

namespace {

/// Remaining population per stratum: C(n, k) clamped to int range, minus
/// what was already granted, floored at zero.
std::vector<int64_t> RemainingCapacity(
    int n, const std::vector<int64_t>& already_allocated) {
  std::vector<int64_t> cap(n);
  for (int k = 1; k <= n; ++k) {
    const uint64_t population = BinomialU64(n, k);
    int64_t c = population > static_cast<uint64_t>(
                                 std::numeric_limits<int>::max())
                    ? std::numeric_limits<int>::max()
                    : static_cast<int64_t>(population);
    if (!already_allocated.empty()) c -= already_allocated[k - 1];
    cap[k - 1] = std::max<int64_t>(c, 0);
  }
  return cap;
}

/// Uniform round-robin over strata with headroom — the shape of
/// DefaultStratumAllocation generalized to arbitrary per-stratum caps
/// (identical to it when the caps are the full C(n, k) populations).
std::vector<int> RoundRobinOverCaps(const std::vector<int64_t>& cap,
                                    int budget) {
  const int n = static_cast<int>(cap.size());
  std::vector<int> allocation(n, 0);
  int remaining = budget;
  bool progressed = true;
  while (remaining > 0 && progressed) {
    progressed = false;
    for (int k = 0; k < n && remaining > 0; ++k) {
      if (static_cast<int64_t>(allocation[k]) < cap[k]) {
        ++allocation[k];
        --remaining;
        progressed = true;
      }
    }
  }
  return allocation;
}

}  // namespace

std::vector<int> NeymanStratumAllocation(
    int n, int budget, const std::vector<StratumMoments>& moments,
    const std::vector<int64_t>& already_allocated) {
  FEDSHAP_CHECK(n >= 1);
  FEDSHAP_CHECK(budget >= 0);
  FEDSHAP_CHECK(static_cast<int>(moments.size()) == n);
  FEDSHAP_CHECK(already_allocated.empty() ||
                static_cast<int>(already_allocated.size()) == n);
  const std::vector<int64_t> cap = RemainingCapacity(n, already_allocated);

  // Sigma per stratum: measured where >= 2 observations exist; the rest
  // borrow the observation-weighted mean sigma so unexplored strata keep
  // receiving budget instead of starving on "no data".
  std::vector<double> sigma(n, 0.0);
  double sigma_weighted_sum = 0.0;
  uint64_t observations = 0;
  bool any_measured = false;
  for (int k = 0; k < n; ++k) {
    if (moments[k].count >= 2) {
      sigma[k] = moments[k].StdDev();
      sigma_weighted_sum += static_cast<double>(moments[k].count) * sigma[k];
      observations += moments[k].count;
      any_measured = true;
    }
  }
  const double borrowed =
      observations > 0 ? sigma_weighted_sum / static_cast<double>(observations)
                       : 0.0;
  double sigma_min = std::numeric_limits<double>::infinity();
  double sigma_max = 0.0;
  for (int k = 0; k < n; ++k) {
    if (moments[k].count < 2) sigma[k] = borrowed;
    sigma_min = std::min(sigma_min, sigma[k]);
    sigma_max = std::max(sigma_max, sigma[k]);
  }

  // Degenerate moment state — nothing measured, all-zero sigmas, or every
  // sigma equal (the weights then carry no information beyond the
  // populations the default already respects): fall back to the uniform
  // round-robin default so adaptive never loses to fixed for lack of
  // data.
  const bool informative = any_measured && sigma_max > 0.0 &&
                           (sigma_max - sigma_min) > 1e-12 * sigma_max;
  if (!informative) return RoundRobinOverCaps(cap, budget);

  // Neyman weights w_k = N_k * sigma_k (the stratum's term in the
  // Theorem 1/2 error bound). Apportion the budget proportionally with
  // largest-floor passes, respecting each stratum's remaining
  // population; capped strata drop out and their share redistributes.
  std::vector<double> weight(n, 0.0);
  for (int k = 0; k < n; ++k) {
    weight[k] = BinomialDouble(n, k + 1) * sigma[k];
  }
  std::vector<int64_t> alloc(n, 0);
  int64_t total_cap = 0;
  for (int64_t c : cap) total_cap += c;
  int remaining =
      static_cast<int>(std::min<int64_t>(budget, total_cap));
  while (remaining > 0) {
    double active_weight = 0.0;
    for (int k = 0; k < n; ++k) {
      if (alloc[k] < cap[k] && weight[k] > 0.0) active_weight += weight[k];
    }
    if (active_weight <= 0.0) break;  // only zero-weight headroom left
    int64_t given = 0;
    for (int k = 0; k < n; ++k) {
      if (alloc[k] >= cap[k] || weight[k] <= 0.0) continue;
      int64_t share = static_cast<int64_t>(
          std::floor(static_cast<double>(remaining) *
                     (weight[k] / active_weight)));
      share = std::min(share, cap[k] - alloc[k]);
      share = std::min(share, static_cast<int64_t>(remaining) - given);
      alloc[k] += share;
      given += share;
    }
    if (given == 0) {
      // Every proportional floor rounded to zero: hand one round to the
      // heaviest stratum with headroom (ties toward smaller k).
      int best = -1;
      for (int k = 0; k < n; ++k) {
        if (alloc[k] >= cap[k] || weight[k] <= 0.0) continue;
        if (best < 0 || weight[k] > weight[best]) best = k;
      }
      ++alloc[best];
      given = 1;
    }
    remaining -= static_cast<int>(given);
  }
  // Zero-sigma strata absorb whatever the weighted pass could not place.
  std::vector<int> result(n, 0);
  if (remaining > 0) {
    std::vector<int64_t> leftover_cap(n);
    for (int k = 0; k < n; ++k) leftover_cap[k] = cap[k] - alloc[k];
    const std::vector<int> extra = RoundRobinOverCaps(leftover_cap, remaining);
    for (int k = 0; k < n; ++k) alloc[k] += extra[k];
  }
  for (int k = 0; k < n; ++k) result[k] = static_cast<int>(alloc[k]);
  return result;
}

std::vector<int> CoverageFloorAllocation(int n, int budget,
                                         const std::vector<int64_t>& granted,
                                         double per_client) {
  FEDSHAP_CHECK(n >= 1);
  FEDSHAP_CHECK(static_cast<int>(granted.size()) == n);
  std::vector<int64_t> deficit(n, 0);
  if (budget > 0 && per_client > 0.0) {
    const std::vector<int64_t> cap = RemainingCapacity(n, granted);
    for (int k = 1; k <= n; ++k) {
      const int64_t quota = static_cast<int64_t>(
          std::ceil(per_client * static_cast<double>(n) / k));
      deficit[k - 1] = std::min(
          cap[k - 1], std::max<int64_t>(quota - granted[k - 1], 0));
    }
  }
  return RoundRobinOverCaps(deficit, std::max(budget, 0));
}

std::vector<AllocationBucket> InitialAllocationBuckets(int n, int count) {
  FEDSHAP_CHECK(n >= 1);
  count = std::max(1, std::min(count, n));
  std::vector<AllocationBucket> buckets;
  buckets.reserve(count);
  for (int b = 0; b < count; ++b) {
    AllocationBucket bucket;
    bucket.lo = 1 + (b * n) / count;
    bucket.hi = ((b + 1) * n) / count;
    buckets.push_back(bucket);
  }
  return buckets;
}

StratumMoments PoolStratumMoments(const std::vector<StratumMoments>& moments,
                                  int lo, int hi) {
  FEDSHAP_CHECK(lo >= 1 && hi >= lo &&
                hi <= static_cast<int>(moments.size()));
  StratumMoments pooled;
  for (int k = lo; k <= hi; ++k) pooled.Merge(moments[k - 1]);
  return pooled;
}

double BucketErrorBound(int n, const AllocationBucket& bucket,
                        const std::vector<StratumMoments>& moments) {
  const StratumMoments pooled = PoolStratumMoments(moments, bucket.lo,
                                                   bucket.hi);
  double population = 0.0;
  for (int k = bucket.lo; k <= bucket.hi; ++k) {
    population += BinomialDouble(n, k);
  }
  const double weighted = population * pooled.StdDev();
  const double samples =
      static_cast<double>(std::max<uint64_t>(pooled.count, 1));
  return weighted * weighted / samples;
}

bool RefineDominantBucket(int n, std::vector<AllocationBucket>& buckets,
                          const std::vector<StratumMoments>& moments,
                          double dominance) {
  if (buckets.empty()) return false;
  double total = 0.0;
  std::vector<double> bound(buckets.size(), 0.0);
  for (size_t b = 0; b < buckets.size(); ++b) {
    bound[b] = BucketErrorBound(n, buckets[b], moments);
    total += bound[b];
  }
  if (total <= 0.0) return false;
  size_t top = 0;
  for (size_t b = 1; b < buckets.size(); ++b) {
    if (bound[b] > bound[top]) top = b;
  }
  const AllocationBucket bucket = buckets[top];
  if (bound[top] <= dominance * total) return false;
  if (bucket.lo >= bucket.hi) return false;  // already a single size
  if (PoolStratumMoments(moments, bucket.lo, bucket.hi).count < 2) {
    return false;
  }
  // Split at the population midpoint so both halves carry comparable
  // sampling mass (a plain width midpoint would leave the binomial bulge
  // on one side).
  double population = 0.0;
  for (int k = bucket.lo; k <= bucket.hi; ++k) {
    population += BinomialDouble(n, k);
  }
  int mid = bucket.lo;
  double below = 0.0;
  for (int k = bucket.lo; k < bucket.hi; ++k) {
    below += BinomialDouble(n, k);
    if (below >= population / 2.0) {
      mid = k;
      break;
    }
    mid = k;
  }
  AllocationBucket left{bucket.lo, mid};
  AllocationBucket right{mid + 1, bucket.hi};
  buckets[top] = left;
  buckets.insert(buckets.begin() + static_cast<ptrdiff_t>(top) + 1, right);
  return true;
}

Result<ValuationResult> AdaptiveStratifiedShapley(
    UtilitySession& session, const AdaptiveAllocationConfig& config) {
  return AdaptiveStratifiedSweep(session.num_clients(), config).Run(session);
}

Result<std::vector<double>> StratifiedEstimateFromDraws(
    int n, SvScheme scheme, PairPolicy pair_policy,
    const std::vector<std::vector<Coalition>>& draws,
    const std::function<Result<double>(const Coalition&)>& utility) {
  if (static_cast<int>(draws.size()) != n + 1) {
    return Status::InvalidArgument("draws must have n+1 strata (0..n)");
  }
  if (draws[0].size() != 1 || !draws[0][0].Empty()) {
    return Status::InvalidArgument(
        "draws[0] must hold exactly the empty coalition");
  }
  // Membership sets per stratum, for the pair-availability test.
  std::vector<std::unordered_set<Coalition, CoalitionHash>> sampled(n + 1);
  for (int k = 0; k <= n; ++k) {
    sampled[k].insert(draws[k].begin(), draws[k].end());
  }
  std::vector<double> values(n, 0.0);
  for (int i = 0; i < n; ++i) {
    double stratum_sum_total = 0.0;
    for (int k = 1; k <= n; ++k) {
      double stratum_sum = 0.0;
      int stratum_count = 0;
      for (const Coalition& s : draws[k]) {
        if (!s.Contains(i)) continue;
        Coalition paired;
        bool pair_available = false;
        switch (scheme) {
          case SvScheme::kMarginal: {
            paired = s.Without(i);
            pair_available = sampled[k - 1].count(paired) > 0;
            break;
          }
          case SvScheme::kComplementary: {
            paired = s.ComplementIn(n);
            const int pk = paired.Count();
            pair_available = pk <= n && sampled[pk].count(paired) > 0;
            break;
          }
        }
        if (!pair_available && pair_policy == PairPolicy::kRequireSampled) {
          continue;
        }
        FEDSHAP_ASSIGN_OR_RETURN(double u_s, utility(s));
        FEDSHAP_ASSIGN_OR_RETURN(double u_pair, utility(paired));
        stratum_sum += u_s - u_pair;
        ++stratum_count;
      }
      if (stratum_count > 0) {
        stratum_sum_total += stratum_sum / stratum_count;
      }
    }
    values[i] = stratum_sum_total / n;
  }
  return values;
}

}  // namespace fedshap
