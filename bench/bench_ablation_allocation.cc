/// Ablation: stratum allocation inside the stratified framework.
///
/// Alg. 1 leaves the per-stratum budgets m_k free. This bench compares the
/// uniform round-robin default against the streaming Neyman allocation of
/// AdaptiveStratifiedShapley (pilot epoch, then per-epoch reallocation
/// over running stratum moments) at matched total budgets on the noisy FL
/// linear-regression utility, and prints the distinct coalitions each arm
/// evaluates.
///
/// At this size the table does not separate the two allocators. Both cap
/// stratum k at C(n, k) rounds, and the rounds are drawn with replacement,
/// so the singleton stratum gets at most n draws and leaves about a third
/// of the clients without a U({i}) - U({}) pair. That pair carries almost
/// all of this utility's value, so both errors are set by which clients
/// the capped singleton draws missed. Once every stratum is at its cap
/// (budget 120 already reaches 220-230 of the 255 coalitions), a larger
/// budget changes nothing.
#include <cstdio>
#include <iostream>

#include "common.h"
#include "core/valuation_metrics.h"
#include "util/table.h"

using namespace fedshap;
using namespace fedshap::bench;

int main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  const int repeats = 30;
  PrintRunHeader(("Ablation: uniform vs Neyman stratum allocation "
                  "(linear-regression utility, " +
                  std::to_string(repeats) + " runs)")
                     .c_str(),
                 options, /*runner_backed=*/false);

  LinearRegressionUtility::Params params;
  params.num_clients = 8;
  params.samples_per_client = 30;
  params.feature_dim = 3;
  params.noise_scale = 0.004;
  const int n = params.num_clients;

  // Ground truth from the noise-free mean utility.
  LinearRegressionUtility mean_utility(params);
  std::vector<double> exact(n, 0.0);
  {
    LinearRegressionUtility::Params clean = params;
    clean.noise_scale = 0.0;
    LinearRegressionUtility clean_utility(clean);
    UtilityCache cache(&clean_utility);
    UtilitySession session(&cache);
    Result<ValuationResult> sv = ExactShapleyMc(session);
    if (!sv.ok()) return 1;
    exact = sv->values;
  }

  ConsoleTable table({"budget", "uniform err", "uniform coalitions",
                      "Neyman err", "Neyman coalitions"});
  for (int budget : {120, 240, 480}) {
    double uniform_sum = 0.0, neyman_sum = 0.0;
    double uniform_coalitions = 0.0, neyman_coalitions = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
      LinearRegressionUtility utility(params);
      utility.Reseed(options.seed + 71 * rep);
      UtilityCache cache(&utility);

      StratifiedConfig uniform;
      uniform.total_rounds = budget;
      uniform.pair_policy = PairPolicy::kEvaluateOnDemand;
      uniform.seed = options.seed + rep;
      UtilitySession uniform_session(&cache);
      Result<ValuationResult> u =
          StratifiedSamplingShapley(uniform_session, uniform);
      if (!u.ok()) return 1;
      uniform_sum += RelativeL2Error(exact, u->values);
      uniform_coalitions += static_cast<double>(u->num_trainings);

      AdaptiveAllocationConfig neyman;
      neyman.total_rounds = budget;
      neyman.pair_policy = PairPolicy::kEvaluateOnDemand;
      neyman.seed = options.seed + rep;
      UtilitySession neyman_session(&cache);
      Result<ValuationResult> v =
          AdaptiveStratifiedShapley(neyman_session, neyman);
      if (!v.ok()) return 1;
      neyman_sum += RelativeL2Error(exact, v->values);
      neyman_coalitions += static_cast<double>(v->num_trainings);
    }
    table.AddRow({std::to_string(budget),
                  FormatDouble(uniform_sum / repeats, 4),
                  FormatDouble(uniform_coalitions / repeats, 1),
                  FormatDouble(neyman_sum / repeats, 4),
                  FormatDouble(neyman_coalitions / repeats, 1)});
  }
  table.Print(std::cout);
  std::printf(
      "\n(both arms cap stratum k at C(n, k) rounds drawn with replacement:"
      "\n flat errors mean the strata are at their caps, not that the"
      "\n allocators tie; see the header of this file)\n");
  return 0;
}
