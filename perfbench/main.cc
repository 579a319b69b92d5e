// fedshap_perfbench: runs one benchmark workload and prints, as the last
// line of stdout, one JSON object with the keys correct, attempted,
// failed and values (metric name -> value). Untraced runs report the
// end-to-end metrics; traced runs (--trace 1) report the per-layer
// metrics.
//
//   fedshap_perfbench --workload femnist-mlp --seed 1 --seconds 20 --trace 0
//
// perfbench/run.py builds this binary, sets the thread budget and turns
// the values into the benchmark's result line.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "util/stopwatch.h"
#include "workload.h"

namespace perfbench {
namespace {

// Set-up-only repetitions after each pass. Set-up takes milliseconds, so
// its median needs more samples than the pass's own, taken across the
// whole run like the passes.
constexpr int kSetupsPerPass = 4;

int Usage() {
  std::fprintf(stderr,
               "usage: fedshap_perfbench --workload "
               "femnist-mlp|digits-cluster --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

/// Prints the run's outcome as one JSON line: correct, attempted, failed
/// and the measured values by metric name. run.py checks the names
/// against BENCHMARK.json and attaches the units.
void PrintResult(const Report& report,
                 const std::map<std::string, double>& values) {
  bool correct = report.correct();
  std::string json = "{\"values\": {";
  for (const auto& [name, value] : values) {
    if (!std::isfinite(value)) correct = false;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    json += std::string(json.back() == '{' ? "" : ", ") + "\"" + name +
            "\": " + number;
  }
  json += "}, \"correct\": " + std::string(correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(report.attempted()) +
          ", \"failed\": " + std::to_string(report.failed()) + "}";
  std::printf("%s\n", json.c_str());
}

int Run(const Options& options) {
  std::unique_ptr<Workload> workload;
  if (options.workload == "femnist-mlp") {
    workload = MakeFemnistMlp(options);
  } else if (options.workload == "digits-cluster") {
    workload = MakeDigitsCluster(options);
  } else {
    return Usage();
  }
  Report report;

  if (options.trace) {
    // One untraced pass for the overhead baseline, one traced pass, then
    // the per-layer replays; spans stay in memory until the end.
    const PassOutcome plain = workload->RunPass(report, false);
    Tracer::Get().Clear();
    const PassOutcome traced = workload->RunPass(report, true);
    Tracer::Get().set_enabled(true);
    workload->Replay(report, traced);
    Tracer::Get().set_enabled(false);
    report.Check(traced.values == plain.values,
                 "traced values differ from untraced values");
    report.Layer("trace.overhead", traced.wall_s / plain.wall_s);
    report.Layer("trace.spans",
                 static_cast<double>(Tracer::Get().spans().size()));
    PrintResult(report, report.layers());
    return 0;
  }

  // Passes until the measuring time is used up, each followed by
  // kSetupsPerPass set-ups. Every metric is a median.
  fedshap::Stopwatch clock;
  std::vector<PassOutcome> passes;
  std::vector<double> setups, walls, job_seconds;
  do {
    passes.push_back(workload->RunPass(report, false));
    const PassOutcome& pass = passes.back();
    setups.push_back(pass.setup_s);
    walls.push_back(pass.wall_s);
    job_seconds.insert(job_seconds.end(), pass.job_seconds.begin(),
                       pass.job_seconds.end());
    report.Check(pass.values == passes.front().values &&
                     pass.fresh_trainings == passes.front().fresh_trainings,
                 "pass " + std::to_string(passes.size()) +
                     " differs from pass 1 (values or fresh trainings)");
    for (int i = 0; i < kSetupsPerPass; ++i) {
      setups.push_back(workload->SetupOnly(report));
    }
  } while (clock.ElapsedSeconds() < options.seconds);
  std::string pass_walls;
  for (double wall : walls) {
    pass_walls += ' ';
    pass_walls += std::to_string(wall);
  }
  report.Info("pass wall_s:" + pass_walls);
  report.Info("passes=" + std::to_string(passes.size()) +
              " setups=" + std::to_string(setups.size()) +
              " job_samples=" + std::to_string(job_seconds.size()));

  const PassOutcome& first = passes.front();
  PrintResult(report, {
                          {"setup_s", Median(setups)},
                          {"wall_s", Median(walls)},
                          {"job_p50_s", Median(job_seconds)},
                          {"fresh_trainings",
                           static_cast<double>(first.fresh_trainings)},
                          {"rel_error", first.rel_error},
                          {"peak_rss_mb", PeakRssMb()},
                      });
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return perfbench::Usage();
    }
  }
  if (!have_workload) return perfbench::Usage();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return perfbench::Run(options);
}
