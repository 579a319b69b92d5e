#ifndef FEDSHAP_PERFBENCH_TRACE_H_
#define FEDSHAP_PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "fl/utility.h"
#include "util/coalition.h"
#include "util/status.h"

namespace perfbench {

/// One recorded span: a timed call into a layer's public function.
/// Times are seconds since the tracer's epoch (steady clock).
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = -1.0;
  int64_t parent = -1;  ///< Index of the enclosing span on this thread.
  int64_t job = -1;     ///< Job the span belongs to (-1: none).
};

/// In-memory span recorder. Spans are kept until the run ends; nothing
/// is written out while the benchmark measures. While disabled, Scope
/// records nothing and costs one relaxed load.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool enabled);
  bool enabled() const;
  void Clear();
  std::vector<Span> spans() const;

  /// Records a span for its lifetime, nested under the innermost open
  /// Scope of the calling thread.
  class Scope {
   public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int64_t id_ = -1;
    int64_t saved_parent_ = -1;
  };

  /// Tags every span opened on the calling thread during its lifetime
  /// with `job`.
  class JobScope {
   public:
    explicit JobScope(int64_t job);
    ~JobScope();
    JobScope(const JobScope&) = delete;
    JobScope& operator=(const JobScope&) = delete;

   private:
    int64_t saved_job_ = -1;
  };

 private:
  Tracer();
  double Now() const;
  int64_t Open(const char* name, int64_t parent, int64_t job);
  void Close(int64_t id);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Durations (seconds) of every closed span called `name`.
std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const char* name);

/// Summed self time (seconds) of the spans called `name`: each span's
/// duration minus the part of its interval its child spans cover.
double SpanSelfSeconds(const std::vector<Span>& spans, const char* name);

/// Decorator that records an "fl.train" span around every
/// UtilityFunction::Evaluate of the wrapped utility: one FL training and
/// its scoring. Fingerprint and client count pass through, so caches and
/// stores treat it as the wrapped workload.
class TracedUtility : public fedshap::UtilityFunction {
 public:
  explicit TracedUtility(const fedshap::UtilityFunction* inner)
      : inner_(inner) {}
  int num_clients() const override { return inner_->num_clients(); }
  fedshap::Result<double> Evaluate(
      const fedshap::Coalition& coalition) const override;
  uint64_t Fingerprint() const override { return inner_->Fingerprint(); }

 private:
  const fedshap::UtilityFunction* inner_;
};

// ---------------------------------------------------------------------------
// Order statistics.

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// ---------------------------------------------------------------------------
// Process probes.

/// Peak resident set of this process (VmHWM), MB.
double PeakRssMb();
/// Largest peak resident set among reaped children (RUSAGE_CHILDREN), MB.
double ChildrenPeakRssMb();
/// User + system CPU seconds this process has used.
double ProcessCpuSeconds();

}  // namespace perfbench

#endif  // FEDSHAP_PERFBENCH_TRACE_H_
