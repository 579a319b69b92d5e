#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

thread_local int64_t t_current_span = -1;
thread_local int64_t t_current_job = -1;
std::atomic<bool> g_enabled{false};

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

Tracer::Tracer() = default;

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Tracer::enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

int64_t Tracer::Open(const char* name, int64_t parent, int64_t job) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.job = job;
  std::lock_guard<std::mutex> lock(mutex_);
  span.start = Now();
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Close(int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end = Now();
}

Tracer::Scope::Scope(const char* name) {
  Tracer& tracer = Get();
  if (!tracer.enabled()) return;
  saved_parent_ = t_current_span;
  id_ = tracer.Open(name, t_current_span, t_current_job);
  t_current_span = id_;
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  Get().Close(id_);
  t_current_span = saved_parent_;
}

Tracer::JobScope::JobScope(int64_t job) : saved_job_(t_current_job) {
  t_current_job = job;
}

Tracer::JobScope::~JobScope() { t_current_job = saved_job_; }

std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const char* name) {
  std::vector<double> durations;
  for (const Span& span : spans) {
    if (span.end >= span.start && std::strcmp(span.name, name) == 0) {
      durations.push_back(span.end - span.start);
    }
  }
  return durations;
}

double SpanSelfSeconds(const std::vector<Span>& spans, const char* name) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && span.end >= span.start) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start,
                                                              span.end);
    }
  }
  double total = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end < span.start || std::strcmp(span.name, name) != 0) continue;
    // Union of the child intervals, clipped to the parent's interval.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, span.start);
      const double hi = std::min(end, span.end);
      if (hi <= lo) continue;
      if (lo > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = lo;
        run_end = hi;
      } else {
        run_end = std::max(run_end, hi);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    total += (span.end - span.start) - covered;
  }
  return total;
}

fedshap::Result<double> TracedUtility::Evaluate(
    const fedshap::Coalition& coalition) const {
  Tracer::Scope scope("fl.train");
  return inner_->Evaluate(coalition);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ChildrenPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
