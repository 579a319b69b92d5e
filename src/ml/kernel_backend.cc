#include "ml/kernel_backend.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "ml/kernel_dispatch.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace fedshap {

namespace {

/// The bound table + backend, published together. Kernel call sites load
/// the table pointer with acquire semantics, so rebinding between
/// trainings is safe; rebinding *during* a kernel call is documented as
/// unsupported (the call would simply finish on the old table).
std::atomic<const internal::KernelTable*> g_active_table{nullptr};
std::atomic<int> g_active_backend{static_cast<int>(KernelBackend::kScalar)};

bool CpuSupports(KernelBackend backend) {
  if (backend == KernelBackend::kScalar) return true;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const internal::KernelTable* TableFor(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return &internal::ScalarKernelTable();
    case KernelBackend::kAvx2:
      return internal::Avx2KernelTable();
  }
  return nullptr;
}

void Bind(KernelBackend backend) {
  const internal::KernelTable* table = TableFor(backend);
  FEDSHAP_CHECK(table != nullptr);
  g_active_backend.store(static_cast<int>(backend),
                         std::memory_order_relaxed);
  g_active_table.store(table, std::memory_order_release);
}

/// One-time startup selection: FEDSHAP_KERNEL_BACKEND env override, else
/// the widest available backend.
void SelectInitialBackend() {
  KernelBackend backend = AutoDetectKernelBackend();
  if (const char* env = std::getenv("FEDSHAP_KERNEL_BACKEND")) {
    Result<KernelBackend> parsed = ParseKernelBackend(env);
    if (!parsed.ok()) {
      FEDSHAP_LOG(Warning) << "FEDSHAP_KERNEL_BACKEND=" << env
                           << " not recognized; using auto detection";
    } else if (!KernelBackendAvailable(parsed.value())) {
      FEDSHAP_LOG(Warning) << "FEDSHAP_KERNEL_BACKEND=" << env
                           << " is not available on this machine; using "
                              "auto detection";
    } else {
      backend = parsed.value();
    }
  }
  Bind(backend);
}

void EnsureInitialized() {
  // call_once so startup selection runs exactly one time: a plain
  // checked flag could re-run SelectInitialBackend concurrently with an
  // explicit SetKernelBackend and silently revert the caller's pin.
  static std::once_flag once;
  std::call_once(once, SelectInitialBackend);
}

}  // namespace

namespace internal {

const KernelTable& ActiveKernelTable() {
  EnsureInitialized();
  return *g_active_table.load(std::memory_order_acquire);
}

}  // namespace internal

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "?";
}

Result<KernelBackend> ParseKernelBackend(const std::string& name) {
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "avx2") return KernelBackend::kAvx2;
  if (name == "auto") return AutoDetectKernelBackend();
  return Status::InvalidArgument(
      "unknown kernel backend '" + name +
      "' (expected scalar | avx2 | auto)");
}

bool KernelBackendAvailable(KernelBackend backend) {
  return TableFor(backend) != nullptr && CpuSupports(backend);
}

KernelBackend AutoDetectKernelBackend() {
  return KernelBackendAvailable(KernelBackend::kAvx2)
             ? KernelBackend::kAvx2
             : KernelBackend::kScalar;
}

KernelBackend SelectedKernelBackend() {
  EnsureInitialized();
  return static_cast<KernelBackend>(
      g_active_backend.load(std::memory_order_relaxed));
}

Status SetKernelBackend(KernelBackend backend) {
  EnsureInitialized();
  if (!KernelBackendAvailable(backend)) {
    return Status::InvalidArgument(
        std::string("kernel backend '") + KernelBackendName(backend) +
        "' is not available on this machine");
  }
  Bind(backend);
  return Status::OK();
}

std::string KernelProvenanceString() {
  const KernelBackend active = SelectedKernelBackend();
  const KernelBackend detected = AutoDetectKernelBackend();
  std::string line = "kernels: backend=";
  line += KernelBackendName(active);
  line += active == detected ? " (auto)" : " (pinned)";
  line += " worker-budget=" +
          std::to_string(WorkerBudget::Global().total());
  return line;
}

}  // namespace fedshap
