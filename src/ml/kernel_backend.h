#ifndef FEDSHAP_ML_KERNEL_BACKEND_H_
#define FEDSHAP_ML_KERNEL_BACKEND_H_

#include <string>

#include "util/status.h"

namespace fedshap {

/// \file
/// Runtime-dispatched SIMD backends for the ML substrate's batched
/// kernels (ml/matrix.h).
///
/// The kernels in matrix.cc route their hot inner bodies through a
/// per-process dispatch table. At startup the table is bound to the
/// widest instruction set the CPU supports (probed via CPUID):
///
///   - kScalar:  the portable blocked loops (compiler autovectorized at
///               the build's baseline ISA) — always available, and the
///               reference the vector backend is tested against;
///   - kAvx2:    explicit AVX2+FMA micro-kernels (8-lane), when both the
///               compiler and the CPU support it.
///
/// There is one hand-written vector source per ISA family. x86 hosts
/// with 16-lane vector units run the AVX2 backend too: a 16-lane
/// variant measured no faster end to end and slower GEMM at the MLP's
/// layer shapes (see docs/ARCHITECTURE.md).
///
/// **Determinism contract.** The selected backend never changes *which*
/// coalition is trained, any workload fingerprint, or the sequence of
/// utility queries — only the float rounding inside a training. For a
/// fixed backend, results are bit-identical across runs and across
/// worker counts. GEMM-shaped kernels (MatMul/MatTMat/AddOuterBatch)
/// agree with the scalar backend within the tolerance contract of
/// ml/matrix.h (kKernelAbsTol/kKernelRelTol); element-wise kernels
/// (bias/ReLU/softmax rows, ColumnSums, the fused SGD steps) perform the
/// reference arithmetic per element in the reference order and match the
/// scalar backend to float rounding. Persisted utility stores are
/// addressed by workload fingerprint only, so they are portable across
/// backends *within that tolerance*; pin FEDSHAP_KERNEL_BACKEND=scalar
/// when bit-exact cross-machine reproduction matters (the golden-value
/// tests do exactly this).
///
/// Override order: SetKernelBackend() > FEDSHAP_KERNEL_BACKEND env var
/// ("scalar" | "avx2" | "auto") > CPUID auto-detection. An unrecognized
/// env value logs a warning and falls back to auto-detection.
enum class KernelBackend {
  kScalar = 0,  ///< Portable blocked loops; always available reference.
  kAvx2 = 1,    ///< Explicit AVX2+FMA micro-kernels (8-lane).
};

/// Human-readable backend name ("scalar", "avx2").
const char* KernelBackendName(KernelBackend backend);

/// Parses a backend name as accepted by FEDSHAP_KERNEL_BACKEND. "auto"
/// returns the auto-detected backend for this machine.
Result<KernelBackend> ParseKernelBackend(const std::string& name);

/// True when `backend` was compiled in *and* this CPU can execute it.
/// kScalar is always available.
bool KernelBackendAvailable(KernelBackend backend);

/// The backend the dispatch table is currently bound to. The first call
/// resolves FEDSHAP_KERNEL_BACKEND / CPUID; thereafter it reports the
/// active selection.
KernelBackend SelectedKernelBackend();

/// The widest backend this build + CPU supports (ignores any override).
KernelBackend AutoDetectKernelBackend();

/// Rebinds the dispatch table to `backend`. Fails with InvalidArgument
/// when the backend is not available on this machine. Not synchronized
/// with in-flight kernel calls: switch between trainings (tests and
/// benches do), not during one.
Status SetKernelBackend(KernelBackend backend);

/// One-line provenance string naming the active kernel backend and the
/// effective worker budget, e.g.
///   "kernels: backend=avx2 (auto) worker-budget=8"
/// Every bench/example binary prints this (and fedshapd --status
/// includes it) so performance numbers are attributable to a concrete
/// hardware configuration.
std::string KernelProvenanceString();

}  // namespace fedshap

#endif  // FEDSHAP_ML_KERNEL_BACKEND_H_
