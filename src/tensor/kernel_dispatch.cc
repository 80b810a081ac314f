#include "tensor/kernel_dispatch.h"

#include <atomic>

namespace hire {

namespace {

// Live ScopedPortableKernels count. Kernels read it on every call, so it is
// an atomic: a worker thread may read it while the test thread holds the
// override.
std::atomic<int> g_portable_overrides{0};

KernelIsa DetectKernelIsa() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return KernelIsa::kAvx2;
#endif
  return KernelIsa::kPortable;
}

}  // namespace

KernelIsa HostKernelIsa() {
  static const KernelIsa isa = DetectKernelIsa();
  return isa;
}

KernelIsa ActiveKernelIsa() {
  return g_portable_overrides.load(std::memory_order_relaxed) > 0
             ? KernelIsa::kPortable
             : HostKernelIsa();
}

const char* KernelIsaName(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "portable";
}

ScopedPortableKernels::ScopedPortableKernels() {
  g_portable_overrides.fetch_add(1, std::memory_order_relaxed);
}

ScopedPortableKernels::~ScopedPortableKernels() {
  g_portable_overrides.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace hire
