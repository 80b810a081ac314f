#ifndef HIRE_TENSOR_KERNEL_DISPATCH_H_
#define HIRE_TENSOR_KERNEL_DISPATCH_H_

// Which instruction set the hot kernels run on. Private to the kernel
// translation units (tensor/ops.cc, nn/fused_attention.cc), their tests,
// the kernel bench and the serve tier's `serve.kernel_isa` gauge: nothing
// outside the kernel files chooses a kernel.
//
// The host's ISA is detected once, with __builtin_cpu_supports. Each kernel
// file keeps a table of function pointers indexed by KernelIsa and reads
// its row through ActiveKernelIsa() once per call; the AVX2 rows hold
// functions compiled with __attribute__((target("avx2"))). There is no
// ifunc-based function multiversioning: its resolvers run before the
// sanitizer runtimes start and crash ThreadSanitizer binaries.
//
// Every AVX2 kernel is bitwise equal to the portable kernel it replaces:
// each vector lane runs the portable kernel's operation sequence (multiply
// then add, no FMA, the same std::exp per lane), so the ISA never changes a
// result. tests/tensor_test.cc and tests/nn_test.cc check that on hosts with
// AVX2 by forcing the portable side with ScopedPortableKernels.

namespace hire {

enum class KernelIsa : int { kPortable = 0, kAvx2 = 1 };

/// The best ISA this host supports, detected on first use.
KernelIsa HostKernelIsa();

/// The ISA the kernels use now: HostKernelIsa(), or kPortable while a
/// ScopedPortableKernels is alive.
KernelIsa ActiveKernelIsa();

/// "portable" or "avx2".
const char* KernelIsaName(KernelIsa isa);

/// Test-only: forces the portable kernels for its lifetime, so a test can
/// compare both sides on one host. Create and destroy it while no kernel is
/// running on any thread.
class ScopedPortableKernels {
 public:
  ScopedPortableKernels();
  ~ScopedPortableKernels();
  ScopedPortableKernels(const ScopedPortableKernels&) = delete;
  ScopedPortableKernels& operator=(const ScopedPortableKernels&) = delete;
};

}  // namespace hire

#endif  // HIRE_TENSOR_KERNEL_DISPATCH_H_
