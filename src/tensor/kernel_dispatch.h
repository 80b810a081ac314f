#ifndef HIRE_TENSOR_KERNEL_DISPATCH_H_
#define HIRE_TENSOR_KERNEL_DISPATCH_H_

#include <cstdint>

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
// then add, no FMA), so the ISA never changes a result. tests/tensor_test.cc
// and tests/nn_test.cc check that on hosts with AVX2 by forcing the portable
// side with ScopedPortableKernels.
//
// The one vector routine that is not a lane-wise copy of portable code is
// ExpAvx2, the attention lanes' exp. It is bitwise the host glibc's expf,
// which the portable kernels call through std::exp: glibc >= 2.27 resolves
// expf to __expf_fma whenever FMA and AVX2 are usable, and ExpAvx2 runs
// that function's operation sequence in double lanes, FMAs included. So
// kAvx2 requires FMA as well as AVX2, the same condition as glibc's choice.
// The contract rests on glibc: a libm with another expf (another libc, or
// glibc told to hide FMA with GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA, which
// picks the non-FMA variant) breaks it, and ExpAvx2ExactTest in
// tests/tensor_test.cc fails there; bench_kernels --emit_json sweeps all
// 2^31 sign-set inputs before it records. FMA is confined to ExpAvx2:
// every other AVX2 function is compiled without it, because GCC contracts
// a multiply-then-add into an FMA wherever the target allows one.

namespace hire {

enum class KernelIsa : int { kPortable = 0, kAvx2 = 1 };

/// The best ISA this host supports, detected on first use.
KernelIsa HostKernelIsa();

/// The ISA the kernels use now: HostKernelIsa(), or kPortable while a
/// ScopedPortableKernels is alive.
KernelIsa ActiveKernelIsa();

/// "portable" or "avx2".
const char* KernelIsaName(KernelIsa isa);

#if defined(__x86_64__) || defined(__i386__)
/// x[i] = std::exp(x[i]) for n floats (n a multiple of 8), eight at a time,
/// bitwise glibc's expf for every input, NaN payloads included. Call it only
/// when HostKernelIsa() is kAvx2.
void ExpAvx2(float* x, int64_t n);
#endif

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
