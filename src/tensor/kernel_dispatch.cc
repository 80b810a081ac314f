#include "tensor/kernel_dispatch.h"

#include <atomic>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hire {

namespace {

// Live ScopedPortableKernels count. Kernels read it on every call, so it is
// an atomic: a worker thread may read it while the test thread holds the
// override.
std::atomic<int> g_portable_overrides{0};

KernelIsa DetectKernelIsa() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  // FMA too: ExpAvx2 mirrors the expf variant glibc picks on such hosts.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return KernelIsa::kAvx2;
  }
#endif
  return KernelIsa::kPortable;
}

#if defined(__x86_64__) || defined(__i386__)
// glibc's __exp2f_data (sysdeps/ieee754/flt-32/e_exp2f_data.c) with
// N = 32: kExpTable[i] is the bits of 2^(i/N) minus i << 47, so adding
// k << 47 for any k with k % N == i gives the bits of 2^(k/N).
alignas(32) constexpr uint64_t kExpTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

#define HIRE_AVX2_FMA __attribute__((target("avx2,fma")))

// glibc's __expf (sysdeps/ieee754/flt-32/e_expf.c) as GCC compiles it for
// __expf_fma, four double lanes at a time, for inputs that take its main
// path: x * N / ln2 = k + r, exp(x) ~= 2^(k/N) * (C0 r^3 + C1 r^2 + C2 r + 1)
// with the products contracted into FMAs exactly where that build has them.
HIRE_AVX2_FMA inline __m256d ExpMainPath(__m256d xd) {
  const __m256d inv_ln2_n = _mm256_set1_pd(0x1.71547652b82fep+5);
  const __m256d shift = _mm256_set1_pd(0x1.8p52);
  // kd = z + shift rounds z = InvLn2N * x to an integer in the low bits.
  const __m256d kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2_n, xd, _mm256_sub_pd(kd, shift));
  const __m256i ki = _mm256_castpd_si256(kd);
  const __m256i t = _mm256_add_epi64(
      _mm256_i64gather_epi64(reinterpret_cast<const long long*>(kExpTable),
                             _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8),
      _mm256_slli_epi64(ki, 47));
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(0x1.c6af84b912394p-20), r,
                                    _mm256_set1_pd(0x1.ebfce50fac4f3p-13));
  const __m256d y = _mm256_fmadd_pd(
      z, _mm256_mul_pd(r, r),
      _mm256_fmadd_pd(_mm256_set1_pd(0x1.62e42ff0c52d6p-6), r,
                      _mm256_set1_pd(1.0)));
  return _mm256_mul_pd(y, _mm256_castsi256_pd(t));
}
#endif  // x86

}  // namespace

#if defined(__x86_64__) || defined(__i386__)
// Out of line so FMA stays in this function: inlined into an AVX2 caller
// it would need that caller to allow FMA, and GCC would then contract the
// caller's multiply-then-add pairs.
HIRE_AVX2_FMA __attribute__((noinline)) void ExpAvx2(float* x, int64_t n) {
  // glibc's special cases: x < log(2^-150) (-inf too) underflows to 0,
  // x > log(FLT_MAX) overflows to +inf, NaN returns x + x. Every other
  // input, those in [-103.97, -88] and [88, 88.72] included, takes the main
  // path.
  const __m256 underflow = _mm256_set1_ps(-0x1.9fe368p6f);
  const __m256 overflow = _mm256_set1_ps(0x1.62e42ep6f);
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  for (int64_t i = 0; i < n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m128 lo = _mm256_cvtpd_ps(
        ExpMainPath(_mm256_cvtps_pd(_mm256_castps256_ps128(v))));
    const __m128 hi = _mm256_cvtpd_ps(
        ExpMainPath(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1))));
    __m256 y = _mm256_set_m128(hi, lo);
    y = _mm256_andnot_ps(_mm256_cmp_ps(v, underflow, _CMP_LT_OQ), y);
    y = _mm256_blendv_ps(y, inf, _mm256_cmp_ps(v, overflow, _CMP_GT_OQ));
    y = _mm256_blendv_ps(y, _mm256_add_ps(v, v),
                         _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    _mm256_storeu_ps(x + i, y);
  }
}

#undef HIRE_AVX2_FMA
#endif  // x86

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
