/**
 * @file
 * AVX2 kernel table.  The row kernel (row_kernel.h) runs on 4-word
 * (256-cycle) ymm lane groups; the 1-3 words left after the last full
 * group take one group masked with vpmaskmovq.  AVX2 has no ternary
 * logic, so each carry-save adder is five AND/OR/XOR ops.
 *
 * Compiled with -mavx2 via a per-file CMake property; when the compiler
 * lacks the flag (non-x86), the TU degrades to a nullptr stub and
 * dispatch falls back to scalar.
 */

#include "kernels_scalar.h"
#include "row_kernel.h"
#include "simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace aqfpsc::sc::simd {
namespace {

/** Full 4-word lane group. */
struct YmmLane
{
    using V = __m256i;

    V load(const std::uint64_t *p) const
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }
    void store(std::uint64_t *p, V v) const
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }
    static V zero() { return _mm256_setzero_si256(); }
    static V
    xnor(V a, V b)
    {
        return _mm256_xor_si256(_mm256_xor_si256(a, b),
                                _mm256_set1_epi64x(-1));
    }
    static V bitAnd(V a, V b) { return _mm256_and_si256(a, b); }
    static V bitXor(V a, V b) { return _mm256_xor_si256(a, b); }
    static void
    csa(V &high, V &low, V b, V c)
    {
        const V u = _mm256_xor_si256(low, b);
        high = _mm256_or_si256(_mm256_and_si256(low, b),
                               _mm256_and_si256(u, c));
        low = _mm256_xor_si256(u, c);
    }
};

/** The first 1-3 words of a ymm group, masked. */
struct YmmPartLane : YmmLane
{
    __m256i mask; ///< all-ones in the lanes to load and store

    V load(const std::uint64_t *p) const
    {
        return _mm256_maskload_epi64(reinterpret_cast<const long long *>(p),
                                     mask);
    }
    void store(std::uint64_t *p, V v) const
    {
        _mm256_maskstore_epi64(reinterpret_cast<long long *>(p), mask, v);
    }
};

void
addXnorRow(const PlaneSpan &span, const std::uint64_t *const xs[],
           const std::uint64_t *const ws[], std::size_t products,
           std::size_t words)
{
    std::size_t wi = 0;
    for (; words - wi >= 4; wi += 4)
        detail::addXnorRowGroup(YmmLane{}, span, xs, ws, products, wi);
    const std::size_t rest = words - wi;
    if (rest > 0) {
        const __m256i mask = _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(static_cast<long long>(rest)),
            _mm256_setr_epi64x(0, 1, 2, 3));
        detail::addXnorRowGroup(YmmPartLane{{}, mask}, span, xs, ws,
                                products, wi);
    }
}

std::uint64_t
thresholdPack(const std::uint64_t *rnd, std::size_t n,
              std::uint64_t threshold)
{
    // AVX2 has no unsigned 64-bit compare; flip the sign bit of both
    // sides so signed greater-than computes the unsigned relation.
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    const __m256i tv = _mm256_xor_si256(
        _mm256_set1_epi64x(static_cast<long long>(threshold)), bias);
    std::uint64_t word = 0;
    std::size_t b = 0;
    for (; b + 4 <= n; b += 4) {
        const __m256i rv = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(rnd + b)),
            bias);
        const __m256i lt = _mm256_cmpgt_epi64(tv, rv);
        const unsigned mask = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(lt)));
        word |= static_cast<std::uint64_t>(mask) << b;
    }
    return word | detail::thresholdPackBits(rnd, b, n, threshold);
}

constexpr KernelTable kAvx2Table = {
    "avx2",
    addXnorRow,
    thresholdPack,
};

} // namespace

const KernelTable *
avx2Kernels()
{
    return &kAvx2Table;
}

} // namespace aqfpsc::sc::simd

#else // !defined(__AVX2__)

namespace aqfpsc::sc::simd {

const KernelTable *
avx2Kernels()
{
    return nullptr;
}

} // namespace aqfpsc::sc::simd

#endif // defined(__AVX2__)
