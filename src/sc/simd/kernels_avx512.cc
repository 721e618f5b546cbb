/**
 * @file
 * AVX-512 kernel table.  The row kernel (row_kernel.h) runs on 8-word
 * (512-cycle) zmm lane groups; the words left after the last full group
 * take one narrower or masked group: a plain ymm group for exactly 4
 * words (the whole row at N = 256), a masked ymm group for 1-3 and a
 * masked zmm group for 5-7.  Each carry-save adder is two ternary-logic
 * ops (majority and three-way XOR).  The mask registers also give the
 * threshold compare its packed result for free
 * (_mm512_cmplt_epu64_mask yields the 8 stream bits directly).
 * Compiled with -mavx512f/bw/dq/vl via a per-file CMake property;
 * degrades to a nullptr stub without it.
 */

#include "kernels_scalar.h"
#include "row_kernel.h"
#include "simd.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace aqfpsc::sc::simd {
namespace {

// vpternlogq truth tables over (a, b, c): bit (a << 2 | b << 1 | c).
constexpr int kXnorAB = 0xC3;    // ~(a ^ b)
constexpr int kMajority = 0xE8;  // at least two of a, b, c
constexpr int kXor3 = 0x96;      // a ^ b ^ c

/** Full 8-word lane group. */
struct ZmmLane
{
    using V = __m512i;

    V load(const std::uint64_t *p) const { return _mm512_loadu_si512(p); }
    void store(std::uint64_t *p, V v) const { _mm512_storeu_si512(p, v); }
    static V zero() { return _mm512_setzero_si512(); }
    static V
    xnor(V a, V b)
    {
        return _mm512_ternarylogic_epi64(a, b, b, kXnorAB);
    }
    static V bitAnd(V a, V b) { return _mm512_and_si512(a, b); }
    static V bitXor(V a, V b) { return _mm512_xor_si512(a, b); }
    static void
    csa(V &high, V &low, V b, V c)
    {
        high = _mm512_ternarylogic_epi64(low, b, c, kMajority);
        low = _mm512_ternarylogic_epi64(low, b, c, kXor3);
    }
};

/** The first 5-7 words of a zmm group, masked. */
struct ZmmPartLane : ZmmLane
{
    __mmask8 mask;

    V load(const std::uint64_t *p) const
    {
        return _mm512_maskz_loadu_epi64(mask, p);
    }
    void store(std::uint64_t *p, V v) const
    {
        _mm512_mask_storeu_epi64(p, mask, v);
    }
};

/** A 4-word lane group (AVX-512VL encodings of the same ops). */
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
        return _mm256_ternarylogic_epi64(a, b, b, kXnorAB);
    }
    static V bitAnd(V a, V b) { return _mm256_and_si256(a, b); }
    static V bitXor(V a, V b) { return _mm256_xor_si256(a, b); }
    static void
    csa(V &high, V &low, V b, V c)
    {
        high = _mm256_ternarylogic_epi64(low, b, c, kMajority);
        low = _mm256_ternarylogic_epi64(low, b, c, kXor3);
    }
};

/** The first 1-3 words of a ymm group, masked. */
struct YmmPartLane : YmmLane
{
    __mmask8 mask;

    V load(const std::uint64_t *p) const
    {
        return _mm256_maskz_loadu_epi64(mask, p);
    }
    void store(std::uint64_t *p, V v) const
    {
        _mm256_mask_storeu_epi64(p, mask, v);
    }
};

void
addXnorRow(const PlaneSpan &span, const std::uint64_t *const xs[],
           const std::uint64_t *const ws[], std::size_t products,
           std::size_t words)
{
    std::size_t wi = 0;
    for (; words - wi >= 8; wi += 8)
        detail::addXnorRowGroup(ZmmLane{}, span, xs, ws, products, wi);
    const std::size_t rest = words - wi;
    const auto mask = static_cast<__mmask8>((1u << rest) - 1);
    if (rest > 4)
        detail::addXnorRowGroup(ZmmPartLane{{}, mask}, span, xs, ws,
                                products, wi);
    else if (rest == 4)
        detail::addXnorRowGroup(YmmLane{}, span, xs, ws, products, wi);
    else if (rest > 0)
        detail::addXnorRowGroup(YmmPartLane{{}, mask}, span, xs, ws,
                                products, wi);
}

std::uint64_t
thresholdPack(const std::uint64_t *rnd, std::size_t n,
              std::uint64_t threshold)
{
    const __m512i tv =
        _mm512_set1_epi64(static_cast<long long>(threshold));
    std::uint64_t word = 0;
    std::size_t b = 0;
    for (; b + 8 <= n; b += 8) {
        const __m512i rv = _mm512_loadu_si512(rnd + b);
        const __mmask8 lt = _mm512_cmplt_epu64_mask(rv, tv);
        word |= static_cast<std::uint64_t>(lt) << b;
    }
    return word | detail::thresholdPackBits(rnd, b, n, threshold);
}

constexpr KernelTable kAvx512Table = {
    "avx512",
    addXnorRow,
    thresholdPack,
};

} // namespace

const KernelTable *
avx512Kernels()
{
    return &kAvx512Table;
}

} // namespace aqfpsc::sc::simd

#else // !defined(__AVX512F__)

namespace aqfpsc::sc::simd {

const KernelTable *
avx512Kernels()
{
    return nullptr;
}

} // namespace aqfpsc::sc::simd

#endif // defined(__AVX512F__)
