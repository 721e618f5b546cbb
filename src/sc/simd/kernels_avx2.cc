/**
 * @file
 * AVX2 kernel table.  The tile kernel (row_kernel.h) runs on 4-word
 * (256-cycle) ymm lane groups; the 1-3 words left after the last full
 * group take general-purpose registers, one word at a time.  A span of
 * 1-3 words sums 4 rows per ymm instead (vpgatherqq), and a lone row
 * takes general-purpose registers.  The feedback kernel
 * (feedback_kernel.h) drives 4 x 64 rows per ymm group, gathering the
 * count planes with vpgatherqq; a tile of 64 rows or fewer takes the
 * scalar table's kernel.  AVX2 has no ternary logic, so each
 * carry-save adder is five AND/OR/XOR ops.  The xoshiro lane kernels
 * (xoshiro_kernel.h) step 2-4 generators in one ymm group and 5-8 in
 * two, rotating with shift pairs; a lone generator takes the serial
 * one-lane path.
 *
 * Compiled with -mavx2 via a per-file CMake property; when the compiler
 * lacks the flag (non-x86), the TU degrades to a nullptr stub and
 * dispatch falls back to scalar.
 */

#include "feedback_kernel.h"
#include "kernels_scalar.h"
#include "row_kernel.h"
#include "simd.h"
#include "xoshiro_kernel.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace aqfpsc::sc::simd {
namespace {

/** Full 4-word lane group. */
struct YmmLane
{
    using V = __m256i;
    static constexpr std::size_t kWidth = 4;

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

    // Feedback kernel operations (feedback_kernel.h).
    static V ones() { return _mm256_set1_epi64x(-1); }
    static V
    broadcast(std::uint64_t x)
    {
        return _mm256_set1_epi64x(static_cast<long long>(x));
    }
    static V bitNot(V a) { return _mm256_xor_si256(a, ones()); }
    static V bitOr(V a, V b) { return _mm256_or_si256(a, b); }
    static V
    xor3(V a, V b, V c)
    {
        return _mm256_xor_si256(_mm256_xor_si256(a, b), c);
    }
    static V
    maj(V a, V b, V c)
    {
        return _mm256_or_si256(_mm256_and_si256(a, b),
                               _mm256_and_si256(c, _mm256_or_si256(a, b)));
    }
    static V
    borrow(V a, V b, V c)
    {
        // (~a & b) | (c & ~(a & ~b))
        return _mm256_or_si256(
            _mm256_andnot_si256(a, b),
            _mm256_andnot_si256(_mm256_andnot_si256(b, a), c));
    }
    static V
    select(V m, V a, V b)
    {
        return _mm256_or_si256(_mm256_and_si256(m, a),
                               _mm256_andnot_si256(m, b));
    }
    template <int S>
    static V
    shiftLeft(V a)
    {
        return _mm256_slli_epi64(a, S);
    }
    template <int S>
    static V
    shiftRight(V a)
    {
        return _mm256_srli_epi64(a, S);
    }
    // Xoshiro kernel operations (xoshiro_kernel.h).
    static V add(V a, V b) { return _mm256_add_epi64(a, b); }
    template <int K>
    static V
    rotateLeft(V a)
    {
        return _mm256_or_si256(_mm256_slli_epi64(a, K),
                               _mm256_srli_epi64(a, 64 - K));
    }
    static V
    shiftInTop(V acc, V x)
    {
        return _mm256_or_si256(_mm256_srli_epi64(acc, 1),
                               _mm256_and_si256(x, topBit()));
    }
    // No unsigned 64-bit compare: flip the sign bit of both sides so
    // signed greater-than computes the unsigned relation.
    static V prepareThreshold(V t) { return _mm256_xor_si256(t, topBit()); }
    static V
    shiftInBelow(V acc, V r, V t)
    {
        const V lt = _mm256_cmpgt_epi64(t, _mm256_xor_si256(r, topBit()));
        return _mm256_or_si256(_mm256_srli_epi64(acc, 1),
                               _mm256_slli_epi64(lt, 63));
    }
    static V
    topBit()
    {
        return _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
    }
    V
    gather(const std::uint64_t *p, std::size_t stride,
           std::size_t lanes) const
    {
        const auto s = static_cast<long long>(stride);
        const __m256i mask = _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(static_cast<long long>(lanes)),
            _mm256_setr_epi64x(0, 1, 2, 3));
        return _mm256_mask_i64gather_epi64(
            _mm256_setzero_si256(), reinterpret_cast<const long long *>(p),
            _mm256_setr_epi64x(0, s, 2 * s, 3 * s), mask, 8);
    }
    void
    scatter(std::uint64_t *p, std::size_t stride, std::size_t lanes,
            V v) const
    {
        // AVX2 has no scatter; the output is one word per row and word.
        alignas(32) std::uint64_t w[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(w), v);
        for (std::size_t j = 0; j < lanes; ++j)
            p[j * stride] = w[j];
    }
    // Row lanes of the tile kernel (row_kernel.h).
    struct Strided
    {
        Strided(std::size_t stride, std::size_t lanes)
            : stride(stride), lanes(lanes),
              offsets(_mm256_setr_epi64x(
                  0, static_cast<long long>(stride),
                  static_cast<long long>(2 * stride),
                  static_cast<long long>(3 * stride))),
              mask(_mm256_cmpgt_epi64(
                  _mm256_set1_epi64x(static_cast<long long>(lanes)),
                  _mm256_setr_epi64x(0, 1, 2, 3)))
        {
        }
        V
        gather(const std::uint64_t *p) const
        {
            return _mm256_mask_i64gather_epi64(
                _mm256_setzero_si256(), reinterpret_cast<const long long *>(p),
                offsets, mask, 8);
        }
        void
        scatter(std::uint64_t *p, V v) const
        {
            YmmLane{}.scatter(p, stride, lanes, v);
        }

        std::size_t stride;
        std::size_t lanes;
        __m256i offsets;
        __m256i mask;
    };
};

/** The tile kernel on 4-word ymm groups; the 1-3 words left take
 *  general-purpose registers.  Spans of 1-3 words sum up to 4 rows side
 *  by side in a ymm (row lanes) instead. */
template <int P>
struct Avx2Tile
{
    static void
    run(const XnorTile &t)
    {
        detail::xnorTileRows<P, YmmLane>(t, [&t](auto &&sum) {
            std::size_t wi = 0;
            for (; t.words - wi >= 4; wi += 4)
                sum(YmmLane{}, wi);
            for (; wi < t.words; ++wi)
                sum(detail::GprLane{}, wi);
        });
    }
};

void
addXnorTile(const XnorTile &tile)
{
    detail::addXnorTileWith<Avx2Tile>(tile);
}

void
featureFeedback(const FeedbackTile &tile)
{
    if (tile.rows > 64)
        detail::feedbackRows<YmmLane>(tile, 0);
    else
        scalarKernels()->featureFeedback(tile);
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

void
laneSngFill(XoshiroLanes &gen, const std::uint64_t threshold[],
            const std::uint64_t ones[], std::uint64_t *const dst[],
            std::size_t cycles)
{
    if (gen.lanes > 4)
        detail::laneSngFillGroups<YmmLane, 2>(gen, threshold, ones, dst,
                                              cycles, 0);
    else if (gen.lanes > 1)
        detail::laneSngFillGroups<YmmLane, 1>(gen, threshold, ones, dst,
                                              cycles, 0);
    else
        detail::serialSngFill(gen, threshold, ones, dst, cycles,
                              thresholdPack);
}

void
laneMuxSelects(XoshiroLanes &gen, std::uint64_t *const high[],
               std::uint64_t *const low[], std::size_t cycles)
{
    if (gen.lanes > 4)
        detail::laneMuxSelectsGroups<YmmLane, 2>(gen, high, low, cycles, 0);
    else if (gen.lanes > 1)
        detail::laneMuxSelectsGroups<YmmLane, 1>(gen, high, low, cycles, 0);
    else
        detail::serialMuxSelects(gen, high, low, cycles, thresholdPack);
}

constexpr KernelTable kAvx2Table = {
    "avx2",
    addXnorTile,
    featureFeedback,
    thresholdPack,
    laneSngFill,
    laneMuxSelects,
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
