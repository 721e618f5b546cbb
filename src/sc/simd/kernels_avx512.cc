/**
 * @file
 * AVX-512 kernel table.  The tile kernel (row_kernel.h) runs on 8-word
 * (512-cycle) zmm lane groups; the words left after the last full group
 * take a plain ymm group for exactly 4 words (the whole row at
 * N = 256), a masked zmm group for 5-7 and general-purpose registers
 * for 1-3.  A span of only 1-3 words (a 64-cycle checkpoint block) sums
 * 8 rows per zmm instead, with masked gathers and scatters, and a lone
 * row takes general-purpose registers.  Each carry-save adder is two
 * ternary-logic ops (majority and three-way XOR).  The feedback kernel
 * (feedback_kernel.h) drives up to 8 x 64 rows per zmm group, a tile of
 * at most 256 rows per ymm group and a tile of 64 rows or fewer through
 * the scalar table's kernel; masked gathers and scatters move the count
 * planes and output words, and every adder, comparator and select is
 * one or two ternary-logic ops.  The mask registers also give the
 * threshold compare its packed result for free
 * (_mm512_cmplt_epu64_mask yields the 8 stream bits directly).  The
 * xoshiro lane kernels (xoshiro_kernel.h) step 5-8 generators in one
 * zmm and 2-4 in one ymm (vprolq rotates, vpternlogq XORs, and the SNG
 * compare's mask ORs each draw's bit in); a lone generator takes the
 * serial one-lane path.
 * Compiled with -mavx512f/bw/dq/vl via a per-file CMake property;
 * degrades to a nullptr stub without it.
 */

#include "feedback_kernel.h"
#include "kernels_scalar.h"
#include "row_kernel.h"
#include "simd.h"
#include "xoshiro_kernel.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace aqfpsc::sc::simd {
namespace {

// vpternlogq truth tables over (a, b, c): bit (a << 2 | b << 1 | c).
constexpr int kXnorAB = 0xC3;    // ~(a ^ b)
constexpr int kMajority = 0xE8;  // at least two of a, b, c
constexpr int kXor3 = 0x96;      // a ^ b ^ c
constexpr int kBorrow = 0x8E;    // majority of ~a, b, c
constexpr int kSelect = 0xCA;    // a ? b : c
constexpr int kNotA = 0x0F;      // ~a
constexpr int kOrAnd = 0xF8;     // a | (b & c)

constexpr long long kTopBit = static_cast<long long>(1ULL << 63);

/** Full 8-word lane group. */
struct ZmmLane
{
    using V = __m512i;
    static constexpr std::size_t kWidth = 8;

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

    // Feedback kernel operations (feedback_kernel.h).
    static V ones() { return _mm512_set1_epi64(-1); }
    static V
    broadcast(std::uint64_t x)
    {
        return _mm512_set1_epi64(static_cast<long long>(x));
    }
    static V bitNot(V a) { return _mm512_ternarylogic_epi64(a, a, a, kNotA); }
    static V bitOr(V a, V b) { return _mm512_or_si512(a, b); }
    static V
    xor3(V a, V b, V c)
    {
        return _mm512_ternarylogic_epi64(a, b, c, kXor3);
    }
    static V
    maj(V a, V b, V c)
    {
        return _mm512_ternarylogic_epi64(a, b, c, kMajority);
    }
    static V
    borrow(V a, V b, V c)
    {
        return _mm512_ternarylogic_epi64(a, b, c, kBorrow);
    }
    static V
    select(V m, V a, V b)
    {
        return _mm512_ternarylogic_epi64(m, a, b, kSelect);
    }
    // Vector-extension shifts: GCC 12's _mm512_s[lr]li_epi64 trip
    // -Wmaybe-uninitialized on their internal undefined operand.
    template <int S>
    static V
    shiftLeft(V a)
    {
        return reinterpret_cast<V>(reinterpret_cast<__v8du>(a) << S);
    }
    template <int S>
    static V
    shiftRight(V a)
    {
        return reinterpret_cast<V>(reinterpret_cast<__v8du>(a) >> S);
    }
    // Xoshiro kernel operations (xoshiro_kernel.h).
    static V add(V a, V b) { return _mm512_add_epi64(a, b); }
    template <int K>
    static V
    rotateLeft(V a)
    {
        // Vector extensions again (GCC emits vprolq): _mm512_rol_epi64
        // has the same undefined operand.
        const __v8du u = reinterpret_cast<__v8du>(a);
        return reinterpret_cast<V>((u << K) | (u >> (64 - K)));
    }
    static V
    shiftInTop(V acc, V x)
    {
        return _mm512_ternarylogic_epi64(shiftRight<1>(acc), x,
                                         _mm512_set1_epi64(kTopBit), kOrAnd);
    }
    static V prepareThreshold(V t) { return t; }
    static V
    shiftInBelow(V acc, V r, V t)
    {
        const V down = shiftRight<1>(acc);
        return _mm512_mask_or_epi64(down, _mm512_cmplt_epu64_mask(r, t),
                                    down, _mm512_set1_epi64(kTopBit));
    }
    static __m512i
    laneOffsets(std::size_t stride)
    {
        return _mm512_mullo_epi64(
            _mm512_set1_epi64(static_cast<long long>(stride)),
            _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    }
    V
    gather(const std::uint64_t *p, std::size_t stride,
           std::size_t lanes) const
    {
        return _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), static_cast<__mmask8>((1u << lanes) - 1),
            laneOffsets(stride), p, 8);
    }
    void
    scatter(std::uint64_t *p, std::size_t stride, std::size_t lanes,
            V v) const
    {
        _mm512_mask_i64scatter_epi64(p,
                                     static_cast<__mmask8>((1u << lanes) - 1),
                                     laneOffsets(stride), v, 8);
    }
    // Row lanes of the tile kernel (row_kernel.h).
    struct Strided
    {
        Strided(std::size_t stride, std::size_t lanes)
            : offsets(laneOffsets(stride)),
              mask(static_cast<__mmask8>((1u << lanes) - 1))
        {
        }
        V
        gather(const std::uint64_t *p) const
        {
            return _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), mask,
                                               offsets, p, 8);
        }
        void
        scatter(std::uint64_t *p, V v) const
        {
            _mm512_mask_i64scatter_epi64(p, mask, offsets, v, 8);
        }

        __m512i offsets;
        __mmask8 mask;
    };
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

    // Feedback kernel operations (feedback_kernel.h).
    static V ones() { return _mm256_set1_epi64x(-1); }
    static V
    broadcast(std::uint64_t x)
    {
        return _mm256_set1_epi64x(static_cast<long long>(x));
    }
    static V bitNot(V a) { return _mm256_ternarylogic_epi64(a, a, a, kNotA); }
    static V bitOr(V a, V b) { return _mm256_or_si256(a, b); }
    static V
    xor3(V a, V b, V c)
    {
        return _mm256_ternarylogic_epi64(a, b, c, kXor3);
    }
    static V
    maj(V a, V b, V c)
    {
        return _mm256_ternarylogic_epi64(a, b, c, kMajority);
    }
    static V
    borrow(V a, V b, V c)
    {
        return _mm256_ternarylogic_epi64(a, b, c, kBorrow);
    }
    static V
    select(V m, V a, V b)
    {
        return _mm256_ternarylogic_epi64(m, a, b, kSelect);
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
        return _mm256_rol_epi64(a, K);
    }
    static V
    shiftInTop(V acc, V x)
    {
        return _mm256_ternarylogic_epi64(shiftRight<1>(acc), x,
                                         _mm256_set1_epi64x(kTopBit),
                                         kOrAnd);
    }
    static V prepareThreshold(V t) { return t; }
    static V
    shiftInBelow(V acc, V r, V t)
    {
        const V down = shiftRight<1>(acc);
        return _mm256_mask_or_epi64(down, _mm256_cmplt_epu64_mask(r, t),
                                    down, _mm256_set1_epi64x(kTopBit));
    }
    static __m256i
    laneOffsets(std::size_t stride)
    {
        const auto s = static_cast<long long>(stride);
        return _mm256_setr_epi64x(0, s, 2 * s, 3 * s);
    }
    V
    gather(const std::uint64_t *p, std::size_t stride,
           std::size_t lanes) const
    {
        return _mm256_mmask_i64gather_epi64(
            _mm256_setzero_si256(), static_cast<__mmask8>((1u << lanes) - 1),
            laneOffsets(stride), p, 8);
    }
    void
    scatter(std::uint64_t *p, std::size_t stride, std::size_t lanes,
            V v) const
    {
        _mm256_mask_i64scatter_epi64(p,
                                     static_cast<__mmask8>((1u << lanes) - 1),
                                     laneOffsets(stride), v, 8);
    }
};

/** The tile kernel on 8-word zmm groups; the words left take a plain
 *  ymm group (4), a masked zmm group (5-7) or general-purpose registers
 *  (1-3).  Spans of only 1-3 words sum up to 8 rows side by side in a
 *  zmm (row lanes), and a row that shares no list with its neighbours
 *  takes general-purpose registers. */
template <int P>
struct Avx512Tile
{
    static void
    run(const XnorTile &t)
    {
        detail::xnorTileRows<P, ZmmLane>(t, [&t](auto &&sum) {
            std::size_t wi = 0;
            for (; t.words - wi >= 8; wi += 8)
                sum(ZmmLane{}, wi);
            const std::size_t rest = t.words - wi;
            if (rest > 4) {
                sum(ZmmPartLane{{}, static_cast<__mmask8>((1u << rest) - 1)},
                    wi);
            } else if (rest == 4) {
                sum(YmmLane{}, wi);
            } else {
                for (; wi < t.words; ++wi)
                    sum(detail::GprLane{}, wi);
            }
        });
    }
};

void
addXnorTile(const XnorTile &tile)
{
    detail::addXnorTileWith<Avx512Tile>(tile);
}

void
featureFeedback(const FeedbackTile &tile)
{
    if (tile.rows > 256)
        detail::feedbackRows<ZmmLane>(tile, 0);
    else if (tile.rows > 64)
        detail::feedbackRows<YmmLane>(tile, 0);
    else
        scalarKernels()->featureFeedback(tile);
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

void
laneSngFill(XoshiroLanes &gen, const std::uint64_t threshold[],
            const std::uint64_t ones[], std::uint64_t *const dst[],
            std::size_t cycles)
{
    if (gen.lanes > 4)
        detail::laneSngFillGroups<ZmmLane, 1>(gen, threshold, ones, dst,
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
        detail::laneMuxSelectsGroups<ZmmLane, 1>(gen, high, low, cycles, 0);
    else if (gen.lanes > 1)
        detail::laneMuxSelectsGroups<YmmLane, 1>(gen, high, low, cycles, 0);
    else
        detail::serialMuxSelects(gen, high, low, cycles, thresholdPack);
}

constexpr KernelTable kAvx512Table = {
    "avx512",
    addXnorTile,
    featureFeedback,
    thresholdPack,
    laneSngFill,
    laneMuxSelects,
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
