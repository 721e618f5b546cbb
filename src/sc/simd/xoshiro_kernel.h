/**
 * @file
 * The lane-parallel xoshiro256** kernel, written once over a lane type
 * and a per-draw sink.
 *
 * Every image's input SNG and every CMOS MUX pool pixel draws from its
 * own xoshiro256** generator (sc::Xoshiro256StarStar), as each of the
 * paper's SNGs has its own true RNG.  One generator's recurrence is
 * serial, but a cohort's generators are independent, so xoshiroGroups()
 * steps them side by side, one generator per 64-bit lane: each register
 * operation applies one step of the recurrence to every lane's own
 * state.  Lane l therefore draws exactly the words its generator's
 * nextWords() would, in the same order; only the interleaving of
 * different generators changes.
 *
 * The draws never reach memory.  Each one feeds a sink that shifts one
 * bit per lane into a 64-cycle word:
 *
 *  - ThresholdSink: the SNG compare, draw < threshold (the code 2^bits,
 *    whose threshold does not fit 64 bits, ORs in an all-ones mask);
 *  - SelectSink: the draw's top two bits, the CMOS pool's 4:1 MUX
 *    select (RandomSource::nextBits(2)).
 *
 * A bit enters at the top of its word and shifts down, so after n
 * draws bit 64 - n + i holds draw i; the word is emitted shifted down
 * by 64 - n, its tail bits zero.  The state and the words stay in
 * registers: the steps are forced inline, as in the other kernels.
 *
 * The vector tiers group the lanes by register width, 8 per zmm and 4
 * per ymm, and the scalar tier interleaves general-purpose registers
 * (GprLane below) in pairs.  Each tier instantiates the templates with
 * lane types of its own TU, so the instantiations carry only that TU's
 * arch flags (row_kernel.h).  Beyond the tile kernel's load, store and
 * zero, a Lane provides, per 64-bit lane:
 *
 *   static constexpr std::size_t kWidth;           64-bit lanes per V
 *   static V add(V a, V b);
 *   static V bitXor(V a, V b);
 *   static V xor3(V a, V b, V c);
 *   template <int S> static V shiftLeft(V a);
 *   template <int K> static V rotateLeft(V a);
 *   static V shiftInTop(V acc, V x);               (acc >> 1) | (x & 2^63)
 *   static V prepareThreshold(V t);                t in compare form
 *   static V shiftInBelow(V acc, V r, V t);        (acc >> 1) |
 *                                                  (r < t) << 63, t from
 *                                                  prepareThreshold
 *
 * A lone generator would run the recurrence in one lane of a vector
 * register, so the vector tiers hand it to serialSngFill and
 * serialMuxSelects instead.
 */

#ifndef AQFPSC_SC_SIMD_XOSHIRO_KERNEL_H
#define AQFPSC_SC_SIMD_XOSHIRO_KERNEL_H

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "simd.h"

namespace aqfpsc::sc::simd::detail {

// Each kernel TU gets its own copy of all of this (an unnamed
// namespace), compiled with that TU's arch flags: the instantiations
// with each tier's lane types have internal linkage anyway, and so do
// GprLane and the one-lane path below.
namespace {

/** Bits [0, n) of a word, n in [1, 64]. */
inline std::uint64_t
lowBits(std::size_t n)
{
    return ~0ULL >> (64 - n);
}

/** One xoshiro256** step of every lane (Xoshiro256StarStar::nextWord):
 *  returns the draws and advances the states. */
template <typename Lane>
[[gnu::always_inline]] inline typename Lane::V
xoshiroStep(typename Lane::V &s0, typename Lane::V &s1,
            typename Lane::V &s2, typename Lane::V &s3)
{
    using V = typename Lane::V;
    const V times5 = Lane::add(Lane::template shiftLeft<2>(s1), s1);
    const V rotated = Lane::template rotateLeft<7>(times5);
    const V draw = Lane::add(Lane::template shiftLeft<3>(rotated), rotated);
    // s2 ^ s0 leads both three-way XORs, so the tiers without a
    // ternary XOR share it.
    const V t = Lane::template shiftLeft<17>(s1);
    const V s3x = Lane::bitXor(s3, s1);
    const V s1x = Lane::xor3(s2, s0, s1);
    s2 = Lane::xor3(s2, s0, t);
    s0 = Lane::bitXor(s0, s3x);
    s1 = s1x;
    s3 = Lane::template rotateLeft<45>(s3x);
    return draw;
}

/** The SNG sink: one word per lane of (draw < threshold) | ones. */
template <typename Lane, std::size_t G>
struct ThresholdSink
{
    using V = typename Lane::V;

    const std::uint64_t *ones;   ///< from the group's first lane
    std::uint64_t *const *dst;   ///< from the group's first lane
    std::size_t lanes;           ///< lanes emitted, <= G * kWidth
    V threshold[G];
    V acc[G];

    ThresholdSink(const std::uint64_t *threshold_words,
                  const std::uint64_t *ones_words,
                  std::uint64_t *const *dst_rows, std::size_t lane_count)
        : ones(ones_words), dst(dst_rows), lanes(lane_count)
    {
        for (std::size_t g = 0; g < G; ++g)
            threshold[g] = Lane::prepareThreshold(
                Lane{}.load(threshold_words + g * Lane::kWidth));
    }

    [[gnu::always_inline]] void
    clear()
    {
        for (std::size_t g = 0; g < G; ++g)
            acc[g] = Lane::zero();
    }

    [[gnu::always_inline]] void
    add(std::size_t g, typename Lane::V draw)
    {
        acc[g] = Lane::shiftInBelow(acc[g], draw, threshold[g]);
    }

    [[gnu::always_inline]] void
    emit(std::size_t w, std::size_t n)
    {
        alignas(64) std::uint64_t words[G * Lane::kWidth];
        for (std::size_t g = 0; g < G; ++g)
            Lane{}.store(words + g * Lane::kWidth, acc[g]);
        const std::uint64_t tail = lowBits(n);
        for (std::size_t l = 0; l < lanes; ++l)
            dst[l][w] = (words[l] >> (64 - n)) | (ones[l] & tail);
    }
};

/** The MUX select sink: the draws' bit 63 and bit 62 per lane. */
template <typename Lane, std::size_t G>
struct SelectSink
{
    using V = typename Lane::V;

    std::uint64_t *const *high; ///< from the group's first lane
    std::uint64_t *const *low;
    std::size_t lanes;
    V hi[G];
    V lo[G];

    [[gnu::always_inline]] void
    clear()
    {
        for (std::size_t g = 0; g < G; ++g)
            hi[g] = lo[g] = Lane::zero();
    }

    [[gnu::always_inline]] void
    add(std::size_t g, typename Lane::V draw)
    {
        hi[g] = Lane::shiftInTop(hi[g], draw);
        lo[g] = Lane::shiftInTop(lo[g], Lane::template shiftLeft<1>(draw));
    }

    [[gnu::always_inline]] void
    emit(std::size_t w, std::size_t n)
    {
        alignas(64) std::uint64_t his[G * Lane::kWidth];
        alignas(64) std::uint64_t los[G * Lane::kWidth];
        for (std::size_t g = 0; g < G; ++g) {
            Lane{}.store(his + g * Lane::kWidth, hi[g]);
            Lane{}.store(los + g * Lane::kWidth, lo[g]);
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            high[l][w] = his[l] >> (64 - n);
            low[l][w] = los[l] >> (64 - n);
        }
    }
};

/**
 * Step the G register groups of lanes [first, first + G * kWidth) of
 * @p gen through @p cycles draws, feeding each 64-cycle word's draws to
 * @p sink, and store their final states.
 */
template <typename Lane, std::size_t G, typename Sink>
[[gnu::always_inline]] inline void
xoshiroGroups(XoshiroLanes &gen, std::size_t first, std::size_t cycles,
              Sink &sink)
{
    using V = typename Lane::V;
    const Lane lane{};
    V s[4][G];
    for (std::size_t k = 0; k < 4; ++k)
        for (std::size_t g = 0; g < G; ++g)
            s[k][g] = lane.load(&gen.s[k][first + g * Lane::kWidth]);
    for (std::size_t w = 0; w * 64 < cycles; ++w) {
        const std::size_t n = std::min<std::size_t>(64, cycles - w * 64);
        sink.clear();
        for (std::size_t b = 0; b < n; ++b)
            for (std::size_t g = 0; g < G; ++g)
                sink.add(g, xoshiroStep<Lane>(s[0][g], s[1][g], s[2][g],
                                              s[3][g]));
        sink.emit(w, n);
    }
    for (std::size_t k = 0; k < 4; ++k)
        for (std::size_t g = 0; g < G; ++g)
            lane.store(&gen.s[k][first + g * Lane::kWidth], s[k][g]);
}

/** LaneSngFillFn over lanes [first, first + G * kWidth) ∩ gen.lanes. */
template <typename Lane, std::size_t G>
void
laneSngFillGroups(XoshiroLanes &gen, const std::uint64_t threshold[],
                  const std::uint64_t ones[], std::uint64_t *const dst[],
                  std::size_t cycles, std::size_t first)
{
    ThresholdSink<Lane, G> sink(
        threshold + first, ones + first, dst + first,
        std::min(G * Lane::kWidth, gen.lanes - first));
    xoshiroGroups<Lane, G>(gen, first, cycles, sink);
}

/** LaneMuxSelectsFn over lanes [first, first + G * kWidth) ∩ gen.lanes. */
template <typename Lane, std::size_t G>
void
laneMuxSelectsGroups(XoshiroLanes &gen, std::uint64_t *const high[],
                     std::uint64_t *const low[], std::size_t cycles,
                     std::size_t first)
{
    SelectSink<Lane, G> sink{high + first, low + first,
                             std::min(G * Lane::kWidth, gen.lanes - first),
                             {}, {}};
    xoshiroGroups<Lane, G>(gen, first, cycles, sink);
}

/** One word in a general-purpose register: the scalar tier's lane
 *  type, the vector tiers' one-lane generator path and every tier's
 *  tile kernel (row_kernel.h) on spans of 1-3 words. */
struct GprLane
{
    using V = std::uint64_t;
    static constexpr std::size_t kWidth = 1;

    V load(const std::uint64_t *p) const { return *p; }
    void store(std::uint64_t *p, V v) const { *p = v; }
    static V zero() { return 0; }
    static V add(V a, V b) { return a + b; }
    static V xnor(V a, V b) { return ~(a ^ b); }
    static V bitAnd(V a, V b) { return a & b; }
    static V bitXor(V a, V b) { return a ^ b; }
    static void
    csa(V &high, V &low, V b, V c)
    {
        const V u = low ^ b;
        high = (low & b) | (u & c);
        low = u ^ c;
    }
    static V xor3(V a, V b, V c) { return a ^ b ^ c; }
    template <int S>
    static V
    shiftLeft(V a)
    {
        return a << S;
    }
    template <int K>
    static V
    rotateLeft(V a)
    {
        return (a << K) | (a >> (64 - K));
    }
    static V
    shiftInTop(V acc, V x)
    {
        return (acc >> 1) | (x & (1ULL << 63));
    }
    static V prepareThreshold(V t) { return t; }
    static V
    shiftInBelow(V acc, V r, V t)
    {
        return (acc >> 1) | (static_cast<V>(r < t) << 63);
    }
};

/** One lane's draws, buffered a word at a time for @c emitWord(w,
 *  draws, n). */
template <typename EmitWord>
struct BufferSink
{
    explicit BufferSink(EmitWord emit_word) : emitWord(emit_word) {}

    EmitWord emitWord;
    std::uint64_t draws[64];
    std::size_t count = 0;

    [[gnu::always_inline]] void clear() { count = 0; }
    [[gnu::always_inline]] void
    add(std::size_t /*g*/, std::uint64_t draw)
    {
        draws[count++] = draw;
    }
    [[gnu::always_inline]] void
    emit(std::size_t w, std::size_t n)
    {
        emitWord(w, draws, n);
    }
};

/**
 * The vector tiers' one-lane path: lane 0 draws each word's cycles into
 * a buffer in general-purpose registers and the tier's threshold
 * compare @p pack packs them, as the per-row fillBipolar does.  This
 * runs as fast as fillBipolar; one vector lane, or the compare fused
 * into the general-purpose loop, measured 10-25% slower.  Same contract
 * as LaneSngFillFn.
 */
inline void
serialSngFill(XoshiroLanes &gen, const std::uint64_t threshold[],
              const std::uint64_t ones[], std::uint64_t *const dst[],
              std::size_t cycles, ThresholdPackFn pack)
{
    auto emit = [&](std::size_t w, const std::uint64_t *draws,
                    std::size_t n) {
        dst[0][w] = pack(draws, n, threshold[0]) | (ones[0] & lowBits(n));
    };
    BufferSink sink(emit);
    xoshiroGroups<GprLane, 1>(gen, 0, cycles, sink);
}

/** serialSngFill for the MUX selects (LaneMuxSelectsFn): sel =
 *  draw >> 62 is below k exactly when the draw is below k * 2^62, so
 *  three threshold masks give both select bits. */
inline void
serialMuxSelects(XoshiroLanes &gen, std::uint64_t *const high[],
                 std::uint64_t *const low[], std::size_t cycles,
                 ThresholdPackFn pack)
{
    auto emit = [&](std::size_t w, const std::uint64_t *draws,
                    std::size_t n) {
        const std::uint64_t below1 = pack(draws, n, 1ULL << 62);
        const std::uint64_t below2 = pack(draws, n, 2ULL << 62);
        const std::uint64_t below3 = pack(draws, n, 3ULL << 62);
        high[0][w] = ~below2 & lowBits(n);
        low[0][w] = ((below2 & ~below1) | (~below2 & ~below3)) & lowBits(n);
    };
    BufferSink sink(emit);
    xoshiroGroups<GprLane, 1>(gen, 0, cycles, sink);
}

} // namespace

} // namespace aqfpsc::sc::simd::detail

#endif // AQFPSC_SC_SIMD_XOSHIRO_KERNEL_H
