/**
 * @file
 * The carry-save tile kernel, written once over a lane type and a plane
 * count.
 *
 * xnorTileRows() sums every row of an XnorTile (simd.h) for every image
 * of the cohort, rows outer and images inner, so a row's operand list
 * is read once for the whole cohort.  A register holds one of two
 * things:
 *
 *  - words of one row (word lanes), for spans of 4 words and more: each
 *    product is two loads at the row's list entry;
 *  - one word of up to Lane::kWidth rows (row lanes), for spans of 1-3
 *    words (the 64-cycle checkpoint blocks), where a word lane would
 *    leave most of a register empty.  The rows of a lane group read the
 *    same list: the rows of one dense group set (lists == 1) share its
 *    input words and gather their own weight words; a run of conv
 *    pixels (OperandLists::run) shares the weight words and gathers its
 *    input words, one input row apart.
 *
 * Either way, per lane group:
 *
 *  - the planes live in P registers, P a compile-time constant (the
 *    tile's plane count, up to kMaxFeedbackPlanes), and start at the
 *    row's constant products (the bias, plus the neutral pad of an even
 *    row), not at a load;
 *  - the products ~(input ^ weight) go through a Harley-Seal carry-save
 *    adder tree: every block of 16 reduces through the ones/twos/fours/
 *    eights planes and hands its "sixteens" carry to plane 4, and the
 *    last 8/4/2/1 products reduce through shallower blocks of the same
 *    tree;
 *  - each plane is stored once, at exit (a strided scatter for row
 *    lanes).
 *
 * Nothing is stored inside the accumulation loop, so a masked lane never
 * waits on a masked store that cannot forward to the next load.  The
 * planes end up holding the exact binary per-cycle counts, as after one
 * ripple per product (detail::addXnorRowRipple), so every tier is
 * bit-identical to it.
 *
 * Each tier instantiates the templates with lane types defined in its
 * own TU's anonymous namespace (the general-purpose-register lane of
 * xoshiro_kernel.h included), so the instantiations have internal
 * linkage and carry only that TU's arch flags.  A word lane provides:
 *
 *   using V;                                       register type
 *   V load(const std::uint64_t *) const;           masked when partial
 *   void store(std::uint64_t *, V) const;
 *   static V zero();
 *   static V xnor(V a, V b);                       ~(a ^ b)
 *   static V bitAnd(V a, V b);
 *   static V bitXor(V a, V b);
 *   static void csa(V &high, V &low, V b, V c);    low + b + c
 *                                                  = 2 * high' + low'
 *
 * and a row lane, besides those operations, the lane count and strided
 * access to the lanes' rows:
 *
 *   static constexpr std::size_t kWidth;
 *   static V broadcast(std::uint64_t);
 *   struct Strided {                               lanes rows, stride
 *       Strided(std::size_t stride,                words apart
 *               std::size_t lanes);
 *       V gather(const std::uint64_t *p) const;    lane j = p[j * stride]
 *       void scatter(std::uint64_t *p, V) const;   the inverse
 *   };
 */

#ifndef AQFPSC_SC_SIMD_ROW_KERNEL_H
#define AQFPSC_SC_SIMD_ROW_KERNEL_H

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "simd.h"

namespace aqfpsc::sc::simd::detail {

/** Widest span the tiers sum in row lanes. */
inline constexpr std::size_t kMaxRowLaneWords = 3;

/**
 * Register-resident planes of one lane group, summing the products
 * @c product(i) yields.  Its steps are forced inline: an out-of-line
 * step would take the planes by reference and keep them in memory, and
 * GCC stops inlining once a kernel TU has grown past its unit-growth
 * limit.
 */
template <typename Lane, int P, typename Products>
struct RowAccumulator
{
    using V = typename Lane::V;

    const Products &product;
    V p[P];

    /** Add @p carry, of weight 2^From, into planes [From, P). */
    template <int From>
    [[gnu::always_inline]] void
    ripple(V carry)
    {
#pragma GCC unroll 16
        for (int k = From; k < P; ++k) {
            const V t = Lane::bitAnd(p[k], carry);
            p[k] = Lane::bitXor(p[k], carry);
            carry = t;
        }
    }

    /** Sum products [i, i + 2^Log) into planes [0, Log); returns the
     *  carry of weight 2^Log. */
    template <int Log>
    [[gnu::always_inline]] V
    block(std::size_t i)
    {
        V high;
        if constexpr (Log == 1) {
            Lane::csa(high, p[0], product(i), product(i + 1));
        } else {
            const V a = block<Log - 1>(i);
            const V b = block<Log - 1>(i + (std::size_t{1} << (Log - 1)));
            Lane::csa(high, p[Log - 1], a, b);
        }
        return high;
    }

    /**
     * The count of @p bias, @p pad (when non-null) and products
     * [0, @p n).  A block of 2^Log products needs Log + 1 planes to hold
     * its count, so the blocks a P-plane row cannot reach are compiled
     * out.
     */
    [[gnu::always_inline]] void
    count(V bias, const V *pad, std::size_t n)
    {
#pragma GCC unroll 16
        for (int k = 0; k < P; ++k)
            p[k] = Lane::zero();
        if constexpr (P > 1) {
            if (pad != nullptr) {
                p[1] = Lane::bitAnd(bias, *pad);
                p[0] = Lane::bitXor(bias, *pad);
            } else {
                p[0] = bias;
            }
        } else {
            assert(pad == nullptr);
            p[0] = bias;
        }
        std::size_t i = 0;
        if constexpr (P > 4) {
            for (; n - i >= 16; i += 16)
                ripple<4>(block<4>(i));
        }
        if constexpr (P > 3) {
            if (n - i >= 8) {
                ripple<3>(block<3>(i));
                i += 8;
            }
        }
        if constexpr (P > 2) {
            if (n - i >= 4) {
                ripple<2>(block<2>(i));
                i += 4;
            }
        }
        if constexpr (P > 1) {
            if (n - i >= 2) {
                ripple<1>(block<1>(i));
                i += 2;
            }
        }
        if (i < n)
            ripple<0>(product(i++));
        assert(i == n && "tile row count exceeds its planes");
    }
};

/** Word lanes: the products of one row over the lane's words. */
template <typename Lane>
struct WordProducts
{
    const Lane &lane;
    const std::uint32_t *xrow;
    const std::uint32_t *wrow;
    const std::uint64_t *x; ///< the image's input row 0, at the group
    std::size_t xStride;
    const std::uint64_t *w; ///< the row's weight group, likewise
    std::size_t wStride;

    [[gnu::always_inline]] typename Lane::V
    operator()(std::size_t i) const
    {
        return Lane::xnor(lane.load(x + xrow[i] * xStride),
                          lane.load(w + wrow[i] * wStride));
    }
};

/**
 * Row lanes: the products of lane-group rows at one word.  @p Dense
 * rows share the input and step one weight group per lane; the others
 * (a run of conv pixels) share the weight and step one input row per
 * lane.
 */
template <typename Lane, bool Dense>
struct LaneProducts
{
    using Strided = typename Lane::Strided;

    const Strided &step;
    const std::uint32_t *xrow;
    const std::uint32_t *wrow;
    const std::uint64_t *x; ///< lane 0's input row 0, at the word
    std::size_t xStride;
    const std::uint64_t *w; ///< lane 0's weight group, likewise
    std::size_t wStride;

    [[gnu::always_inline]] typename Lane::V
    operator()(std::size_t i) const
    {
        const std::uint64_t *const xi = x + xrow[i] * xStride;
        const std::uint64_t *const wi = w + wrow[i] * wStride;
        if constexpr (Dense)
            return Lane::xnor(Lane::broadcast(*xi), step.gather(wi));
        else
            return Lane::xnor(step.gather(xi), Lane::broadcast(*wi));
    }
};

/** Store one row's count of @p n products plus its constant products
 *  into plane words [0, lane width) of @p dst. */
template <typename Lane, int P>
[[gnu::always_inline]] inline void
sumRowGroup(const Lane &lane, const std::uint32_t *xrow,
            const std::uint32_t *wrow, std::size_t n, const std::uint64_t *x,
            std::size_t x_stride, const std::uint64_t *w,
            std::size_t w_stride, const std::uint64_t *bias,
            const std::uint64_t *pad, std::uint64_t *dst,
            std::size_t plane_stride)
{
    using V = typename Lane::V;
    const WordProducts<Lane> products{lane, xrow, wrow, x,
                                      x_stride, w, w_stride};
    RowAccumulator<Lane, P, WordProducts<Lane>> acc{products, {}};
    const V q = pad != nullptr ? lane.load(pad) : Lane::zero();
    acc.count(lane.load(bias), pad != nullptr ? &q : nullptr, n);
#pragma GCC unroll 16
    for (int k = 0; k < P; ++k)
        lane.store(dst + static_cast<std::size_t>(k) * plane_stride,
                   acc.p[k]);
}

/**
 * Store the counts of @p lanes rows (lane j: the tile row at
 * dst + j * row_stride) at one word.  Lane j's weights are
 * @p lane_weights words past lane j - 1's (dense rows; bias rows
 * @p lane_bias apart likewise), or its inputs one input row past (a
 * conv run, one bias).
 */
template <typename Lane, int P, bool Dense>
[[gnu::always_inline]] inline void
sumRowLanes(std::size_t lanes, const std::uint32_t *xrow,
            const std::uint32_t *wrow, std::size_t n, const std::uint64_t *x,
            std::size_t x_stride, const std::uint64_t *w,
            std::size_t w_stride, std::size_t lane_weights,
            const std::uint64_t *bias, std::size_t lane_bias,
            const std::uint64_t *pad, std::uint64_t *dst,
            std::size_t row_stride, std::size_t plane_stride)
{
    using V = typename Lane::V;
    using Strided = typename Lane::Strided;
    const Strided step(Dense ? lane_weights : x_stride, lanes);
    const LaneProducts<Lane, Dense> products{step, xrow, wrow, x,
                                             x_stride, w, w_stride};
    RowAccumulator<Lane, P, LaneProducts<Lane, Dense>> acc{products, {}};
    V b;
    if constexpr (Dense)
        b = Strided(lane_bias, lanes).gather(bias);
    else
        b = Lane::broadcast(*bias);
    const V q = pad != nullptr ? Lane::broadcast(*pad) : Lane::zero();
    acc.count(b, pad != nullptr ? &q : nullptr, n);
    const Strided out(row_stride, lanes);
#pragma GCC unroll 16
    for (int k = 0; k < P; ++k)
        out.scatter(dst + static_cast<std::size_t>(k) * plane_stride,
                    acc.p[k]);
}

/**
 * Sum every row of @p t for every image with P = t.planeCount planes.
 * @p groups splits the span into word-lane groups: groups(sum) calls
 * sum(lane, first word) once per group.  RowLane, when not void, sums
 * spans of up to kMaxRowLaneWords words in row lanes wherever a lane
 * group of rows reads one list.
 */
template <int P, typename RowLane, typename Groups>
inline void
xnorTileRows(const XnorTile &t, Groups &&groups)
{
    static_assert(P >= 1 && P <= kMaxFeedbackPlanes);
    assert(t.planeCount == P);
    const OperandLists &ops = t.ops;
    const bool dense = ops.lists == 1;
    std::size_t g = t.row0 / ops.lists;
    std::size_t l = t.row0 % ops.lists;
    for (std::size_t r = 0; r < t.rows;) {
        const std::uint32_t first = ops.first[l];
        const std::size_t n = ops.first[l + 1] - first;
        const std::uint32_t *const xrow = ops.xrow + first;
        const std::uint32_t *const wrow = ops.wrow + first;
        const std::uint64_t *const w =
            t.weights + g * ops.groupStride * t.paramStride;
        const std::uint64_t *const bias = t.bias + g * t.paramStride;
        // m = n + 1 (the bias) is even exactly when n is odd.
        const std::uint64_t *const pad =
            t.padToOdd && n % 2 == 1 ? t.neutral : nullptr;
        constexpr bool kRowLanes = !std::is_void_v<RowLane>;
        std::size_t lanes = 1;
        if constexpr (kRowLanes) {
            if (t.words <= kMaxRowLaneWords)
                lanes = std::min<std::size_t>(
                    {RowLane::kWidth, t.rows - r, dense ? t.rows : ops.run[l]});
        }
        for (std::size_t c = 0; c < t.images; ++c) {
            const std::uint64_t *const x = t.inputs[c];
            std::uint64_t *const dst = t.planes[c] + r * t.rowStride;
            if constexpr (kRowLanes) {
                if (lanes > 1) {
                    for (std::size_t wi = 0; wi < t.words; ++wi) {
                        const std::uint64_t *const q =
                            pad != nullptr ? pad + wi : nullptr;
                        if (dense)
                            sumRowLanes<RowLane, P, true>(
                                lanes, xrow, wrow, n, x + wi, t.inputStride,
                                w + wi, t.paramStride,
                                ops.groupStride * t.paramStride, bias + wi,
                                t.paramStride, q, dst + wi, t.rowStride,
                                t.planeStride);
                        else
                            sumRowLanes<RowLane, P, false>(
                                lanes, xrow, wrow, n, x + wi, t.inputStride,
                                w + wi, t.paramStride, 0, bias + wi, 0, q,
                                dst + wi, t.rowStride, t.planeStride);
                    }
                    continue;
                }
            }
            groups([&](const auto &lane, std::size_t wi) {
                sumRowGroup<std::decay_t<decltype(lane)>, P>(
                    lane, xrow, wrow, n, x + wi, t.inputStride, w + wi,
                    t.paramStride, bias + wi, pad ? pad + wi : nullptr,
                    dst + wi, t.planeStride);
            });
        }
        r += lanes;
        if (dense) {
            g += lanes;
        } else if ((l += lanes) == ops.lists) {
            l = 0;
            ++g;
        }
    }
}

/** Entry<P>::run for P in 1..sizeof...(Is). */
template <template <int> class Entry, std::size_t... Is>
constexpr auto
tileEntries(std::index_sequence<Is...>)
{
    return std::array<void (*)(const XnorTile &), sizeof...(Is)>{
        &Entry<static_cast<int>(Is) + 1>::run...};
}

/** A tier's AddXnorTileFn: its P-plane instantiation Entry<P>::run for
 *  P = tile.planeCount in [1, kMaxFeedbackPlanes]. */
template <template <int> class Entry>
void
addXnorTileWith(const XnorTile &tile)
{
    static constexpr auto kEntries =
        tileEntries<Entry>(std::make_index_sequence<kMaxFeedbackPlanes>{});
    assert(tile.planeCount >= 1 && tile.planeCount <= kMaxFeedbackPlanes);
    kEntries[static_cast<std::size_t>(tile.planeCount) - 1](tile);
}

} // namespace aqfpsc::sc::simd::detail

#endif // AQFPSC_SC_SIMD_ROW_KERNEL_H
