/**
 * @file
 * The carry-save row kernel, written once over a lane type.
 *
 * addXnorRowGroup() adds all of an output row's XNOR products into one
 * lane group of the planes (the words a Lane register holds):
 *
 *  - each plane is loaded into a register once, at entry;
 *  - the products go through a Harley-Seal carry-save adder tree:
 *    every block of 16 reduces through the ones/twos/fours/eights
 *    planes and hands its "sixteens" carry to plane 4, and the last
 *    8/4/2/1 products reduce through shallower blocks of the same tree;
 *  - each plane is stored once, at exit.
 *
 * Nothing is stored inside the accumulation loop, so a masked lane (the
 * last, partial group of a row) never waits on a masked store that
 * cannot forward to the next load.  The planes end up holding the exact
 * binary per-cycle counts, as after one ripple per product
 * (detail::addXnorRowRipple), so every tier is bit-identical to it.
 *
 * Each tier instantiates the template with lane types defined in its own
 * TU's anonymous namespace.  The instantiations therefore have internal
 * linkage and carry only that TU's arch flags.  A Lane provides:
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
 */

#ifndef AQFPSC_SC_SIMD_ROW_KERNEL_H
#define AQFPSC_SC_SIMD_ROW_KERNEL_H

#include <cstddef>
#include <cstdint>

#include "simd.h"

namespace aqfpsc::sc::simd::detail {

/**
 * Register-resident planes of one lane group plus its row operands.
 * Its steps are forced inline: an out-of-line step would take the
 * planes by reference and keep them in memory, and GCC stops inlining
 * once a kernel TU has grown past its unit-growth limit.
 */
template <typename Lane>
struct RowAccumulator
{
    using V = typename Lane::V;

    const Lane &lane;
    const std::uint64_t *const *xs;
    const std::uint64_t *const *ws;
    std::size_t wi;
    int planes;
    V p[kMaxRowPlanes];

    [[gnu::always_inline]] V
    product(std::size_t i) const
    {
        return Lane::xnor(lane.load(xs[i] + wi), lane.load(ws[i] + wi));
    }

    /** Add @p carry, of weight 2^From, into planes [From, planes). */
    template <int From>
    [[gnu::always_inline]] void
    ripple(V carry)
    {
#pragma GCC unroll 16
        for (int k = From; k < kMaxRowPlanes; ++k) {
            if (k >= planes)
                break;
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
};

/**
 * Add the XNOR products ~(xs[i] ^ ws[i]), i in [0, products), into
 * plane words [wi, wi + lane width) of @p s (see the file comment).
 */
template <typename Lane>
inline void
addXnorRowGroup(const Lane &lane, const PlaneSpan &s,
                const std::uint64_t *const xs[],
                const std::uint64_t *const ws[], std::size_t products,
                std::size_t wi)
{
    RowAccumulator<Lane> acc{lane, xs, ws, wi, s.planeCount, {}};
    std::uint64_t *const base = s.planes + wi;
#pragma GCC unroll 16
    for (int k = 0; k < kMaxRowPlanes; ++k) {
        if (k >= acc.planes)
            break;
        acc.p[k] = lane.load(base + static_cast<std::size_t>(k) * s.stride);
    }
    std::size_t i = 0;
    for (; products - i >= 16; i += 16)
        acc.template ripple<4>(acc.template block<4>(i));
    if (products - i >= 8) {
        acc.template ripple<3>(acc.template block<3>(i));
        i += 8;
    }
    if (products - i >= 4) {
        acc.template ripple<2>(acc.template block<2>(i));
        i += 4;
    }
    if (products - i >= 2) {
        acc.template ripple<1>(acc.template block<1>(i));
        i += 2;
    }
    if (i < products)
        acc.template ripple<0>(acc.product(i));
#pragma GCC unroll 16
    for (int k = 0; k < kMaxRowPlanes; ++k) {
        if (k >= acc.planes)
            break;
        lane.store(base + static_cast<std::size_t>(k) * s.stride, acc.p[k]);
    }
}

} // namespace aqfpsc::sc::simd::detail

#endif // AQFPSC_SC_SIMD_ROW_KERNEL_H
