/**
 * @file
 * Scalar reference loops for the dispatched SC kernels.
 *
 * addXnorRowRipple() adds one product at a time through the carry-save
 * planes: the plain ripple every tile kernel tier must reproduce bit
 * for bit (tests/test_simd_kernels.cc).  addXnorTileRipple() is the
 * same ripple over an XnorTile's operand lists, at any plane count: a
 * reference for tests and benches, which no kernel table calls.
 * thresholdPackBits() is the SNG compare+pack loop; the scalar table
 * wraps it and the vector tables use it for the bits past their last
 * full lane group.
 */

#ifndef AQFPSC_SC_SIMD_KERNELS_SCALAR_H
#define AQFPSC_SC_SIMD_KERNELS_SCALAR_H

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "simd.h"

namespace aqfpsc::sc::simd::detail {

/** One word's carry-save ripple: add @p carry at plane 0. */
inline void
rippleWord(const PlaneSpan &s, std::size_t wi, std::uint64_t carry)
{
    for (int k = 0; k < s.planeCount && carry; ++k) {
        std::uint64_t &plane =
            s.planes[static_cast<std::size_t>(k) * s.stride + wi];
        const std::uint64_t t = plane & carry;
        plane ^= carry;
        carry = t;
    }
    assert(carry == 0 && "ColumnCounts overflow");
}

/** Reference AddXnorRowFn: one ripple per product and word (any
 *  plane count). */
inline void
addXnorRowRipple(const PlaneSpan &s, const std::uint64_t *const xs[],
                 const std::uint64_t *const ws[], std::size_t products,
                 std::size_t words)
{
    for (std::size_t p = 0; p < products; ++p)
        for (std::size_t wi = 0; wi < words; ++wi)
            rippleWord(s, wi, ~(xs[p][wi] ^ ws[p][wi]));
}

/** AddXnorTileFn by one ripple per product and word (any plane
 *  count; the planes are zeroed first). */
inline void
addXnorTileRipple(const XnorTile &t)
{
    const OperandLists &ops = t.ops;
    for (std::size_t r = t.row0; r < t.row0 + t.rows; ++r) {
        const std::size_t g = r / ops.lists;
        const std::size_t l = r % ops.lists;
        const std::uint64_t *const w =
            t.weights + g * ops.groupStride * t.paramStride;
        const std::uint64_t *const bias = t.bias + g * t.paramStride;
        const std::size_t n = ops.first[l + 1] - ops.first[l];
        for (std::size_t c = 0; c < t.images; ++c) {
            const PlaneSpan s{t.planes[c] + (r - t.row0) * t.rowStride,
                              t.planeStride, t.planeCount};
            for (int k = 0; k < t.planeCount; ++k)
                for (std::size_t wi = 0; wi < t.words; ++wi)
                    s.planes[static_cast<std::size_t>(k) * s.stride + wi] =
                        0;
            for (std::size_t wi = 0; wi < t.words; ++wi) {
                rippleWord(s, wi, bias[wi]);
                if (t.padToOdd && n % 2 == 1)
                    rippleWord(s, wi, t.neutral[wi]);
            }
            for (std::size_t i = ops.first[l]; i < ops.first[l + 1]; ++i) {
                const std::uint64_t *const x =
                    t.inputs[c] + ops.xrow[i] * t.inputStride;
                const std::uint64_t *const wr =
                    w + ops.wrow[i] * t.paramStride;
                for (std::size_t wi = 0; wi < t.words; ++wi)
                    rippleWord(s, wi, ~(x[wi] ^ wr[wi]));
            }
        }
    }
}

/** Scalar threshold compare+pack over bits [begin, end). */
inline std::uint64_t
thresholdPackBits(const std::uint64_t *rnd, std::size_t begin,
                  std::size_t end, std::uint64_t threshold)
{
    std::uint64_t word = 0;
    for (std::size_t b = begin; b < end; ++b)
        word |= static_cast<std::uint64_t>(rnd[b] < threshold) << b;
    return word;
}

} // namespace aqfpsc::sc::simd::detail

#endif // AQFPSC_SC_SIMD_KERNELS_SCALAR_H
