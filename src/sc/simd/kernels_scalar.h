/**
 * @file
 * Scalar reference loops for the dispatched SC kernels.
 *
 * addXnorRowRipple() adds one product at a time through the carry-save
 * planes: the plain ripple every row kernel tier must reproduce bit for
 * bit (tests/test_simd_kernels.cc), and the path ColumnCounts takes for
 * counters too wide for the row kernel's registers.  thresholdPackBits()
 * is the SNG compare+pack loop; the scalar table wraps it and the vector
 * tables use it for the bits past their last full lane group.
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
