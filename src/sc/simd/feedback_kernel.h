/**
 * @file
 * The rows-as-lanes feature-feedback kernel, written once over a lane
 * type.
 *
 * Algorithm 1's counter form (blocks::FeatureFeedbackUnit) is one serial
 * recurrence per output row:
 *
 *    S = carry + count,  out = S >= M,
 *    carry' = clamp(S - H - out, 0, M),  H = (M - 1) / 2.
 *
 * Stepped one row at a time, every cycle waits on the previous one.
 * Rows are independent, though, so feedbackGroup() steps 64 x
 * Lane::kWidth rows at once, one row per bit lane, in bit-sliced
 * arithmetic: register b of a number holds bit b of that number for
 * every row.  Per 64-cycle word:
 *
 *  1. each count plane of the group is gathered (register i holds row i
 *     of every 64-row lane) and transposed 64 x 64 bits per lane, so
 *     register t then holds cycle t's count bit of every row;
 *  2. per cycle, ripple adders and comparators run the recurrence with
 *     each row's own M (conv border windows mix M = 5/7/11 in one tile):
 *       - low = S < M is the borrow of S - M, and out = ~low;
 *       - T = S - H - out is the sum S + ~H + low; its carry-out is
 *         T >= 0 (the lower clamp);
 *       - S >= M + H + 2 is exactly T > M (the upper clamp, which only
 *         an out = 1 cycle can reach);
 *     H = M >> 1 because M is odd, so its planes are M's shifted down
 *     one;
 *  3. the 64 output registers transpose back into one word per row and
 *     scatter into the rows' output streams.
 *
 * Every operation is exact integer arithmetic on each row's own bits,
 * so a lane computes exactly FeatureFeedbackUnit::step's carry and
 * output, whatever the lane width: the kernel is bit-identical to the
 * per-row drive on every tier (tests/test_simd_kernels.cc).
 *
 * Beyond the row kernel's Lane operations (row_kernel.h), a Lane
 * provides:
 *
 *   static constexpr std::size_t kWidth;           64-bit lanes per V
 *   static V ones();
 *   static V broadcast(std::uint64_t);
 *   static V bitNot(V a);
 *   static V bitOr(V a, V b);
 *   static V xor3(V a, V b, V c);
 *   static V maj(V a, V b, V c);                   majority
 *   static V borrow(V a, V b, V c);                maj(~a, b, c): borrow
 *                                                  out of a - b - c
 *   static V select(V m, V a, V b);                m ? a : b per bit
 *   template <int S> static V shiftLeft(V);        per 64-bit lane
 *   template <int S> static V shiftRight(V);
 *   V gather(const std::uint64_t *p, std::size_t stride,
 *            std::size_t lanes) const;             lane j = p[j * stride]
 *                                                  for j < lanes, else 0
 *   void scatter(std::uint64_t *p, std::size_t stride,
 *                std::size_t lanes, V v) const;    the inverse, j < lanes
 */

#ifndef AQFPSC_SC_SIMD_FEEDBACK_KERNEL_H
#define AQFPSC_SC_SIMD_FEEDBACK_KERNEL_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "simd.h"

namespace aqfpsc::sc::simd::detail {

/** One level of the 64 x 64 transpose: swap the off-diagonal J x J
 *  blocks, bit p + J of register k with bit p of register k + J. */
template <typename Lane, int J>
inline void
transposeLevel(typename Lane::V a[64], std::uint64_t low_halves)
{
    using V = typename Lane::V;
    const V mask = Lane::broadcast(low_halves);
    for (int k = 0; k < 64; k = (k + J + 1) & ~J) {
        const V t = Lane::bitAnd(
            Lane::bitXor(Lane::template shiftRight<J>(a[k]), a[k + J]),
            mask);
        a[k + J] = Lane::bitXor(a[k + J], t);
        a[k] = Lane::bitXor(a[k], Lane::template shiftLeft<J>(t));
    }
}

/** Transpose each lane's 64 x 64 bit matrix in place: bit t of a[i]
 *  becomes bit i of a[t]. */
template <typename Lane>
inline void
transpose64(typename Lane::V a[64])
{
    transposeLevel<Lane, 32>(a, 0x00000000FFFFFFFFULL);
    transposeLevel<Lane, 16>(a, 0x0000FFFF0000FFFFULL);
    transposeLevel<Lane, 8>(a, 0x00FF00FF00FF00FFULL);
    transposeLevel<Lane, 4>(a, 0x0F0F0F0F0F0F0F0FULL);
    transposeLevel<Lane, 2>(a, 0x3333333333333333ULL);
    transposeLevel<Lane, 1>(a, 0x5555555555555555ULL);
}

/**
 * Drive tile rows [r0, r0 + 64 * Lane::kWidth) (clipped to tile.rows)
 * through every cycle of the tile, with P count planes (see the file
 * comment).
 */
template <typename Lane, int P>
void
feedbackGroup(const FeedbackTile &tile, std::size_t r0)
{
    using V = typename Lane::V;
    const Lane lane{};
    const std::size_t rows = std::min(tile.rows - r0, 64 * Lane::kWidth);
    const std::size_t slice0 = r0 / 64;
    // Lanes of row i of each 64-row lane that lie inside the group.
    const auto lanesOf = [rows](std::size_t i) -> std::size_t {
        return i < rows ? (rows - i + 63) / 64 : 0;
    };

    // Per-row constants: M, ~H (H = M >> 1) and G = M + H + 2, the
    // first S whose clamped carry is M.
    V m[P], nh[P], g[P + 1], carry[P];
    for (int b = 0; b < P; ++b) {
        m[b] = lane.load(tile.m + b * tile.sliceStride + slice0);
        carry[b] = lane.load(tile.carry + b * tile.sliceStride + slice0);
    }
    {
        V cy = Lane::zero();
        for (int b = 0; b < P; ++b) {
            const V h = b + 1 < P ? m[b + 1] : Lane::zero();
            nh[b] = Lane::bitNot(h);
            g[b] = Lane::xor3(m[b], h, cy);
            cy = Lane::maj(m[b], h, cy);
        }
        g[P] = cy;
        cy = Lane::ones(); // + 2
        for (int b = 1; b <= P; ++b) {
            const V sum = Lane::bitXor(g[b], cy);
            cy = Lane::bitAnd(g[b], cy);
            g[b] = sum;
        }
    }

    V count[P][64];
    V out[64];
    const std::size_t words = (tile.cycles + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
        for (int b = 0; b < P; ++b) {
            const std::uint64_t *src = tile.planes + r0 * tile.rowStride +
                                       b * tile.planeStride + w;
            for (std::size_t i = 0; i < 64; ++i)
                count[b][i] = lane.gather(src + i * tile.rowStride,
                                          64 * tile.rowStride, lanesOf(i));
            transpose64<Lane>(count[b]);
        }
        const std::size_t cycles =
            std::min<std::size_t>(64, tile.cycles - 64 * w);
        for (std::size_t t = 0; t < cycles; ++t) {
            V s[P + 1];
            V cy = Lane::zero();
            for (int b = 0; b < P; ++b) {
                const V c = count[b][t];
                s[b] = Lane::xor3(carry[b], c, cy);
                cy = Lane::maj(carry[b], c, cy);
            }
            s[P] = cy;
            V low = Lane::zero();
            for (int b = 0; b < P; ++b)
                low = Lane::borrow(s[b], m[b], low);
            low = Lane::borrow(s[P], Lane::zero(), low);
            V below_g = Lane::zero();
            for (int b = 0; b <= P; ++b)
                below_g = Lane::borrow(s[b], g[b], below_g);
            V t_bits[P];
            cy = low;
            for (int b = 0; b < P; ++b) {
                t_bits[b] = Lane::xor3(s[b], nh[b], cy);
                cy = Lane::maj(s[b], nh[b], cy);
            }
            const V nonneg = Lane::bitOr(s[P], cy); // bit P of ~H is 1
            for (int b = 0; b < P; ++b)
                carry[b] = Lane::select(
                    below_g, Lane::bitAnd(nonneg, t_bits[b]), m[b]);
            out[t] = Lane::bitNot(low);
        }
        for (std::size_t t = cycles; t < 64; ++t)
            out[t] = Lane::zero();
        transpose64<Lane>(out);
        std::uint64_t *dst = tile.out + r0 * tile.outStride + w;
        for (std::size_t i = 0; i < 64 && i < rows; ++i)
            lane.scatter(dst + i * tile.outStride, 64 * tile.outStride,
                         lanesOf(i), out[i]);
    }
    for (int b = 0; b < P; ++b)
        lane.store(tile.carry + b * tile.sliceStride + slice0, carry[b]);
}

template <typename Lane, std::size_t... Is>
constexpr auto
feedbackGroups(std::index_sequence<Is...>)
{
    return std::array<void (*)(const FeedbackTile &, std::size_t),
                      sizeof...(Is)>{
        &feedbackGroup<Lane, static_cast<int>(Is) + 1>...};
}

/** Drive tile rows [r0, tile.rows) in groups of 64 x Lane::kWidth. */
template <typename Lane>
inline void
feedbackRows(const FeedbackTile &tile, std::size_t r0)
{
    static constexpr auto kGroups = feedbackGroups<Lane>(
        std::make_index_sequence<kMaxFeedbackPlanes>{});
    const auto group = kGroups[static_cast<std::size_t>(tile.planeCount) - 1];
    for (; r0 < tile.rows; r0 += 64 * Lane::kWidth)
        group(tile, r0);
}

} // namespace aqfpsc::sc::simd::detail

#endif // AQFPSC_SC_SIMD_FEEDBACK_KERNEL_H
