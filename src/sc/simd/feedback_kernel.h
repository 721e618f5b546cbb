/**
 * @file
 * The rows-as-lanes feedback kernel, written once over a lane type and
 * a per-cycle recurrence.
 *
 * Both feedback-driven linear stages run one serial recurrence per
 * output row, fed by the row's per-cycle column count:
 *
 *  - Algorithm 1's counter form (blocks::FeatureFeedbackUnit, the AQFP
 *    sorter stages), SorterMajorityStep below;
 *  - SC-DCNN's Btanh counter (baseline::ApcFeatureExtraction::
 *    btanhStep, the cmos-apc stages), BtanhStep below.
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
 *  2. per cycle, the recurrence's ripple adders and comparators update
 *     each row's bit-sliced state against its own m (conv border
 *     windows mix fan-ins in one tile) and yield its output bit;
 *  3. the 64 output registers transpose back into one word per row and
 *     scatter into the rows' output streams.
 *
 * The transposes and the recurrence steps are forced inline, so the
 * state stays in registers however many instantiations share a TU (GCC
 * stops inlining once a TU grows past its unit-growth limit).
 *
 * Every operation is exact integer arithmetic on each row's own bits,
 * so a lane computes exactly the per-row step's state and output,
 * whatever the lane width: the kernel is bit-identical to the per-row
 * drive on every tier (tests/test_simd_kernels.cc).
 *
 * Beyond the tile kernel's Lane operations (row_kernel.h), a Lane
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
[[gnu::always_inline]] inline void
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
[[gnu::always_inline]] inline void
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
 * Algorithm 1's feedback count, per row with its odd sorter input
 * count M and H = (M - 1) / 2:
 *
 *    S = carry + count,  out = S >= M,
 *    carry' = clamp(S - H - out, 0, M).
 *
 *  - low = S < M is the borrow of S - M, and out = ~low;
 *  - T = S - H - out is the sum S + ~H + low; its carry-out is T >= 0
 *    (the lower clamp);
 *  - S >= M + H + 2 is exactly T > M (the upper clamp, which only an
 *    out = 1 cycle can reach).
 *
 * H = M >> 1 because M is odd, so its planes are M's shifted down one.
 * The state is the carry, in P planes.
 */
template <typename Lane, int P>
struct SorterMajorityStep
{
    using V = typename Lane::V;
    static constexpr int kCountPlanes = P;
    static constexpr int kStatePlanes = P;

    /** Per-row constants from M: ~H and G = M + H + 2, the first S
     *  whose clamped carry is M. */
    [[gnu::always_inline]] explicit SorterMajorityStep(const V (&m_in)[P])
    {
        V cy = Lane::zero();
        for (int b = 0; b < P; ++b) {
            m[b] = m_in[b];
            const V h = b + 1 < P ? m_in[b + 1] : Lane::zero();
            nh[b] = Lane::bitNot(h);
            g[b] = Lane::xor3(m_in[b], h, cy);
            cy = Lane::maj(m_in[b], h, cy);
        }
        g[P] = cy;
        cy = Lane::ones(); // + 2
        for (int b = 1; b <= P; ++b) {
            const V sum = Lane::bitXor(g[b], cy);
            cy = Lane::bitAnd(g[b], cy);
            g[b] = sum;
        }
    }

    /** Step every lane through cycle @p t; returns the output bits. */
    [[gnu::always_inline]] V
    operator()(V (&carry)[P], const V (&count)[P][64], std::size_t t) const
    {
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
            carry[b] = Lane::select(below_g, Lane::bitAnd(nonneg, t_bits[b]),
                                    m[b]);
        return Lane::bitNot(low);
    }

    V m[P], nh[P], g[P + 1];
};

/**
 * SC-DCNN's Btanh counter with s_max = 2m states, per row with its
 * product count m (either parity, m < 2^P).  btanhStep adds 2c - m and
 * clamps to [0, 2m - 1]; with T = s + 2c that is
 *
 *    out = T >= 2m,
 *    s' = T < m ? 0 : min(T - m, 2m - 1),
 *
 * since the clamped state reaches m exactly when T - m does.  T < 4m
 * fits P + 2 planes and s < 2m fits P + 1.  D = T - m rides along the
 * T < m borrow chain; T >= 3m (the upper rail) and T >= 2m compare
 * against per-row constants.
 */
template <typename Lane, int P>
struct BtanhStep
{
    using V = typename Lane::V;
    static constexpr int kCountPlanes = P;
    static constexpr int kStatePlanes = P + 1;

    /** Per-row constants from m: 3m and the rail 2m - 1. */
    [[gnu::always_inline]] explicit BtanhStep(const V (&m_in)[P])
    {
        // 3m = m + (m << 1), P + 2 planes.
        V cy = Lane::zero();
        for (int b = 0; b <= P; ++b) {
            const V lo = b < P ? m_in[b] : Lane::zero();
            const V hi = b > 0 ? m_in[b - 1] : Lane::zero();
            m3[b] = Lane::xor3(lo, hi, cy);
            cy = Lane::maj(lo, hi, cy);
        }
        m3[P + 1] = cy;
        // 2m - 1 = ((m - 1) << 1) | 1, P + 1 planes (m >= 1).
        rail[0] = Lane::ones();
        V br = Lane::ones();
        for (int b = 0; b < P; ++b) {
            m[b] = m_in[b];
            rail[b + 1] = Lane::bitXor(m_in[b], br);
            br = Lane::borrow(m_in[b], Lane::zero(), br);
        }
    }

    /** Step every lane through cycle @p t; returns the output bits. */
    [[gnu::always_inline]] V
    operator()(V (&s)[P + 1], const V (&count)[P][64], std::size_t t) const
    {
        // T = s + 2c.
        V tt[P + 2];
        tt[0] = s[0];
        V cy = Lane::zero();
        for (int b = 0; b < P; ++b) {
            const V c = count[b][t];
            tt[b + 1] = Lane::xor3(s[b + 1], c, cy);
            cy = Lane::maj(s[b + 1], c, cy);
        }
        tt[P + 1] = cy;
        // D = T - m; its borrow out is T < m.
        V d[P + 1];
        V low = Lane::zero();
        for (int b = 0; b <= P + 1; ++b) {
            const V mb = b < P ? m[b] : Lane::zero();
            if (b <= P)
                d[b] = Lane::xor3(tt[b], mb, low);
            low = Lane::borrow(tt[b], mb, low);
        }
        // T < 2m (bit 0 of 2m is zero, so bit 0 never borrows).
        V below2 = Lane::zero();
        for (int b = 1; b <= P + 1; ++b)
            below2 = Lane::borrow(tt[b], b <= P ? m[b - 1] : Lane::zero(),
                                  below2);
        // T < 3m.
        V below3 = Lane::zero();
        for (int b = 0; b <= P + 1; ++b)
            below3 = Lane::borrow(tt[b], m3[b], below3);
        for (int b = 0; b <= P; ++b)
            s[b] = Lane::select(low, Lane::zero(),
                                Lane::select(below3, d[b], rail[b]));
        return Lane::bitNot(below2);
    }

    V m[P], m3[P + 2], rail[P + 1];
};

/**
 * Drive tile rows [r0, r0 + 64 * Lane::kWidth) (clipped to tile.rows)
 * through every cycle of the tile with the recurrence @p Step (see the
 * file comment).
 */
template <typename Lane, typename Step>
void
feedbackGroup(const FeedbackTile &tile, std::size_t r0)
{
    using V = typename Lane::V;
    constexpr int P = Step::kCountPlanes;
    constexpr int S = Step::kStatePlanes;
    const Lane lane{};
    const std::size_t rows = std::min(tile.rows - r0, 64 * Lane::kWidth);
    const std::size_t slice0 = r0 / 64;
    // Lanes of row i of each 64-row lane that lie inside the group.
    const auto lanesOf = [rows](std::size_t i) -> std::size_t {
        return i < rows ? (rows - i + 63) / 64 : 0;
    };

    V m[P], state[S];
    for (int b = 0; b < P; ++b)
        m[b] = lane.load(tile.m + b * tile.sliceStride + slice0);
    for (int b = 0; b < S; ++b)
        state[b] = lane.load(tile.state + b * tile.sliceStride + slice0);
    const Step step(m);

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
        for (std::size_t t = 0; t < cycles; ++t)
            out[t] = step(state, count, t);
        for (std::size_t t = cycles; t < 64; ++t)
            out[t] = Lane::zero();
        transpose64<Lane>(out);
        std::uint64_t *dst = tile.out + r0 * tile.outStride + w;
        for (std::size_t i = 0; i < 64 && i < rows; ++i)
            lane.scatter(dst + i * tile.outStride, 64 * tile.outStride,
                         lanesOf(i), out[i]);
    }
    for (int b = 0; b < S; ++b)
        lane.store(tile.state + b * tile.sliceStride + slice0, state[b]);
}

/** feedbackGroup of recurrence @p Step at every count-plane count. */
template <typename Lane, template <typename, int> class Step,
          std::size_t... Is>
constexpr auto
feedbackGroups(std::index_sequence<Is...>)
{
    return std::array<void (*)(const FeedbackTile &, std::size_t),
                      sizeof...(Is)>{
        &feedbackGroup<Lane, Step<Lane, static_cast<int>(Is) + 1>>...};
}

/** Drive tile rows [r0, tile.rows) in groups of 64 x Lane::kWidth. */
template <typename Lane>
inline void
feedbackRows(const FeedbackTile &tile, std::size_t r0)
{
    using Planes = std::make_index_sequence<kMaxFeedbackPlanes>;
    static constexpr auto kSorter =
        feedbackGroups<Lane, SorterMajorityStep>(Planes{});
    static constexpr auto kBtanh = feedbackGroups<Lane, BtanhStep>(Planes{});
    const auto &groups =
        tile.recurrence == FeedbackRecurrence::Btanh ? kBtanh : kSorter;
    const auto group = groups[static_cast<std::size_t>(tile.planeCount) - 1];
    for (; r0 < tile.rows; r0 += 64 * Lane::kWidth)
        group(tile, r0);
}

} // namespace aqfpsc::sc::simd::detail

#endif // AQFPSC_SC_SIMD_FEEDBACK_KERNEL_H
