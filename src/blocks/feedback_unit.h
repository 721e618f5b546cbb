/**
 * @file
 * Counter-form equivalents of the paper's sorter + feedback loops.
 *
 * Both Algorithm 1 (feature extraction) and Algorithm 2 (average pooling)
 * sort [current column | previous feedback] descending and slice the
 * result.  A descending-sorted binary vector of length 2M containing s
 * ones has bit p (0-indexed) equal to (s > p), so each algorithm reduces
 * to integer bookkeeping on s = column_ones + feedback_ones.
 *
 * Feature extraction realizes Eq. (3) of the paper: the n-th output bit
 * is set when the running accumulation of D_i = col_i - (M-1)/2 - SO_i
 * is positive.  A feedback vector can only store a non-negative count,
 * so the accumulator is kept with a +(M-1)/2 *offset*: the carry's
 * operating point is c* = (M-1)/2, deficits swing it toward 0 and
 * surpluses toward M.  Concretely, per cycle:
 *
 *    out = (s >= M)                        (sorted bit M-1)
 *    c'  = clamp(s - (M-1)/2 - out, 0, M)  (slice selected by out:
 *                                           [(M+1)/2 ..) if out else
 *                                           [(M-1)/2 ..))
 *    c0  = (M-1)/2                         (operating-point init)
 *
 * so that sum(SO) tracks clip(sum(col) - (M-1)/2 * N, 0, N) (Eq. (2)) and
 * value(SO) = clip(sum_j x_j w_j, -1, 1) in the bipolar domain.  Note
 * Algorithm 1 as printed initializes the feedback to zero and keeps a
 * fixed slice; with a fixed slice the carry cannot represent deficits
 * and the output acquires a large positive bias (O(sigma^2/drift) ones
 * per stream), contradicting the paper's own Table 1 -- see
 * tests/test_blocks.cc (MarkovSpec).  The offset
 * reading is the one consistent with Eq. (2)/(3) and with the reported
 * accuracy, and costs the same hardware as the pooling block's
 * output-selected feedback mux (Fig. 14).
 *
 * Average pooling (Algorithm 2) needs no offset -- it only ever tracks a
 * non-negative remainder:
 *
 *    out = (s >= M)
 *    c'  = out ? s - M : s
 *
 * These counter forms are what the fast functional block models
 * execute; unit tests assert bit-exact equivalence against the literal
 * sorted-vector procedure and against the gate-level netlists.  The
 * whole-network SC inference engine runs word-parallel forms of the
 * same recurrences: 2x2 pooling in closed form (poolWord4 below) and
 * feature extraction as a bit-sliced kernel with one row per bit lane
 * (src/sc/simd/feedback_kernel.h).  Both are bit-identical to stepping
 * these units, which stay the reference the tests pin them to.
 */

#ifndef AQFPSC_BLOCKS_FEEDBACK_UNIT_H
#define AQFPSC_BLOCKS_FEEDBACK_UNIT_H

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace aqfpsc::blocks {

/** Counter form of the feature-extraction sorter + feedback loop. */
class FeatureFeedbackUnit
{
  public:
    /** @param m Number of sorter data inputs; must be odd. */
    explicit FeatureFeedbackUnit(int m) : m_(m), carry_((m - 1) / 2)
    {
        assert(m >= 1 && m % 2 == 1);
    }

    /** Process one column; @p column_ones in [0, m]. Returns the SO bit. */
    bool
    step(int column_ones)
    {
        assert(column_ones >= 0 && column_ones <= m_);
        const int s = column_ones + carry_;
        const bool out = s >= m_;
        carry_ = std::clamp(s - (m_ - 1) / 2 - (out ? 1 : 0), 0, m_);
        return out;
    }

    /** Ones currently held in the feedback vector. */
    int carry() const { return carry_; }

    /** Reset the feedback vector to the operating point (M-1)/2. */
    void reset() { carry_ = (m_ - 1) / 2; }

    /**
     * Re-arm for a (possibly different) input count @p m — equivalent to
     * constructing FeatureFeedbackUnit(m), without the per-use object
     * churn in the inference inner loops (conv border windows change M
     * per output pixel).
     */
    void
    reset(int m)
    {
        assert(m >= 1 && m % 2 == 1);
        m_ = m;
        carry_ = (m - 1) / 2;
    }

    /**
     * Re-arm for input count @p m with an explicit feedback count —
     * resumes a block-wise (checkpointed) execution exactly where a
     * previous block's carry() left off, so processing a stream in
     * 64-cycle-aligned blocks is bit-identical to one uninterrupted
     * pass.
     */
    void
    restore(int m, int carry)
    {
        assert(m >= 1 && m % 2 == 1);
        assert(carry >= 0 && carry <= m);
        m_ = m;
        carry_ = carry;
    }

    int m() const { return m_; }

  private:
    int m_;
    int carry_;
};

/** Counter form of Algorithm 2's sorter + half feedback loop. */
class PoolingFeedbackUnit
{
  public:
    /** @param m Number of pooled inputs (>= 1). */
    explicit PoolingFeedbackUnit(int m) : m_(m) { assert(m >= 1); }

    /** Process one column; @p column_ones in [0, m]. Returns the SO bit. */
    bool
    step(int column_ones)
    {
        assert(column_ones >= 0 && column_ones <= m_);
        const int s = column_ones + carry_;
        const bool out = s >= m_;
        carry_ = out ? s - m_ : s;
        return out;
    }

    /** Ones currently held in the feedback vector. */
    int carry() const { return carry_; }

    /** Reset the feedback vector to all zeros. */
    void reset() { carry_ = 0; }

    /** Re-arm for input count @p m (== constructing PoolingFeedbackUnit(m)). */
    void
    reset(int m)
    {
        assert(m >= 1);
        m_ = m;
        carry_ = 0;
    }

    /** Re-arm with an explicit remainder count — resumes a block-wise
     *  execution from a previous block's carry() (see
     *  FeatureFeedbackUnit::restore). */
    void
    restore(int m, int carry)
    {
        assert(m >= 1);
        assert(carry >= 0 && carry < m);
        m_ = m;
        carry_ = carry;
    }

    int m() const { return m_; }

  private:
    int m_;
    int carry_ = 0;
};

/** Inclusive prefix XOR: bit t of the result is bits [0, t] of @p x
 *  XORed together. */
inline std::uint64_t
prefixXor(std::uint64_t x)
{
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    return x;
}

/**
 * 2x2 pooling (Algorithm 2 at M = 4) in closed form over one 64-cycle
 * word: bit-identical to stepping PoolingFeedbackUnit(4) through cycles
 * [0, @p cycles) of the window streams @p a .. @p d.
 *
 * With S the running count of ones, the unit's carry is always S mod 4
 * (s < 2M, so out = s >= 4 takes 4 away exactly when S passes a
 * multiple of 4) and its output bit is bit 2 of S_t xor bit 2 of
 * S_{t-1}, the carry into bit 2 of S_{t-1} + column_t.  A full adder
 * turns the window into column-count bits p0/p1/p2; the low bits of S
 * are then prefix XORs, S0 = prefixXor(p0) with bit-1 carry
 * c1 = S0_prev & p0 and S1 = prefixXor(p1 ^ c1), and the output is
 * p2 ^ MAJ(S1_prev, p1, c1).
 *
 * @param carry In: the unit's carry() before the word, in [0, 4).  Out:
 *        its carry() after cycle @p cycles - 1.
 * @return The output bits; bits at and above @p cycles are zero.
 */
inline std::uint64_t
poolWord4(std::uint64_t a, std::uint64_t b, std::uint64_t c,
          std::uint64_t d, int &carry, unsigned cycles = 64)
{
    assert(carry >= 0 && carry < 4 && cycles >= 1 && cycles <= 64);
    const std::uint64_t ab = a ^ b;
    const std::uint64_t cd = c ^ d;
    const std::uint64_t p0 = ab ^ cd;
    const std::uint64_t p1 = (a & b) ^ (c & d) ^ (ab & cd);
    const std::uint64_t p2 = a & b & c & d;
    const std::uint64_t in0 = static_cast<std::uint64_t>(carry & 1);
    const std::uint64_t in1 = static_cast<std::uint64_t>(carry >> 1);
    const std::uint64_t s0 = prefixXor(p0) ^ (0 - in0);
    const std::uint64_t c1 = ((s0 << 1) | in0) & p0;
    const std::uint64_t s1 = prefixXor(p1 ^ c1) ^ (0 - in1);
    const std::uint64_t s1_prev = (s1 << 1) | in1;
    const std::uint64_t out =
        p2 ^ ((s1_prev & p1) | (s1_prev & c1) | (p1 & c1));
    const unsigned last = cycles - 1;
    carry = static_cast<int>(((s1 >> last) & 1) << 1 | ((s0 >> last) & 1));
    return cycles == 64 ? out : out & ((1ULL << cycles) - 1);
}

} // namespace aqfpsc::blocks

#endif // AQFPSC_BLOCKS_FEEDBACK_UNIT_H
