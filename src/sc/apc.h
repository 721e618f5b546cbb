/**
 * @file
 * Parallel counters for stochastic bit columns.
 *
 * The CMOS SC-DNN baseline (SC-DCNN, Ren et al. ASPLOS'17 -- Fig. 5 of the
 * paper) sums the per-cycle column of product bits with an (approximate)
 * parallel counter whose binary output feeds an accumulating activation
 * counter.  We provide:
 *
 *  - exactColumnCount: the exact parallel counter (full adder tree);
 *  - ApproximateParallelCounter: SC-DCNN's approximation, whose first
 *    layer replaces half of the full adders with OR/AND pairs
 *    (a + b ~ 2*(a AND b) + (a OR b)); it overcounts by one exactly when
 *    both inputs of a pair are 1 and is otherwise exact, and costs ~half
 *    the first-layer adder hardware;
 *  - ColumnCounts: bit-sliced "vertical counter" that computes, for M
 *    packed streams, the per-cycle column popcounts in O(M * N / 64 * logM)
 *    word operations.  This is the workhorse of the fast functional block
 *    models.
 */

#ifndef AQFPSC_SC_APC_H
#define AQFPSC_SC_APC_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "bitstream.h"

namespace aqfpsc::sc {

/** Exact number of ones among the given bits (reference parallel counter). */
int exactColumnCount(const std::vector<bool> &bits);

/**
 * SC-DCNN-style approximate parallel counter.
 *
 * Inputs are paired; each pair (a, b) is encoded as carry = a AND b
 * (weight 2) and sum = a OR b (weight 1), then carries and sums are summed
 * exactly.  For a pair with a = b = 1 the encoding reads 2*1 + 1 = 3
 * instead of 2, so the counter overcounts by the number of (1,1) pairs.
 */
class ApproximateParallelCounter
{
  public:
    /** @param m Number of counter inputs (>= 1). */
    explicit ApproximateParallelCounter(int m) : m_(m) {}

    /** Approximate count of ones in @p bits (size must be m). */
    int count(const std::vector<bool> &bits) const;

    /**
     * Equivalent two's-complement gate count of the CMOS implementation,
     * used by the CMOS cost model: first layer m/2 AND+OR pairs, then an
     * exact adder tree over m/2 two-bit operands.
     */
    int gateCount() const;

  private:
    int m_;
};

/**
 * Per-cycle column popcounts over a set of packed streams.
 *
 * Streams are added one at a time into a carry-save "vertical counter":
 * plane k holds bit k of every cycle's running count.  Adding a stream
 * word into P planes costs at most P AND/XOR pairs, so accumulating M
 * streams of N cycles costs O(M * N/64 * log2 M) word ops instead of the
 * naive O(M * N) single-bit ops.
 *
 * Two usage styles:
 *
 *  - Reference path: addWords() every (pre-XNORed) product, then
 *    extract() the per-cycle counts into a std::vector<int>.  This is
 *    the golden implementation the fused kernels are tested against.
 *  - Fused path: addXnor() folds the bipolar XNOR multiply
 *    directly into the carry-save add (no product buffer), and
 *    drive()/forEachCount() walk the planes word-by-word to feed a
 *    bit-serial step function without materializing the count array.
 *    clear() is lazy: it only re-zeros the planes dirtied since the
 *    last clear (tracked through the stream count high-water mark), so
 *    per-neuron reuse in the inference hot loop costs O(planes
 *    actually used).
 */
class ColumnCounts
{
  public:
    /**
     * @param len Stream length (cycles).
     * @param max_count Largest count that will be accumulated (sets the
     *        number of planes); adding more streams than this is an error.
     */
    ColumnCounts(std::size_t len, int max_count);

    /** Add a stream's bits into the per-cycle counters. */
    void add(const Bitstream &s);

    /** Add a raw packed word array of the same word count. */
    void addWords(const std::uint64_t *words, std::size_t word_count);

    /**
     * Fused bipolar multiply-accumulate: add the XNOR of rows @p x and
     * @p w without materializing the product.  Bit-identical to
     * xnor-into-a-buffer followed by addWords(buffer), including the
     * all-ones tail bits XNOR produces beyond the stream length (they
     * stay confined to the planes and are never read back).
     */
    void addXnor(const std::uint64_t *x, const std::uint64_t *w,
                 std::size_t word_count);

    /**
     * The planes (plane k at planes + k * wordCount()), for a kernel
     * that stores exact counts over a word prefix of every plane, such
     * as a one-row tile of sc::simd::KernelTable::addXnorTile (the
     * neuron micro-benches and tests sum a row this way).  The counter
     * then reads those counts over that prefix (drivePrefix()); every
     * plane counts as written until the next clear().
     */
    std::uint64_t *overwritePlanes();

    /** Extract the count at cycle @p i. */
    int count(std::size_t i) const;

    /** Extract all per-cycle counts into @p out (resized to len). */
    void extract(std::vector<int> &out) const;

    /**
     * Visit the per-cycle counts in cycle order without materializing
     * them: fn(cycle_index, count).  Counts are rebuilt one 64-cycle
     * block at a time in a stack-resident column array (the sparse
     * set-bit walk of extract(), minus the len-sized heap vector).
     */
    template <typename Fn>
    void
    forEachCount(Fn &&fn) const
    {
        for (std::size_t w = 0; w < wordCount_; ++w) {
            const std::size_t base = w * 64;
            const std::size_t hi = len_ - base < 64 ? len_ - base : 64;
            std::uint32_t col[64];
            blockCounts(w, col);
            for (std::size_t b = 0; b < hi; ++b)
                fn(base + b, static_cast<int>(col[b]));
        }
    }

    /**
     * Fused count-extract + bit-serial drive: call
     * @p step (count) for every cycle in order and pack the returned
     * bits into @p dst (wordCount() words; tail bits are zeroed), with
     * no std::vector<int> column array.  This per-row drive of a
     * feedback unit is the reference the tests and micro-benches hold
     * the stages' feedback kernel (featureFeedback in sc/simd) to.
     */
    template <typename Step>
    void
    drive(Step &&step, std::uint64_t *dst) const
    {
        drivePrefix(len_, static_cast<Step &&>(step), dst);
    }

    /**
     * drive() limited to the first @p cycles cycles (first
     * ceil(cycles/64) words of the planes and of @p dst; tail bits of
     * the last written word are zeroed): counts accumulated for one
     * 64-cycle-aligned block at plane offset 0 drive exactly that block,
     * and the step function's state resumes across blocks.
     * drivePrefix(length(), ...) is drive() exactly.
     */
    template <typename Step>
    void
    drivePrefix(std::size_t cycles, Step &&step, std::uint64_t *dst) const
    {
        assert(cycles <= len_);
        const std::size_t words = (cycles + 63) / 64;
        for (std::size_t w = 0; w < words; ++w) {
            const std::size_t base = w * 64;
            const std::size_t hi = cycles - base < 64 ? cycles - base : 64;
            std::uint32_t col[64];
            blockCounts(w, col);
            std::uint64_t outw = 0;
            for (std::size_t b = 0; b < hi; ++b) {
                if (step(static_cast<int>(col[b])))
                    outw |= 1ULL << b;
            }
            dst[w] = outw;
        }
    }

    /** Number of streams added so far. */
    int added() const { return added_; }

    /** Bit planes of the counter (bit_width of its largest count). */
    int planeCount() const { return planeCount_; }

    /** Packed words per plane ((len + 63) / 64). */
    std::size_t wordCount() const { return wordCount_; }

    /** Stream length in cycles. */
    std::size_t length() const { return len_; }

    /**
     * Reset all counters to zero.  Lazy: only the planes that the
     * streams added since the last clear can have dirtied are re-zeroed.
     */
    void clear();

  private:
    /** Planes the currently-added streams can have written. */
    int
    dirtyPlanes() const
    {
        return std::bit_width(static_cast<unsigned>(added_));
    }

    /** 8x8 bit-matrix transpose (Hacker's Delight 7-3), rows = bytes. */
    static std::uint64_t
    transpose8x8(std::uint64_t x)
    {
        std::uint64_t t;
        t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
        x = x ^ t ^ (t << 7);
        t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
        x = x ^ t ^ (t << 14);
        t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
        x = x ^ t ^ (t << 28);
        return x;
    }

    /**
     * Rebuild the counts of 64-cycle block @p w into @p col (64
     * entries; tail entries beyond the stream length are garbage).
     *
     * Up to 8 dirty planes (counts < 256, i.e. every conv window and
     * pooling stage) the planes are transposed 8 bytes at a time with
     * the branch-free 8x8 bit transpose — constant cost per cycle.
     * Beyond that, each extra plane is scattered through its set bits
     * (high planes are sparse, so the walk stays cheap).
     */
    void
    blockCounts(std::size_t w, std::uint32_t *col) const
    {
        const int planes = dirtyPlanes();
        const int low = planes < 8 ? planes : 8;
        std::uint64_t pw[8];
        for (int k = 0; k < low; ++k)
            pw[k] = planes_[static_cast<std::size_t>(k) * wordCount_ + w];
        for (int g = 0; g < 8; ++g) {
            std::uint64_t x = 0;
            for (int k = 0; k < low; ++k)
                x |= ((pw[k] >> (8 * g)) & 0xFFULL) << (8 * k);
            x = transpose8x8(x);
            for (int i = 0; i < 8; ++i)
                col[8 * g + i] =
                    static_cast<std::uint32_t>((x >> (8 * i)) & 0xFFULL);
        }
        for (int k = 8; k < planes; ++k) {
            std::uint64_t bits =
                planes_[static_cast<std::size_t>(k) * wordCount_ + w];
            while (bits) {
                const int b = std::countr_zero(bits);
                bits &= bits - 1;
                col[b] |= 1u << k;
            }
        }
    }

    std::size_t len_;
    std::size_t wordCount_;
    int planeCount_;
    int maxCount_;
    int added_ = 0;
    /** planes_[k * wordCount_ + w] = bit k of counts in word w. */
    std::vector<std::uint64_t> planes_;
};

} // namespace aqfpsc::sc

#endif // AQFPSC_SC_APC_H
