/**
 * @file
 * Flat matrix of packed stochastic streams.
 *
 * Whole-network SC inference keeps hundreds of thousands of streams live
 * (every weight of every layer); one heap allocation per Bitstream would
 * waste memory and locality, so layers store their streams as rows of a
 * single contiguous word buffer.
 */

#ifndef AQFPSC_SC_STREAM_MATRIX_H
#define AQFPSC_SC_STREAM_MATRIX_H

#include <cstdint>
#include <vector>

#include "bitstream.h"
#include "rng.h"

namespace aqfpsc::sc {

/** Rows of equal-length packed bit-streams. */
class StreamMatrix
{
  public:
    StreamMatrix() = default;

    /** @param rows Number of streams. @param len Stream length (cycles). */
    StreamMatrix(std::size_t rows, std::size_t len);

    /**
     * Re-shape in place, reusing the existing word buffer (it only grows,
     * never shrinks — the workspace-arena contract).  Row contents are
     * unspecified afterwards: every row must be fully overwritten by a
     * whole-word writer (fillBipolar, fillBipolarLanes, fillNeutral,
     * ColumnCounts::drive) before it is read.  Steady-state inference therefore performs no
     * allocation here once the buffer has reached its high-water size.
     */
    void reset(std::size_t rows, std::size_t len);

    std::size_t rows() const { return rows_; }
    std::size_t streamLen() const { return len_; }
    std::size_t wordsPerRow() const { return wpr_; }

    /** Mutable pointer to row @p r (wordsPerRow() words). */
    std::uint64_t *row(std::size_t r) { return &words_[r * wpr_]; }

    /** Const pointer to row @p r. */
    const std::uint64_t *row(std::size_t r) const { return &words_[r * wpr_]; }

    /**
     * Fill row @p r with an SNG stream for bipolar value @p value
     * (quantized to @p bits), drawing randomness from @p rng.
     * Tail bits beyond streamLen() are left zero.
     *
     * Word-batched: 64 comparison bits are generated per iteration from
     * a block of RNG words (RandomSource::nextWords), consuming the RNG
     * in exactly the per-bit order — the streams are bit-identical to
     * the bit-serial formulation bit = (rng.nextBits(bits) < code).
     */
    void fillBipolar(std::size_t r, double value, int bits,
                     RandomSource &rng);

    /** Fill row @p r with the neutral 0101... stream (bipolar value 0). */
    void fillNeutral(std::size_t r);

    /** Copy row @p r out as a Bitstream. */
    Bitstream toBitstream(std::size_t r) const;

    /** Number of ones in row @p r. */
    std::size_t countOnes(std::size_t r) const;

    /** Bipolar value of row @p r. */
    double bipolarValue(std::size_t r) const;

  private:
    std::size_t rows_ = 0;
    std::size_t len_ = 0;
    std::size_t wpr_ = 0;
    std::vector<std::uint64_t> words_;
};

/**
 * Encode @p lanes images at once: every row i of *out[l] gets the SNG
 * stream of values[l][i] (quantized to @p bits) over cycles
 * [@p begin, @p end), drawn from rng[l].  Lane l draws exactly what
 * fillBipolar restricted to those cycles would draw from rng[l], row by
 * row, so its words are bit-identical; rng[l] is left where those
 * draws leave it.
 *
 * The matrices share one shape; @p begin must be 64-aligned and @p end
 * at most their streamLen().  Only the covered words of each row are
 * written, tail bits beyond @p end zero.  The generators step side by
 * side in SIMD lanes, kXoshiroLanes at a time, with the threshold
 * compare+pack fused into generation (simd::KernelTable::laneSngFill).
 */
void fillBipolarLanes(StreamMatrix *const out[], const float *const values[],
                      Xoshiro256StarStar *const rng[], std::size_t lanes,
                      int bits, std::size_t begin, std::size_t end);

} // namespace aqfpsc::sc

#endif // AQFPSC_SC_STREAM_MATRIX_H
