/**
 * @file
 * Stochastic number generation (binary -> stochastic conversion).
 *
 * An SNG compares an n-bit binary code against a fresh n-bit uniform random
 * number every clock cycle; the comparison bit forms the stochastic stream.
 * With code B in [0, 2^n], P(bit = 1) = B / 2^n.
 *
 * Bipolar values x in [-1, 1] are first mapped to P(1) = (x + 1) / 2
 * (Sec. 2.2 of the paper), then quantized to the code grid.
 *
 * Two generation back-ends are provided:
 *  - SngBank::Mode::SharedMatrix -- faithful model of the paper's RNG
 *    matrix (Fig. 8): unit true RNGs shared four ways, used for hardware
 *    accounting and the sharing ablation;
 *  - SngBank::Mode::IndependentRng -- statistically equivalent fast path
 *    drawing from independent PRNG substreams, used for bulk stream
 *    generation in whole-network experiments.
 */

#ifndef AQFPSC_SC_SNG_H
#define AQFPSC_SC_SNG_H

#include <cstdint>
#include <vector>

#include "bitstream.h"
#include "rng.h"
#include "rng_matrix.h"

namespace aqfpsc::sc {

/**
 * SNG code widths every bits argument below accepts, and the one bound
 * the engine (core::EngineOptions::rngBits) and the model quantizer
 * (nn::Network::quantizeParams) enforce.  Codes span [0, 2^bits] in a
 * uint32, so the width must stay below 32; a 20-bit grid step (about
 * 1e-6) is already far finer than the 1/sqrt(N) noise of any stream the
 * engine runs.
 */
inline constexpr int kMinSngBits = 1;
inline constexpr int kMaxSngBits = 20;

/**
 * Quantize a unipolar value x in [0, 1] to an SNG code in [0, 2^bits].
 * The inclusive upper code lets 1.0 be represented exactly.
 */
std::uint32_t quantizeUnipolar(double x, int bits);

/** Quantize a bipolar value x in [-1, 1] to an SNG code in [0, 2^bits]. */
std::uint32_t quantizeBipolar(double x, int bits);

/** The unipolar value a code represents: code / 2^bits. */
double codeToUnipolar(std::uint32_t code, int bits);

/** The bipolar value a code represents: 2 * code / 2^bits - 1. */
double codeToBipolar(std::uint32_t code, int bits);

/**
 * Generate one stream of @p len cycles for @p code using random numbers
 * drawn from @p rng (bit = random < code).
 */
Bitstream generateStream(std::uint32_t code, int bits, std::size_t len,
                         RandomSource &rng);

/** Convenience: encode a unipolar value directly. */
Bitstream encodeUnipolar(double x, int bits, std::size_t len,
                         RandomSource &rng);

/** Convenience: encode a bipolar value directly. */
Bitstream encodeBipolar(double x, int bits, std::size_t len,
                        RandomSource &rng);

/**
 * A bank of SNGs that converts many binary codes to streams at once,
 * modelling how a layer's weights are converted in parallel on chip.
 */
class SngBank
{
  public:
    /** Random-number supply strategy. */
    enum class Mode
    {
        SharedMatrix,   ///< paper's 4-way shared true-RNG matrix (Fig. 8)
        IndependentRng, ///< independent PRNG per stream (fast path)
    };

    /**
     * @param rng_bits Width of the binary codes / random numbers (3 to
     *        kMaxSngBits).
     * @param mode Random-number supply strategy.
     * @param seed Seed for all randomness in this bank.
     */
    SngBank(int rng_bits, Mode mode, std::uint64_t seed);

    /** Code width in bits. */
    int rngBits() const { return rngBits_; }

    /** Generate one stream per code, all of length @p len. */
    std::vector<Bitstream> generate(const std::vector<std::uint32_t> &codes,
                                    std::size_t len);

    /** Generate one stream per bipolar value, all of length @p len. */
    std::vector<Bitstream>
    generateBipolar(const std::vector<double> &values, std::size_t len);

    /**
     * Matrix dimension used in SharedMatrix mode.  Rounded up to the next
     * odd integer >= rng_bits so that any two matrix outputs share at most
     * one unit RNG (lines of distinct slope on an odd torus intersect in
     * exactly gcd(slope difference, N) = 1 point).
     */
    int matrixDim() const { return matrixDim_; }

    /** Number of RNG matrices instantiated so far (SharedMatrix mode). */
    int matricesUsed() const { return static_cast<int>(matrices_.size()); }

  private:
    int rngBits_;
    Mode mode_;
    std::uint64_t seed_;
    int matrixDim_;
    std::vector<RngMatrix> matrices_;
    Xoshiro256StarStar fastRng_;
};

} // namespace aqfpsc::sc

#endif // AQFPSC_SC_SNG_H
