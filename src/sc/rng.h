/**
 * @file
 * Random sources used throughout the framework.
 *
 * Three generators are provided:
 *  - Xoshiro256StarStar: fast, high-quality software PRNG used for test
 *    vector generation and Monte-Carlo experiments.
 *  - Lfsr: the Fibonacci linear-feedback shift register that CMOS SC
 *    designs use as a pseudo-RNG inside their SNGs (the baseline).
 *  - AqfpTrueRng: behavioural model of the paper's 2-JJ true RNG --- an
 *    AQFP buffer with zero input current resolves each cycle to 0 or 1
 *    according to thermal noise (Fig. 7).  The model exposes the input
 *    current bias so the Fig. 7(b) output-distribution sweep can be
 *    reproduced: P(out = 1) = Phi(i_in / i_noise) where Phi is the
 *    standard normal CDF.
 */

#ifndef AQFPSC_SC_RNG_H
#define AQFPSC_SC_RNG_H

#include <array>
#include <cstdint>

namespace aqfpsc::sc {

/**
 * Deterministic per-stream seed derivation: base XOR index.
 *
 * Batched inference gives image @p index the seed
 * deriveStreamSeed(engine_seed, index), so every image's streams are a
 * pure function of (seed, index) — independent of batch size, submission
 * order, and thread schedule — and index 0 reproduces the engine seed
 * exactly.  Adjacent derived seeds are decorrelated by the splitmix64
 * expansion every consumer (Xoshiro256StarStar) applies to its seed.
 */
constexpr std::uint64_t
deriveStreamSeed(std::uint64_t base, std::uint64_t index)
{
    return base ^ index;
}

/**
 * Interface for a source of uniform random bits/words.
 */
class RandomSource
{
  public:
    virtual ~RandomSource() = default;

    /** Next uniform 64-bit word. */
    virtual std::uint64_t nextWord() = 0;

    /** Next uniform bit. */
    virtual bool nextBit() { return nextWord() & 1ULL; }

    /**
     * Fill @p dst with the next @p n words — the exact sequence n
     * nextWord() calls would produce.  Concrete generators override this
     * to batch the state updates (no virtual dispatch per word).  One
     * generator's recurrence is serial, so StreamMatrix::fillBipolar
     * draws its words here and vectorizes only the threshold
     * compare+pack (sc::simd).  Where several independent
     * Xoshiro256StarStar generators draw at once (a cohort's input SNGs,
     * sc::fillBipolarLanes; a pool pixel's MUX selects for every image,
     * core::stages::muxPoolLanes), the lane-parallel kernels
     * (sc/simd/xoshiro_kernel.h) step them side by side in SIMD lanes,
     * each lane drawing exactly this sequence.
     */
    virtual void
    nextWords(std::uint64_t *dst, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = nextWord();
    }

    /** Next uniform value in [0, 2^bits): the top @p bits bits of
     *  nextWord(). @p bits must be in [1, 64]. */
    std::uint64_t nextBits(int bits);

    /** Next double uniform in [0, 1). */
    double nextDouble();
};

/**
 * xoshiro256** 1.0 (Blackman & Vigna).  Small state, excellent statistical
 * quality; the workhorse PRNG of this repository.
 */
class Xoshiro256StarStar : public RandomSource
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Xoshiro256StarStar(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    std::uint64_t nextWord() override;

    /** Batched generation with the state kept in registers. */
    void nextWords(std::uint64_t *dst, std::size_t n) override;

    /** Jump function: advance by 2^128 steps (for independent substreams). */
    void jump();

    /**
     * Snapshot of the 256-bit internal state.  Together with setState()
     * this lets a caller checkpoint the generator and later resume the
     * exact word sequence — the plan cache uses it to skip regeneration
     * of interned parameter streams while keeping every downstream
     * consumer on the same sequence it would see after a cold compile.
     */
    std::array<std::uint64_t, 4>
    state() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }

    /** Restore a state previously captured with state(). */
    void
    setState(const std::array<std::uint64_t, 4> &s)
    {
        s_[0] = s[0];
        s_[1] = s[1];
        s_[2] = s[2];
        s_[3] = s[3];
    }

  private:
    std::uint64_t s_[4];
};

/**
 * Fibonacci LFSR with maximal-length taps, modelling the pseudo-RNG of
 * CMOS stochastic number generators.  Supports widths 3..32.
 *
 * Note the well-known SC caveat that LFSR streams are only pseudo-random
 * and correlate when shared; the AQFP true RNG removes this limitation.
 */
class Lfsr : public RandomSource
{
  public:
    /**
     * @param width Register width in bits (3..32).
     * @param seed Non-zero initial state (zero is mapped to 1).
     */
    explicit Lfsr(int width, std::uint32_t seed = 1);

    /** Advance one step and return the new @c width -bit state. */
    std::uint32_t nextState();

    /** Register width in bits. */
    int width() const { return width_; }

    std::uint64_t nextWord() override;

  private:
    int width_;
    std::uint32_t state_;
    std::uint32_t tapMask_;
};

/**
 * Behavioural model of the 1-bit AQFP true RNG (an AQFP buffer whose input
 * current is nominally zero, Fig. 7 of the paper).
 *
 * Each excitation cycle the double-JJ SQUID settles into the left or right
 * well; with zero input the choice is decided by thermal noise and is an
 * independent fair coin flip.  A non-zero input current biases the outcome,
 * modelled as P(1) = Phi(inputCurrent / noiseCurrent).
 *
 * Hardware cost: 2 JJs, one clock phase -- accounted in aqfp::CellLibrary.
 */
class AqfpTrueRng : public RandomSource
{
  public:
    /**
     * @param seed Seed for the underlying noise process model.
     * @param input_current Input bias current (same unit as noise current).
     * @param noise_current Thermal noise RMS current; must be > 0.
     */
    explicit AqfpTrueRng(std::uint64_t seed = 1, double input_current = 0.0,
                         double noise_current = 1.0);

    /** Set the input bias current (Fig. 7(b) sweeps this). */
    void setInputCurrent(double i) { inputCurrent_ = i; }

    /** Probability of emitting 1 in a cycle, Phi(i_in / i_noise). */
    double probabilityOfOne() const;

    bool nextBit() override;

    /** 64 successive RNG cycles packed into one word. */
    std::uint64_t nextWord() override;

  private:
    Xoshiro256StarStar noise_;
    double inputCurrent_;
    double noiseCurrent_;
};

} // namespace aqfpsc::sc

#endif // AQFPSC_SC_RNG_H
