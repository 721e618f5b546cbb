/**
 * @file
 * Functional models of the prior-art CMOS SC-DNN blocks (SC-DCNN,
 * Ren et al. ASPLOS'17 -- Fig. 5 of the paper), used as the accuracy
 * baseline in Table 9 and the pooling ablation.
 *
 *  - ApcFeatureExtraction: XNOR multipliers + (approximate) parallel
 *    counter + Btanh binary-counter activation.  The Btanh counter with
 *    s_max = 2m states approximates tanh of the pre-activation sum --
 *    close to, but not exactly, the hard-tanh the sorter block realizes,
 *    which is one source of the CMOS accuracy gap the paper reports.
 *  - MuxAveragePooling: selects one input stream per cycle at random;
 *    unbiased but with sampling noise that grows with the input count
 *    (the inaccuracy the paper's sorter-based pooling eliminates).
 *
 * These are the per-stream reference models.  The engine's cmos-apc
 * stages (src/core/stages) compute the same recurrences word-parallel
 * with the exact counter: btanhStep is the reference for the
 * rows-as-lanes feedback kernel's Btanh form
 * (src/sc/simd/feedback_kernel.h); the MUX pool stage draws its 2-bit
 * selects 64 at a time, one image's generator per SIMD lane
 * (core::stages::muxPoolLanes).  The OR-pair approximate counter
 * (approximate_apc) is modelled here only, at component level.
 */

#ifndef AQFPSC_BASELINE_SC_DCNN_H
#define AQFPSC_BASELINE_SC_DCNN_H

#include <vector>

#include "sc/bitstream.h"
#include "sc/rng.h"

namespace aqfpsc::baseline {

/** SC-DCNN feature-extraction block (APC + Btanh). */
class ApcFeatureExtraction
{
  public:
    /**
     * @param m Number of product inputs.
     * @param approximate_apc Use the OR-pair approximate counter layer.
     */
    explicit ApcFeatureExtraction(int m, bool approximate_apc = true);

    int m() const { return m_; }

    /** Btanh state count (2m). */
    int stateMax() const { return sMax_; }

    /** Run over product streams; returns the activated output stream. */
    sc::Bitstream run(const std::vector<sc::Bitstream> &products) const;

    /** XNOR-multiply then run. */
    sc::Bitstream runInnerProduct(const std::vector<sc::Bitstream> &x,
                                  const std::vector<sc::Bitstream> &w) const;

    /**
     * Stateless helper: per-cycle Btanh update, state += 2 * count - m
     * clamped to [0, s_max - 1].  With s_max = 2m and T = state +
     * 2 * count this is out = T >= 2m, state' = T < m ? 0 :
     * min(T - m, 2m - 1), the form the feedback kernel slices by bit.
     * @param state Current counter state in [0, s_max - 1].
     * @param count APC output for the cycle, in [0, m].
     * @param m Input count.
     * @param s_max State count.
     * @return Output bit; @p state is updated in place.
     */
    static bool btanhStep(int &state, int count, int m, int s_max);

  private:
    int m_;
    int sMax_;
    bool approx_;
};

/** MUX-based average pooling (random input subsampling). */
class MuxAveragePooling
{
  public:
    explicit MuxAveragePooling(int m) : m_(m) {}

    int m() const { return m_; }

    /** Run over input streams using @p rng for the select stream. */
    sc::Bitstream run(const std::vector<sc::Bitstream> &inputs,
                      sc::RandomSource &rng) const;

  private:
    int m_;
};

} // namespace aqfpsc::baseline

#endif // AQFPSC_BASELINE_SC_DCNN_H
