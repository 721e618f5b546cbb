/**
 * @file
 * 2x2 average pooling on the CMOS SC-DCNN baseline: a 4-to-1 MUX selects
 * a random pooled input every cycle.
 */

#ifndef AQFPSC_CORE_STAGES_CMOS_POOL_STAGE_H
#define AQFPSC_CORE_STAGES_CMOS_POOL_STAGE_H

#include <cstddef>
#include <cstdint>

#include "sc/rng.h"
#include "stage.h"
#include "stage_common.h"

namespace aqfpsc::core::stages {

/**
 * MUX cycles [begin, end) (begin word-aligned) of one pooling window's
 * four input rows into @p dst, drawing each cycle's select from @p rng:
 * the draws per-cycle nextBits(2) calls would consume, in the same
 * order, taken 64 at a time with nextWords and turned into select masks
 * by the dispatched threshold compare.  Every covered word is fully
 * rewritten, its bits past @p end zero.
 */
void muxPoolWindow(const std::uint64_t *const rows[4],
                   sc::Xoshiro256StarStar &rng, std::size_t begin,
                   std::size_t end, std::uint64_t *dst);

/** Random-select MUX 2x2 average pooling. */
class CmosPoolStage final : public ScStage
{
  public:
    /** @param stream_len The stage's compiled stream length (the MUX
     *  output length; inputs may carry longer upstream streams). */
    CmosPoolStage(const PoolGeometry &geom, std::size_t stream_len)
        : geom_(geom), streamLen_(stream_len)
    {
    }

    std::string name() const override;

    StageFootprint footprint() const override;

    std::unique_ptr<StageScratch> makeScratch() const override;

    bool resumable() const override { return true; }

    void runCohortSpan(const CohortSlot *slots, std::size_t count,
                       std::size_t begin, std::size_t end) const override;

  private:
    PoolGeometry geom_;
    std::size_t streamLen_;
};

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_CMOS_POOL_STAGE_H
