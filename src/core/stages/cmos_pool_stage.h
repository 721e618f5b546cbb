/**
 * @file
 * 2x2 average pooling on the CMOS SC-DCNN baseline: a 4-to-1 MUX selects
 * a random pooled input every cycle.
 */

#ifndef AQFPSC_CORE_STAGES_CMOS_POOL_STAGE_H
#define AQFPSC_CORE_STAGES_CMOS_POOL_STAGE_H

#include "stage.h"
#include "stage_common.h"

namespace aqfpsc::core::stages {

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
