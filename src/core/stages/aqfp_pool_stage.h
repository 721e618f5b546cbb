/**
 * @file
 * 2x2 average pooling on the AQFP sorter backend (Algorithm 2): the
 * sorter + half-feedback loop emits the exact running average of the
 * four pooled streams.  The stage computes it in closed form, one
 * 64-cycle word at a time (blocks::poolWord4), resuming each pixel's
 * carry S mod 4 across spans.
 */

#ifndef AQFPSC_CORE_STAGES_AQFP_POOL_STAGE_H
#define AQFPSC_CORE_STAGES_AQFP_POOL_STAGE_H

#include "stage.h"
#include "stage_common.h"

namespace aqfpsc::core::stages {

/** Sorter-based 2x2 average pooling. */
class AqfpPoolStage final : public ScStage
{
  public:
    /** @param stream_len Engine stream length (the stage's own). */
    AqfpPoolStage(const PoolGeometry &geom, std::size_t stream_len)
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

#endif // AQFPSC_CORE_STAGES_AQFP_POOL_STAGE_H
