/**
 * @file
 * Terminal categorization stage on the CMOS SC-DCNN baseline: exact APC
 * counts of every product stream accumulate into a binary class score.
 */

#ifndef AQFPSC_CORE_STAGES_CMOS_OUTPUT_STAGE_H
#define AQFPSC_CORE_STAGES_CMOS_OUTPUT_STAGE_H

#include <cassert>

#include "stage.h"
#include "stage_common.h"

namespace aqfpsc::core::stages {

/** Linear APC accumulation categorization. */
class CmosOutputStage final : public ScStage
{
  public:
    CmosOutputStage(const DenseGeometry &geom,
                    std::shared_ptr<const StageShared> shared)
        : geom_(geom), shared_(std::move(shared))
    {
        assert(shared_ != nullptr);
    }

    const StageShared *sharedState() const override
    {
        return shared_.get();
    }

    std::string name() const override;

    bool terminal() const override { return true; }

    std::unique_ptr<StageScratch> makeScratch() const override;

    bool resumable() const override { return true; }

    void runCohortSpan(const CohortSlot *slots, std::size_t count,
                       std::size_t begin, std::size_t end) const override;

    double scoreMargin(const StageContext &ctx,
                       std::size_t cycles) const override;

  private:
    /** The interned read-only compile product (possibly shared). */
    const FeatureStreams &streams() const { return shared_->streams; }

    DenseGeometry geom_;
    std::shared_ptr<const StageShared> shared_;
};

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_CMOS_OUTPUT_STAGE_H
