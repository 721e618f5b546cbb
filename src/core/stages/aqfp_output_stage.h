/**
 * @file
 * Terminal categorization stage on the AQFP backend: one majority-chain
 * block per class folds Maj3 gates over the product streams (Sec. 4.4)
 * and the chain output's bipolar value is the class score.
 */

#ifndef AQFPSC_CORE_STAGES_AQFP_OUTPUT_STAGE_H
#define AQFPSC_CORE_STAGES_AQFP_OUTPUT_STAGE_H

#include <cassert>

#include "stage.h"
#include "stage_common.h"

namespace aqfpsc::core::stages {

/** Majority-chain categorization block. */
class AqfpOutputStage final : public ScStage
{
  public:
    AqfpOutputStage(const DenseGeometry &geom,
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

  private:
    /** The interned read-only compile product (possibly shared). */
    const FeatureStreams &streams() const { return shared_->streams; }

    DenseGeometry geom_;
    std::shared_ptr<const StageShared> shared_;
};

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_AQFP_OUTPUT_STAGE_H
