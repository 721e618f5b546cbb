/**
 * @file
 * Hidden fully-connected stage on the AQFP sorter backend: one
 * sorter-based feature-extraction block per output neuron.  Thin
 * instantiation of the shared linear kernel core.
 */

#ifndef AQFPSC_CORE_STAGES_AQFP_DENSE_STAGE_H
#define AQFPSC_CORE_STAGES_AQFP_DENSE_STAGE_H

#include "stage.h"
#include "stage_common.h"

namespace aqfpsc::core::stages {

/** Feature extraction over a flat input via sorter + feedback blocks. */
class AqfpDenseStage final
    : public LinearScStage<SorterMajorityPolicy, DenseGather>
{
  public:
    AqfpDenseStage(const DenseGeometry &geom,
                   std::shared_ptr<const StageShared> shared)
        : LinearScStage(DenseGather{geom}, std::move(shared))
    {
    }

    std::string name() const override;
};

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_AQFP_DENSE_STAGE_H
