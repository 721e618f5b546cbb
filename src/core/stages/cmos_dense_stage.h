/**
 * @file
 * Hidden fully-connected stage on the CMOS SC-DCNN baseline: exact APC
 * column counts feed a Btanh activation counter.  Thin instantiation of the
 * shared linear kernel core.
 */

#ifndef AQFPSC_CORE_STAGES_CMOS_DENSE_STAGE_H
#define AQFPSC_CORE_STAGES_CMOS_DENSE_STAGE_H

#include "stage.h"
#include "stage_common.h"

namespace aqfpsc::core::stages {

/** Feature extraction over a flat input via APC + Btanh. */
class CmosDenseStage final
    : public LinearScStage<ApcBtanhPolicy, DenseGather>
{
  public:
    CmosDenseStage(const DenseGeometry &geom,
                   std::shared_ptr<const StageShared> shared)
        : LinearScStage(DenseGather{geom}, std::move(shared))
    {
    }

    std::string name() const override;
};

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_CMOS_DENSE_STAGE_H
