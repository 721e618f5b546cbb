/**
 * @file
 * Conv stage on the CMOS SC-DCNN baseline: exact APC column counts feed
 * a Btanh activation counter.  Thin instantiation of the shared linear
 * kernel core — conv is dense-with-window-gather.
 */

#ifndef AQFPSC_CORE_STAGES_CMOS_CONV_STAGE_H
#define AQFPSC_CORE_STAGES_CMOS_CONV_STAGE_H

#include "stage.h"
#include "stage_common.h"

namespace aqfpsc::core::stages {

/** Feature extraction over conv windows via APC + Btanh. */
class CmosConvStage final
    : public LinearScStage<ApcBtanhPolicy, ConvWindowGather>
{
  public:
    CmosConvStage(const ConvGeometry &geom,
                  std::shared_ptr<const StageShared> shared)
        : LinearScStage(ConvWindowGather{geom}, std::move(shared))
    {
    }

    std::string name() const override;
};

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_CMOS_CONV_STAGE_H
