/**
 * @file
 * Conv stage on the AQFP sorter backend: every output pixel/channel is
 * one sorter-based feature-extraction block (Algorithm 1, counter form).
 * Thin instantiation of the shared linear kernel core — conv is
 * dense-with-window-gather.
 */

#ifndef AQFPSC_CORE_STAGES_AQFP_CONV_STAGE_H
#define AQFPSC_CORE_STAGES_AQFP_CONV_STAGE_H

#include "stage.h"
#include "stage_common.h"

namespace aqfpsc::core::stages {

/** Feature extraction over conv windows via sorter + feedback blocks. */
class AqfpConvStage final
    : public LinearScStage<SorterMajorityPolicy, ConvWindowGather>
{
  public:
    AqfpConvStage(const ConvGeometry &geom,
                  std::shared_ptr<const StageShared> shared)
        : LinearScStage(ConvWindowGather{geom}, std::move(shared))
    {
    }

    std::string name() const override;
};

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_AQFP_CONV_STAGE_H
