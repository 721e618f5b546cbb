#include "cmos_conv_stage.h"

#include "core/backend_registry.h"

namespace aqfpsc::core::stages {

namespace {

const ConvStageRegistration kRegistration{
    "cmos-apc", [](const ConvGeometry &g, WeightedStageInit init) {
        return std::make_unique<CmosConvStage>(g, std::move(init.shared));
    }};

} // namespace

std::string
CmosConvStage::name() const
{
    return "CmosConv " + std::to_string(gather_.g.outC) + "x" +
           std::to_string(gather_.g.outH) + "x" +
           std::to_string(gather_.g.outW) + " k" +
           std::to_string(gather_.g.kernel);
}

} // namespace aqfpsc::core::stages
