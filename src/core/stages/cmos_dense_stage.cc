#include "cmos_dense_stage.h"

#include "core/backend_registry.h"

namespace aqfpsc::core::stages {

namespace {

const DenseStageRegistration kRegistration{
    "cmos-apc", [](const DenseGeometry &g, WeightedStageInit init) {
        return std::make_unique<CmosDenseStage>(g, std::move(init.shared));
    }};

} // namespace

std::string
CmosDenseStage::name() const
{
    return "CmosDense " + std::to_string(gather_.g.inFeatures) + "->" +
           std::to_string(gather_.g.outFeatures);
}

} // namespace aqfpsc::core::stages
