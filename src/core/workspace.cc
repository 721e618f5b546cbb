#include "workspace.h"

#include <algorithm>

#include "core/sc_engine.h"
#include "core/stages/stage_compiler.h"

namespace aqfpsc::core {

CohortWorkspace::CohortWorkspace(const ScNetworkEngine &engine,
                                 std::size_t capacity)
    : engine_(engine)
{
    capacity = std::clamp<std::size_t>(capacity, 1, kMaxCohortImages);
    const stages::ExecutionPlan &plan = engine.plan();
    slots_.resize(capacity);
    for (Slot &slot : slots_) {
        slot.scratch.reserve(plan.stageCount());
        for (std::size_t s = 0; s < plan.stageCount(); ++s)
            slot.scratch.push_back(plan.stage(s).makeScratch());
        for (int i = 0; i < 2; ++i)
            slot.pingPong[i].reset(plan.bufferRows[i], plan.bufferLen[i]);
    }
    views_.resize(capacity);
    active_.reserve(capacity);
}

} // namespace aqfpsc::core
