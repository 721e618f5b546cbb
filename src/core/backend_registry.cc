#include "backend_registry.h"

#include <stdexcept>
#include <utility>
#include <variant>

#include "core/stages/aqfp_output_stage.h"
#include "core/stages/aqfp_pool_stage.h"
#include "core/stages/cmos_output_stage.h"
#include "core/stages/cmos_pool_stage.h"
#include "core/stages/float_ref_stage.h"
#include "core/stages/stage_common.h"
#include "core/stages/stage_compiler.h"

namespace aqfpsc::core {

namespace {

/**
 * A stream backend's StageFactory: Policy's linear stages for Conv and
 * Dense entries, Pool and Output for the others.
 */
template <typename Policy, typename Pool, typename Output>
std::unique_ptr<ScStage>
streamStage(const stages::MappedStage &m,
            std::shared_ptr<const stages::StageShared> shared,
            const EngineOptions &cfg)
{
    using stages::LinearScStage;
    if (const auto *g = std::get_if<stages::ConvGeometry>(&m.geometry))
        return std::make_unique<
            LinearScStage<Policy, stages::ConvWindowGather>>(
            *g, std::move(shared));
    if (const auto *g = std::get_if<stages::PoolGeometry>(&m.geometry))
        return std::make_unique<Pool>(*g, cfg.streamLen);
    const auto &g = std::get<stages::DenseGeometry>(m.geometry);
    if (m.kind == stages::StageKind::Dense)
        return std::make_unique<LinearScStage<Policy, stages::DenseGather>>(
            g, std::move(shared));
    return std::make_unique<Output>(g, std::move(shared));
}

} // namespace

BackendRegistry::BackendRegistry()
{
    add("aqfp-sorter",
        {streamStage<stages::SorterMajorityPolicy, stages::AqfpPoolStage,
                     stages::AqfpOutputStage>,
         true});
    add("cmos-apc",
        {streamStage<stages::ApcBtanhPolicy, stages::CmosPoolStage,
                     stages::CmosOutputStage>,
         true});
    add("float-ref", {stages::makeFloatRefStage, false});
}

BackendRegistry &
BackendRegistry::instance()
{
    static BackendRegistry registry;
    return registry;
}

void
BackendRegistry::add(const std::string &name, Backend backend)
{
    if (!backend.factory)
        throw std::logic_error("BackendRegistry: backend '" + name +
                               "' has no stage factory");
    if (!backends_.emplace(name, std::move(backend)).second)
        throw std::logic_error("BackendRegistry: backend '" + name +
                               "' is already registered");
}

bool
BackendRegistry::has(const std::string &name) const
{
    return backends_.find(name) != backends_.end();
}

std::vector<std::string>
BackendRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(backends_.size());
    for (const auto &kv : backends_)
        out.push_back(kv.first); // std::map keeps them sorted
    return out;
}

std::string
BackendRegistry::unknownBackendMessage(const std::string &name) const
{
    std::string msg = "unknown backend '" + name +
                      "'; registered backends: ";
    bool first = true;
    for (const auto &kv : backends_) {
        if (!first)
            msg += ", ";
        msg += kv.first;
        first = false;
    }
    return msg;
}

const Backend &
BackendRegistry::backend(const std::string &name) const
{
    const auto it = backends_.find(name);
    if (it == backends_.end())
        throw std::invalid_argument(unknownBackendMessage(name));
    return it->second;
}

} // namespace aqfpsc::core
