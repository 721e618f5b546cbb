/**
 * @file
 * String-keyed backend registry of the SC stage compiler.
 *
 * A backend is one stage factory over the compiler's network mapping
 * (stages::mapNetwork): given a MappedStage — its kind, geometry, source
 * layer and fused activation — it builds that stage.  The registry's
 * constructor registers the three builtins explicitly: "aqfp-sorter"
 * (the paper's blocks), "cmos-apc" (the SC-DCNN baseline) and
 * "float-ref" (the float layers, for debugging).  Any program linked
 * against the library finds them, however it links.  add() registers
 * an out-of-tree backend under a new name; stages::compileNetwork looks
 * backends up by EngineOptions::backend.
 *
 * Stream generation stays in the compiler, so every stream-domain
 * backend sees bit-identical parameter streams for the same seed.
 */

#ifndef AQFPSC_CORE_BACKEND_REGISTRY_H
#define AQFPSC_CORE_BACKEND_REGISTRY_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sc_engine.h"
#include "core/stages/stage.h"

namespace aqfpsc::core {

namespace stages {
struct MappedStage;
} // namespace stages

/**
 * Builds the stage of one mapped network entry.
 *
 * - The MappedStage is the entry the stage implements (stage_compiler.h);
 *   it is only valid during the call, so a stage that needs its layers
 *   must copy them.
 * - The StageShared is the entry's compile product: its pre-generated
 *   parameter streams and, for a linear stage, its operand plan, shared
 *   by every engine of the plan core::PlanCache interns.
 *   It is null for a Pool entry and for a backend without streams.
 * - The EngineOptions carry the stage's own stream length.
 *
 * A factory refuses a layer it cannot build by throwing
 * std::invalid_argument; the compiler prefixes the layer.
 */
using StageFactory = std::function<std::unique_ptr<ScStage>(
    const stages::MappedStage &, std::shared_ptr<const stages::StageShared>,
    const EngineOptions &)>;

/** One registered backend. */
struct Backend
{
    StageFactory factory;
    /**
     * A stochastic-stream backend: the compiler generates each weighted
     * stage's parameter streams and the engine encodes every input image
     * into SNG streams.  A value-domain backend ("float-ref") sets false
     * and reads StageContext::image and StageContext::values instead.
     */
    bool streams = true;
};

/**
 * Process-wide backend name -> Backend table.
 *
 * Thread safety: the builtins are registered when instance() first
 * constructs the table, which C++ makes thread-safe.  Lookups are safe
 * to call concurrently; add() must not run concurrently with lookups or
 * compiles.
 *
 * Determinism: the registry only resolves names to factories, so
 * backend lookup order never influences results.
 */
class BackendRegistry
{
  public:
    /** The singleton table, holding the builtins from its first use. */
    static BackendRegistry &instance();

    /**
     * Register @p backend under @p name.
     * @throws std::logic_error if @p name is taken or the factory is
     *         empty; the registry is then unchanged.
     */
    void add(const std::string &name, Backend backend);

    /** Whether @p name is registered. */
    bool has(const std::string &name) const;

    /** Registered backend names, sorted. */
    std::vector<std::string> names() const;

    /**
     * The backend registered under @p name.
     * @throws std::invalid_argument with unknownBackendMessage() when
     *         @p name is unknown.
     */
    const Backend &backend(const std::string &name) const;

    /** The documented unknown-backend error text for @p name. */
    std::string unknownBackendMessage(const std::string &name) const;

  private:
    BackendRegistry();
    std::map<std::string, Backend> backends_;
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_BACKEND_REGISTRY_H
