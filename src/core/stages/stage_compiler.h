/**
 * @file
 * Stage compiler: lowers a trained nn::Network into an ExecutionPlan —
 * the executable stage graph of the requested backend plus the
 * graph-level buffer plan every workspace allocates from.
 *
 * mapNetwork() is the one network-to-stage mapping, the paper's: a conv
 * or hidden Dense layer with its activation becomes a feature-extraction
 * stage, AvgPool2 a pooling stage and the final Dense /
 * MajorityChainDense the terminal categorization stage.  The compiler
 * builds one stage per entry and pre-generates every weight/bias stream
 * from a single RNG walked in layer order (the stream contents are part
 * of the deterministic contract: one seed, one stage graph);
 * core::analyzeNetworkHardware costs the same entries.
 *
 * Stage construction is registry-driven: the backend named by
 * EngineOptions::backend is looked up in core::BackendRegistry and its
 * one stage factory builds every entry, so new backends plug in without
 * touching this compiler.
 *
 * Documented error messages (all std::invalid_argument); mapNetwork()
 * owns the second group, for a network the paper's blocks cannot map:
 * @verbatim
 - "invalid EngineOptions: <validate() errors joined by '; '>", e.g.
   "unknown backend '<name>'; registered backends: <a>, <b>, ..."
 - "ScNetworkEngine: Conv2D needs a following activation"
   "ScNetworkEngine: MajorityChainDense must be last"
   "ScNetworkEngine: activation-free Dense must be last"
   "ScNetworkEngine: unmappable layer <name>"
   "ScNetworkEngine: network must end in an output Dense layer"
   "ScNetworkEngine: layer <i> (<name>) expects <what>, but its input
   has <shape>" (nn::chainLayer's shape errors)
 - "ScNetworkEngine: layer <i> (<name>): <reason>" when a backend's
   factory refuses the layer, e.g. aqfp-sorter and cmos-apc for a fan-in
   above core::stages::LinearScStage::kMaxProducts (4093) products per
   row
 @endverbatim
 */

#ifndef AQFPSC_CORE_STAGES_STAGE_COMPILER_H
#define AQFPSC_CORE_STAGES_STAGE_COMPILER_H

#include <memory>
#include <variant>
#include <vector>

#include "core/plan_cache.h"
#include "core/sc_engine.h"
#include "core/stages/stage.h"
#include "core/stages/stage_common.h"
#include "nn/network.h"

namespace aqfpsc::core::stages {

/**
 * One stage of a network as the paper maps it (see mapNetwork).  The
 * pointers refer into the mapped network and live as long as it does.
 */
struct MappedStage
{
    StageKind kind = StageKind::Conv;
    /** Index of the source layer in the network. */
    std::size_t layerIndex = 0;
    /** The source layer: Conv2D, AvgPool2, Dense or MajorityChainDense. */
    const nn::Layer *layer = nullptr;
    /** The activation fused into a Conv or Dense stage, else nullptr. */
    const nn::Layer *activation = nullptr;
    /** The stage's geometry: ConvGeometry, PoolGeometry, or
     *  DenseGeometry for Dense and Output. */
    std::variant<ConvGeometry, PoolGeometry, DenseGeometry> geometry;
    /** What the stage reads (nn::chainLayer's input shape);
     *  in.elements is its input element count. */
    nn::FeatureShape in;
};

/**
 * Map @p net onto the paper's blocks, one entry per compiled stage in
 * execution order: Conv2D + activation -> Conv, AvgPool2 -> Pool,
 * Dense + activation -> Dense, and the last layer, a Dense without
 * activation or a MajorityChainDense, -> Output.  Shapes come from
 * nn::chainLayer.  The stage compiler, resolveStageLens and
 * core::analyzeNetworkHardware all walk a network through this one
 * function, so they accept exactly the same networks.
 *
 * @throws std::invalid_argument with mapNetwork()'s documented messages
 *         (see the file comment).
 */
std::vector<MappedStage> mapNetwork(const nn::Network &net);

/**
 * Compiled stage graph plus the graph-level buffer plan.
 *
 * The plan is what every core::CohortWorkspace sizes its arena from,
 * and what the engine validates inputs against: stage s of the graph reads
 * ping-pong buffer (s % 2) ^ 1 and writes buffer s % 2 (the first stage
 * reads the input matrix), so bufferRows holds the high-water row
 * count of each parity — one sized allocation per buffer per cohort
 * slot, reused across all stages, never reallocated afterwards.
 */
struct ExecutionPlan
{
    /** Stages in execution order; the last one is terminal. */
    std::vector<std::unique_ptr<ScStage>> stages;

    /** Ping-pong buffer plan: max output rows written at each parity. */
    std::size_t bufferRows[2] = {0, 0};

    /** Ping-pong buffer plan: max stream length written at each parity
     *  (uniform plans: streamLen at both).  Workspaces pre-size each
     *  buffer from (bufferRows, bufferLen) of its parity. */
    std::size_t bufferLen[2] = {0, 0};

    /** True when every stage accepts partial spans (checkpointed
     *  execution); otherwise every run is one full-length span. */
    bool resumable = true;

    /**
     * Input elements the first stage reads per image (its
     * MappedStage::in): inC x 28 x 28 for a conv (nn::chainLayer's input
     * geometry) or inFeatures for a dense layer.  The engine rejects
     * images of any other size.
     */
    std::size_t inputElements = 0;

    /**
     * Full-run cycle count: the longest stage stream length, i.e. the
     * stream length of the first stage (lengths are validated
     * non-increasing along the graph).  Uniform plans: the scalar
     * streamLen the graph was compiled for.
     */
    std::size_t streamLen = 0;

    /**
     * Resolved per-stage stream lengths, one entry per stage in
     * execution order (a scalar config resolves to a uniform vector).
     * Non-increasing; stage s generates its parameter streams at — and
     * executes exactly — stageStreamLens[s] cycles, consuming the
     * prefix of its (equal or longer) input streams.
     */
    std::vector<std::size_t> stageStreamLens;

    std::size_t stageCount() const { return stages.size(); }

    const ScStage &stage(std::size_t i) const { return *stages[i]; }

    /** Cycles a complete (non-early-exit) run executes — what
     *  consumedCycles accounting reports for full-length inference. */
    std::size_t fullRunCycles() const { return streamLen; }

    /** The terminal stage's stream length (the shortest; the score
     *  denominator of a full run). */
    std::size_t terminalCycles() const
    {
        return stageStreamLens.empty() ? streamLen
                                       : stageStreamLens.back();
    }
};

/**
 * Validate @p cfg (EngineOptions::validateOrThrow) and resolve its
 * per-stage stream lengths against @p net: maps the network
 * (mapNetwork) and returns one length per stage.  An empty
 * EngineOptions::stageStreamLens yields a uniform vector at
 * cfg.streamLen (bit-identical to the scalar path); a non-empty vector
 * must have one entry per stage, the one check that needs the network.
 * Both compile entry points call this first.
 *
 * @throws std::invalid_argument with an actionable message on any
 *         violation.
 */
std::vector<std::size_t> resolveStageLens(const nn::Network &net,
                                          const EngineOptions &cfg);

/**
 * Compile @p net into an ExecutionPlan for @p cfg 's backend.
 *
 * Compilation is routed through core::PlanCache: an identical
 * (backend, options, architecture, parameters) spec compiled earlier —
 * and still alive in some engine — is returned directly, and on a plan
 * miss each weighted stage's immutable state is still interned
 * stage-by-stage, so engines of different models share the state of
 * layers they have in common.  Cached and cold compiles are
 * bit-identical (see plan_cache.h for the RNG fast-forward argument);
 * set AQFPSC_DISABLE_PLAN_CACHE=1 to always compile cold.
 *
 * @throws std::invalid_argument if @p cfg is invalid, the network
 *         does not follow the mappable pattern, or the backend refuses
 *         a layer (see the documented messages above).
 */
std::shared_ptr<const ExecutionPlan>
compileNetwork(const nn::Network &net, const EngineOptions &cfg);

/**
 * The cold compile path: always rebuilds the plan, never consults the
 * plan-level cache (stage-level interning still applies when the cache
 * is enabled).  compileNetwork() runs this on a plan miss; the
 * differential tests call it directly to pin cached == cold.
 */
ExecutionPlan compileNetworkUncached(const nn::Network &net,
                                     const EngineOptions &cfg);

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_STAGE_COMPILER_H
