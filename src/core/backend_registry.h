/**
 * @file
 * Open, string-keyed backend registry for the SC stage compiler.
 *
 * A backend is a named set of per-layer-kind stage factories
 * ("aqfp-sorter", "cmos-apc", "float-ref", ...).  Stage TUs self-register
 * their factories at static-initialization time through the
 * *Registration helpers below, and stages::compileNetwork looks them up
 * by EngineOptions::backend — adding a backend therefore
 * requires no edits to the compiler, only a new TU linked into the
 * binary.  (The build links the aqfpsc archive with WHOLE_ARCHIVE so the
 * linker never drops self-registering objects.)
 *
 * Factories receive the layer geometry plus a WeightedStageInit bundle:
 * the pre-generated SC parameter streams, the float parameters they were
 * generated from (for value-domain backends such as "float-ref"), the
 * activation the compiler fused into the stage, and the engine config.
 * Stream generation itself stays in the compiler so that every
 * stream-domain backend sees bit-identical parameter streams for the
 * same seed.
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
#include "core/stages/stage_common.h"

namespace aqfpsc::core {

/** Activation the compiler fused into a weighted stage. */
enum class FusedActivation
{
    None,       ///< output layers: no activation
    HardTanh,   ///< trained with the idealized clip
    SorterTanh, ///< trained with the measured sorter response tanh(0.8z)
};

/** Everything a weighted-stage factory may consume. */
struct WeightedStageInit
{
    /** Interned immutable compile product holding the pre-generated
     *  parameter streams — possibly shared with other engines through
     *  core::PlanCache (null when the backend's traits set
     *  wantsParamStreams = false).  Stream-domain stages keep the
     *  shared_ptr; value-domain stages ignore it. */
    std::shared_ptr<const stages::StageShared> shared;
    /** Float parameters the streams were generated from.  Only valid
     *  during the factory call — value-domain stages must copy. */
    const std::vector<float> &weights;
    const std::vector<float> &biases;
    /** Activation fused into this stage (None for output stages). */
    FusedActivation activation = FusedActivation::None;
    /** Output stages: true when the source layer is MajorityChainDense. */
    bool majorityChainOutput = false;
    /** Engine configuration (backend-specific knobs, streamLen, ...). */
    const EngineOptions &cfg;
};

using ConvStageFactory = std::function<std::unique_ptr<ScStage>(
    const stages::ConvGeometry &, WeightedStageInit)>;
using DenseStageFactory = std::function<std::unique_ptr<ScStage>(
    const stages::DenseGeometry &, WeightedStageInit)>;
using PoolStageFactory = std::function<std::unique_ptr<ScStage>(
    const stages::PoolGeometry &, const EngineOptions &)>;
using OutputStageFactory = std::function<std::unique_ptr<ScStage>(
    const stages::DenseGeometry &, WeightedStageInit)>;

/** Compile/runtime behaviour switches of one backend. */
struct BackendTraits
{
    /** Generate weight/bias streams at engine compile time. */
    bool wantsParamStreams = true;
    /** Encode the input image into SNG streams for every inference. */
    bool wantsInputStreams = true;
};

/** One backend's registered factories. */
struct BackendEntry
{
    ConvStageFactory conv;
    DenseStageFactory dense;
    PoolStageFactory pool;
    OutputStageFactory output;
    BackendTraits traits;
};

/**
 * Process-wide backend name -> stage-factory table.
 *
 * Thread safety: registration normally happens during static
 * initialization (before main), so lookups never race with it; all
 * const lookups (has/names/entry/traits) are safe to call concurrently
 * once main has started.  Later programmatic registration is allowed
 * but must not run concurrently with lookups or compiles.
 *
 * Determinism: the registry only resolves names to factories — stream
 * generation stays in the stage compiler, so every stream-domain
 * backend sees bit-identical parameter streams for the same seed, and
 * backend lookup order never influences results.
 */
class BackendRegistry
{
  public:
    /** The singleton table. */
    static BackendRegistry &instance();

    /** Register one stage factory.  @throws std::logic_error if the
     *  backend already registered that stage kind. */
    void registerConv(const std::string &backend, ConvStageFactory f);
    void registerDense(const std::string &backend, DenseStageFactory f);
    void registerPool(const std::string &backend, PoolStageFactory f);
    void registerOutput(const std::string &backend, OutputStageFactory f);

    /** Override the default traits of @p backend. */
    void registerTraits(const std::string &backend, BackendTraits traits);

    /** Whether @p backend has any registration. */
    bool has(const std::string &backend) const;

    /** Registered backend names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Factory table of @p backend.
     * @throws std::invalid_argument listing the registered names when
     *         @p backend is unknown.
     */
    const BackendEntry &entry(const std::string &backend) const;

    /** Traits of @p backend (throws like entry()). */
    BackendTraits traits(const std::string &backend) const;

    /** The documented unknown-backend error text for @p backend. */
    std::string unknownBackendMessage(const std::string &backend) const;

  private:
    BackendRegistry() = default;
    std::map<std::string, BackendEntry> entries_;
};

/**
 * Self-registration helpers: define one at namespace scope in the stage
 * TU, e.g.
 *
 *   namespace {
 *   const core::ConvStageRegistration kReg{
 *       "aqfp-sorter",
 *       [](const ConvGeometry &g, core::WeightedStageInit init) {
 *           return std::make_unique<AqfpConvStage>(g,
 *                                                  std::move(init.shared));
 *       }};
 *   } // namespace
 */
struct ConvStageRegistration
{
    ConvStageRegistration(const std::string &backend, ConvStageFactory f);
};
struct DenseStageRegistration
{
    DenseStageRegistration(const std::string &backend, DenseStageFactory f);
};
struct PoolStageRegistration
{
    PoolStageRegistration(const std::string &backend, PoolStageFactory f);
};
struct OutputStageRegistration
{
    OutputStageRegistration(const std::string &backend,
                            OutputStageFactory f);
};
struct BackendTraitsRegistration
{
    BackendTraitsRegistration(const std::string &backend,
                              BackendTraits traits);
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_BACKEND_REGISTRY_H
