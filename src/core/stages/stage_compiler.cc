#include "stage_compiler.h"

#include <algorithm>
#include <array>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/backend_registry.h"
#include "core/plan_cache.h"
#include "sc/rng.h"

namespace aqfpsc::core::stages {

namespace {

/** Layers the feature-extraction block's activation can stand in for. */
bool
isScActivation(const nn::Layer &l)
{
    return dynamic_cast<const nn::HardTanh *>(&l) != nullptr ||
           dynamic_cast<const nn::SorterTanh *>(&l) != nullptr;
}

FusedActivation
activationKind(const nn::Layer &l)
{
    if (dynamic_cast<const nn::SorterTanh *>(&l) != nullptr)
        return FusedActivation::SorterTanh;
    if (dynamic_cast<const nn::HardTanh *>(&l) != nullptr)
        return FusedActivation::HardTanh;
    return FusedActivation::None;
}

/**
 * Generate the parameter streams of one weighted stage.  The shared
 * @p rng is consumed in (weights, biases) order, matching the layer walk
 * so that stream contents are a function of the engine seed alone.
 */
FeatureStreams
makeStreams(const std::vector<float> &weights,
            const std::vector<float> &biases, const EngineOptions &cfg,
            sc::RandomSource &rng)
{
    FeatureStreams s;
    const std::size_t len = cfg.streamLen;
    s.weights = sc::StreamMatrix(weights.size(), len);
    for (std::size_t i = 0; i < weights.size(); ++i)
        s.weights.fillBipolar(i, weights[i], cfg.rngBits, rng);
    s.biases = sc::StreamMatrix(biases.size(), len);
    for (std::size_t i = 0; i < biases.size(); ++i)
        s.biases.fillBipolar(i, biases[i], cfg.rngBits, rng);
    s.neutral = sc::StreamMatrix(1, len);
    s.neutral.fillNeutral(0);
    return s;
}

/**
 * Produce (or intern) one weighted stage's immutable compile product:
 * its parameter streams and, for a linear stage, the operand plan
 * @p make_plan compiles from its Gather.  Backends whose traits opt out
 * of parameter streams get nullptr (the whole graph is one backend, so
 * the skipped draws cannot desynchronize anything).
 *
 * The spec keys on the RNG state before generation; on a cache hit the
 * build never runs and the compiler RNG is fast-forwarded to the
 * recorded post-generation state instead, so every downstream layer
 * consumes the identical word sequence a cold compile would produce.
 */
std::shared_ptr<const StageShared>
internStageState(StageKind kind, const std::array<int, 7> &dims,
                 FusedActivation act, bool majority_chain,
                 const EngineOptions &cfg, sc::Xoshiro256StarStar &rng,
                 const std::vector<float> &weights,
                 const std::vector<float> &biases, bool wanted,
                 const std::function<OperandPlan()> &make_plan)
{
    if (!wanted)
        return nullptr;
    StageSpec spec;
    spec.backend = cfg.backend;
    spec.kind = kind;
    spec.dims = dims;
    spec.activation = static_cast<int>(act);
    spec.majorityChain = majority_chain;
    spec.streamLen = cfg.streamLen;
    spec.rngBits = cfg.rngBits;
    spec.rngState = rng.state();
    spec.weights = weights;
    spec.biases = biases;
    auto shared = PlanCache::instance().internStage(spec, [&] {
        auto s = std::make_shared<StageShared>();
        s->streams = makeStreams(weights, biases, cfg, rng);
        s->rngStateAfter = rng.state();
        if (make_plan)
            s->plan = make_plan();
        s->bytes = featureStreamBytes(s->streams) + s->plan.bytes();
        return s;
    });
    rng.setState(shared->rngStateAfter);
    return shared;
}

/** Canonical PlanSpec of (net, cfg): architecture string from the layer
 *  specs + quantization grid, parameters flattened in layer order.  The
 *  RESOLVED per-stage length vector is always stored (scalar configs
 *  resolve to a uniform vector first), so a scalar streamLen and the
 *  equivalent explicit uniform vector share one cache entry. */
PlanSpec
makePlanSpec(const nn::Network &net, const EngineOptions &cfg,
             const std::vector<std::size_t> &lens)
{
    PlanSpec p;
    p.backend = cfg.backend;
    p.streamLen = lens.empty() ? cfg.streamLen : lens.front();
    p.stageStreamLens.assign(lens.begin(), lens.end());
    p.rngBits = cfg.rngBits;
    p.seed = cfg.seed;
    auto append = [&p](const std::vector<float> &v) {
        p.params.insert(p.params.end(), v.begin(), v.end());
    };
    std::string arch = "q";
    arch += std::to_string(net.quantBits());
    for (std::size_t li = 0; li < net.layerCount(); ++li) {
        const nn::Layer &l = net.layer(li);
        const nn::LayerSpec s = l.spec();
        arch += '|';
        arch += std::to_string(static_cast<int>(s.kind));
        arch += ':';
        arch += std::to_string(s.p0) + ',' + std::to_string(s.p1) + ',' +
                std::to_string(s.p2);
        if (const auto *chain =
                dynamic_cast<const nn::MajorityChainDense *>(&l)) {
            append(chain->weights());
            append(chain->biases());
        } else if (const auto *conv = dynamic_cast<const nn::Conv2D *>(&l)) {
            append(conv->weights());
            append(conv->biases());
        } else if (const auto *fc = dynamic_cast<const nn::Dense *>(&l)) {
            append(fc->weights());
            append(fc->biases());
        }
    }
    p.architecture = std::move(arch);
    return p;
}

/** nn::chainLayer, its mismatch message prefixed as the compiler's. */
nn::LayerShapes
chainStage(std::size_t li, const nn::Layer &l, const nn::FeatureShape &prev)
{
    try {
        return nn::chainLayer(li, l, prev);
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(std::string("ScNetworkEngine: ") +
                                    e.what());
    }
}

/** @p factory's stage for layer @p li, a refusal (std::invalid_argument)
 *  prefixed with the layer as chainStage prefixes shape errors. */
template <typename Factory, typename Geometry>
std::unique_ptr<ScStage>
makeStage(std::size_t li, const nn::Layer &l, const Factory &factory,
          const Geometry &g, WeightedStageInit init)
{
    try {
        return factory(g, std::move(init));
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument("ScNetworkEngine: layer " +
                                    std::to_string(li) + " (" + l.name() +
                                    "): " + e.what());
    }
}

[[noreturn]] void
throwIncomplete(const std::string &backend, const char *kind)
{
    throw std::invalid_argument("backend '" + backend +
                                "' registers no " + kind + " stage");
}

/**
 * Count the stages the compiler will emit for @p net — the same walk as
 * compileNetworkUncached (conv/dense fuse their following activation),
 * minus the stage construction.  Mapping errors are left for the real
 * compile to diagnose; this only needs the count for length resolution.
 */
std::size_t
countStages(const nn::Network &net)
{
    std::size_t count = 0;
    const std::size_t n_layers = net.layerCount();
    for (std::size_t li = 0; li < n_layers; ++li) {
        const nn::Layer &l = net.layer(li);
        if (dynamic_cast<const nn::Conv2D *>(&l) != nullptr) {
            ++count;
            if (li + 1 < n_layers && isScActivation(net.layer(li + 1)))
                ++li; // the activation fuses into the conv stage
            continue;
        }
        if (dynamic_cast<const nn::AvgPool2 *>(&l) != nullptr) {
            ++count;
            continue;
        }
        if (dynamic_cast<const nn::MajorityChainDense *>(&l) != nullptr) {
            ++count;
            continue;
        }
        if (dynamic_cast<const nn::Dense *>(&l) != nullptr) {
            ++count;
            if (li + 1 < n_layers && isScActivation(net.layer(li + 1)))
                ++li; // fused hidden Dense + activation
            continue;
        }
        // Unmappable layers contribute no stage; compileNetworkUncached
        // throws the documented message when it reaches them.
    }
    return count;
}

} // namespace

std::vector<std::size_t>
resolveStageLens(const nn::Network &net, const EngineOptions &cfg)
{
    cfg.validateOrThrow();
    const std::size_t n_stages = countStages(net);
    if (cfg.stageStreamLens.empty())
        return std::vector<std::size_t>(n_stages, cfg.streamLen);
    if (cfg.stageStreamLens.size() != n_stages) {
        throw std::invalid_argument(
            "stageStreamLens has " +
            std::to_string(cfg.stageStreamLens.size()) +
            " entries but the network compiles to " +
            std::to_string(n_stages) +
            " stages; provide one length per stage in execution order");
    }
    return cfg.stageStreamLens;
}

std::shared_ptr<const ExecutionPlan>
compileNetwork(const nn::Network &net, const EngineOptions &cfg)
{
    return PlanCache::instance().internPlan(
        makePlanSpec(net, cfg, resolveStageLens(net, cfg)),
        [&] {
            return std::make_shared<const ExecutionPlan>(
                compileNetworkUncached(net, cfg));
        });
}

ExecutionPlan
compileNetworkUncached(const nn::Network &net, const EngineOptions &cfg)
{
    const std::vector<std::size_t> lens = resolveStageLens(net, cfg);
    const std::string &backend = cfg.backend;
    const BackendEntry &factories =
        BackendRegistry::instance().entry(backend);
    const bool want_streams = factories.traits.wantsParamStreams;

    std::vector<std::unique_ptr<ScStage>> stages;

    // Per-stage config: identical to cfg except streamLen carries the
    // stage's own resolved length (factories and stream generation read
    // only streamLen, so a scalar-era stage builds unchanged from it).
    const auto stageCfg = [&]() {
        EngineOptions c = cfg;
        c.streamLen = lens[stages.size()];
        c.stageStreamLens.clear();
        return c;
    };

    sc::Xoshiro256StarStar rng(cfg.seed);

    // Walk the float network and fuse (Conv|Dense) + activation pairs;
    // nn::chainLayer checks that each layer reads what the last wrote.
    nn::FeatureShape shape;
    std::size_t input_elements = 0; // what the first stage reads

    const std::size_t n_layers = net.layerCount();
    for (std::size_t li = 0; li < n_layers; ++li) {
        const nn::Layer &l = net.layer(li);

        if (const auto *conv = dynamic_cast<const nn::Conv2D *>(&l)) {
            if (li + 1 >= n_layers || !isScActivation(net.layer(li + 1))) {
                throw std::invalid_argument(
                    "ScNetworkEngine: Conv2D needs a following activation");
            }
            const nn::LayerShapes io = chainStage(li, l, shape);
            if (stages.empty())
                input_elements = io.in.elements;
            ConvGeometry g;
            g.inC = conv->inChannels();
            g.inH = io.in.h;
            g.inW = io.in.w;
            g.outC = conv->outChannels();
            g.outH = io.out.h;
            g.outW = io.out.w;
            g.kernel = conv->kernel();
            if (!factories.conv)
                throwIncomplete(backend, "conv");
            const EngineOptions scfg = stageCfg();
            stages.push_back(makeStage(
                li, l, factories.conv, g,
                WeightedStageInit{
                    internStageState(
                        StageKind::Conv,
                        {g.inC, g.inH, g.inW, g.outC, g.outH, g.outW,
                         g.kernel},
                        activationKind(net.layer(li + 1)), false, scfg,
                        rng, conv->weights(), conv->biases(),
                        want_streams,
                        [&g] {
                            return compileOperandPlan(ConvWindowGather{g});
                        }),
                    conv->weights(), conv->biases(),
                    activationKind(net.layer(li + 1)), false, scfg}));
            shape = io.out;
            ++li; // consume the activation
            continue;
        }

        if (dynamic_cast<const nn::AvgPool2 *>(&l) != nullptr) {
            const nn::LayerShapes io = chainStage(li, l, shape);
            PoolGeometry g;
            g.channels = io.in.c;
            g.inH = io.in.h;
            g.inW = io.in.w;
            g.outH = io.out.h;
            g.outW = io.out.w;
            if (!factories.pool)
                throwIncomplete(backend, "pool");
            stages.push_back(factories.pool(g, stageCfg()));
            shape = io.out;
            continue;
        }

        if (const auto *chain =
                dynamic_cast<const nn::MajorityChainDense *>(&l)) {
            if (li + 1 != n_layers)
                throw std::invalid_argument(
                    "ScNetworkEngine: MajorityChainDense must be last");
            DenseGeometry g;
            g.inFeatures = chain->inFeatures();
            g.outFeatures = chain->outFeatures();
            const nn::LayerShapes io = chainStage(li, l, shape);
            if (stages.empty())
                input_elements = io.in.elements;
            if (!factories.output)
                throwIncomplete(backend, "output");
            const EngineOptions scfg = stageCfg();
            stages.push_back(factories.output(
                g, WeightedStageInit{
                       internStageState(
                           StageKind::Output,
                           {g.inFeatures, g.outFeatures, 0, 0, 0, 0, 0},
                           FusedActivation::None, true, scfg, rng,
                           chain->weights(), chain->biases(),
                           want_streams, nullptr),
                       chain->weights(), chain->biases(),
                       FusedActivation::None, true, scfg}));
            continue;
        }

        if (const auto *fc = dynamic_cast<const nn::Dense *>(&l)) {
            const bool has_act =
                li + 1 < n_layers && isScActivation(net.layer(li + 1));
            DenseGeometry g;
            g.inFeatures = fc->inFeatures();
            g.outFeatures = fc->outFeatures();
            const nn::LayerShapes io = chainStage(li, l, shape);
            if (stages.empty())
                input_elements = io.in.elements;
            shape = io.out;
            const FusedActivation act =
                has_act ? activationKind(net.layer(li + 1))
                        : FusedActivation::None;
            const EngineOptions scfg = stageCfg();
            auto shared = internStageState(
                has_act ? StageKind::Dense : StageKind::Output,
                {g.inFeatures, g.outFeatures, 0, 0, 0, 0, 0}, act, false,
                scfg, rng, fc->weights(), fc->biases(),
                want_streams, [&g, has_act]() -> OperandPlan {
                    if (!has_act)
                        return {};
                    return compileOperandPlan(DenseGather{g});
                });
            if (has_act) {
                if (!factories.dense)
                    throwIncomplete(backend, "dense");
                stages.push_back(makeStage(
                    li, l, factories.dense, g,
                    WeightedStageInit{std::move(shared), fc->weights(),
                                      fc->biases(), act, false, scfg}));
                ++li;
            } else {
                if (li + 1 != n_layers)
                    throw std::invalid_argument(
                        "ScNetworkEngine: activation-free Dense must be "
                        "last");
                if (!factories.output)
                    throwIncomplete(backend, "output");
                stages.push_back(factories.output(
                    g, WeightedStageInit{std::move(shared), fc->weights(),
                                         fc->biases(),
                                         FusedActivation::None, false,
                                         scfg}));
            }
            continue;
        }

        throw std::invalid_argument("ScNetworkEngine: unmappable layer " +
                                    l.name());
    }

    if (stages.empty() || !stages.back()->terminal())
        throw std::invalid_argument(
            "ScNetworkEngine: network must end in an output Dense layer");

    // Graph-level buffer plan: stage s writes ping-pong buffer s % 2, so
    // record each parity's high-water row count and stream length —
    // workspaces allocate their arenas once from these and never grow
    // afterwards.
    ExecutionPlan plan;
    plan.streamLen = lens.front();
    plan.stageStreamLens = lens;
    plan.inputElements = input_elements;
    for (std::size_t s = 0; s < stages.size(); ++s) {
        plan.bufferRows[s % 2] = std::max(
            plan.bufferRows[s % 2], stages[s]->footprint().outputRows);
        plan.bufferLen[s % 2] = std::max(plan.bufferLen[s % 2], lens[s]);
        plan.resumable = plan.resumable && stages[s]->resumable();
    }
    plan.stages = std::move(stages);
    return plan;
}

} // namespace aqfpsc::core::stages
