#include "stage_compiler.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/backend_registry.h"
#include "core/plan_cache.h"
#include "sc/rng.h"

namespace aqfpsc::core::stages {

namespace {

/** Layers the feature-extraction block's activation can stand in for. */
bool
isScActivation(const nn::Layer &l)
{
    const nn::LayerSpec::Kind kind = l.spec().kind;
    return kind == nn::LayerSpec::Kind::HardTanh ||
           kind == nn::LayerSpec::Kind::SorterTanh;
}

/** Throw the compiler's std::invalid_argument "ScNetworkEngine: <what>". */
[[noreturn]] void
throwEngineError(const std::string &what)
{
    throw std::invalid_argument("ScNetworkEngine: " + what);
}

/** nn::chainLayer, its mismatch message prefixed as the compiler's. */
nn::LayerShapes
chainStage(std::size_t li, const nn::Layer &l, const nn::FeatureShape &prev)
{
    try {
        return nn::chainLayer(li, l, prev);
    } catch (const std::invalid_argument &e) {
        throwEngineError(e.what());
    }
}

/** The geometry of a @p kind stage, from the shapes chainLayer gave
 *  its layer @p spec. */
std::variant<ConvGeometry, PoolGeometry, DenseGeometry>
stageGeometry(StageKind kind, const nn::LayerSpec &spec,
              const nn::LayerShapes &io)
{
    if (kind == StageKind::Conv)
        return ConvGeometry{io.in.c,  io.in.h,  io.in.w, io.out.c,
                            io.out.h, io.out.w, spec.p2};
    if (kind == StageKind::Pool)
        return PoolGeometry{io.in.c, io.in.h, io.in.w, io.out.h, io.out.w};
    return DenseGeometry{spec.p0, spec.p1};
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
 * Build weighted stage @p m's immutable compile product: its parameter
 * streams and, for a linear (conv or hidden dense) stage, the operand
 * plan compiled from its Gather.  Only stream backends ask for it (the
 * whole graph is one backend, so the draws a value-domain backend skips
 * cannot desynchronize anything).
 */
std::shared_ptr<const StageShared>
makeStageShared(const MappedStage &m, const EngineOptions &cfg,
                sc::RandomSource &rng)
{
    const auto params = m.layer->params(); // weights, biases
    auto s = std::make_shared<StageShared>();
    s->streams = makeStreams(*params[0], *params[1], cfg, rng);
    if (const auto *g = std::get_if<ConvGeometry>(&m.geometry))
        s->plan = compileOperandPlan(ConvWindowGather{*g});
    else if (m.kind == StageKind::Dense)
        s->plan = compileOperandPlan(
            DenseGather{std::get<DenseGeometry>(m.geometry)});
    s->bytes = featureStreamBytes(s->streams) + s->plan.bytes();
    return s;
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
        for (const std::vector<float> *v : l.params())
            p.params.insert(p.params.end(), v->begin(), v->end());
    }
    p.architecture = std::move(arch);
    return p;
}

/** @p backend's stage for @p m; a refusal (std::invalid_argument) is
 *  prefixed with the layer, as chainStage prefixes shape errors. */
std::unique_ptr<ScStage>
buildStage(const MappedStage &m, const Backend &backend,
           const EngineOptions &cfg, sc::RandomSource &rng)
{
    std::shared_ptr<const StageShared> shared;
    if (backend.streams && m.kind != StageKind::Pool)
        shared = makeStageShared(m, cfg, rng);
    try {
        return backend.factory(m, std::move(shared), cfg);
    } catch (const std::invalid_argument &e) {
        throwEngineError("layer " + std::to_string(m.layerIndex) + " (" +
                         m.layer->name() + "): " + e.what());
    }
}

} // namespace

std::vector<MappedStage>
mapNetwork(const nn::Network &net)
{
    using Kind = nn::LayerSpec::Kind;
    std::vector<MappedStage> mapped;
    nn::FeatureShape shape; // what the previous stage writes
    const std::size_t n_layers = net.layerCount();
    for (std::size_t li = 0; li < n_layers; ++li) {
        const nn::Layer &l = net.layer(li);
        const nn::LayerSpec spec = l.spec();
        const bool last = li + 1 == n_layers;
        const nn::Layer *act = !last && isScActivation(net.layer(li + 1))
                                   ? &net.layer(li + 1)
                                   : nullptr;
        MappedStage m;
        m.layerIndex = li;
        m.layer = &l;
        switch (spec.kind) {
          case Kind::Conv2D:
            if (act == nullptr)
                throwEngineError("Conv2D needs a following activation");
            m.kind = StageKind::Conv;
            m.activation = act;
            break;
          case Kind::AvgPool2:
            m.kind = StageKind::Pool;
            break;
          case Kind::MajorityChainDense:
            if (!last)
                throwEngineError("MajorityChainDense must be last");
            m.kind = StageKind::Output;
            break;
          case Kind::Dense:
            m.kind = act != nullptr ? StageKind::Dense : StageKind::Output;
            m.activation = act;
            break;
          case Kind::HardTanh:
          case Kind::SorterTanh:
            throwEngineError("unmappable layer " + l.name());
        }
        const nn::LayerShapes io = chainStage(li, l, shape);
        if (m.kind == StageKind::Output && !last)
            throwEngineError("activation-free Dense must be last");
        m.geometry = stageGeometry(m.kind, spec, io);
        m.in = io.in;
        shape = io.out;
        if (m.activation != nullptr)
            ++li; // the activation fuses into this stage
        mapped.push_back(m);
    }
    if (mapped.empty() || mapped.back().kind != StageKind::Output)
        throwEngineError("network must end in an output Dense layer");
    return mapped;
}

std::vector<std::size_t>
resolveStageLens(const nn::Network &net, const EngineOptions &cfg)
{
    cfg.validateOrThrow();
    const std::size_t n_stages = mapNetwork(net).size();
    for (std::size_t li = 0; li < net.layerCount(); ++li) {
        const nn::Layer &l = net.layer(li);
        for (const std::vector<float> *block : l.params()) {
            const std::string bad = nn::nonFiniteParameter(*block);
            if (!bad.empty())
                throwEngineError("layer " + std::to_string(li) + " (" +
                                 l.name() + "): " + bad);
        }
    }
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
    const std::vector<MappedStage> mapped = mapNetwork(net);
    const Backend &backend = BackendRegistry::instance().backend(cfg.backend);

    // One stage per mapped entry, parameter streams drawn in layer order
    // from one RNG.  Each stage's config is cfg except that streamLen
    // carries the stage's own resolved length (factories and stream
    // generation read only streamLen).
    sc::Xoshiro256StarStar rng(cfg.seed);
    std::vector<std::unique_ptr<ScStage>> stages;
    for (std::size_t s = 0; s < mapped.size(); ++s) {
        EngineOptions stage_cfg = cfg;
        stage_cfg.streamLen = lens[s];
        stage_cfg.stageStreamLens.clear();
        stages.push_back(buildStage(mapped[s], backend, stage_cfg, rng));
    }

    // Graph-level buffer plan: stage s writes ping-pong buffer s % 2, so
    // record each parity's high-water row count and stream length —
    // workspaces allocate their arenas once from these and never grow
    // afterwards.
    ExecutionPlan plan;
    plan.streamLen = lens.front();
    plan.stageStreamLens = lens;
    plan.inputElements = mapped.front().in.elements;
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
