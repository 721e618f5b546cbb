#include "float_ref_stage.h"

#include <cassert>
#include <span>

#include "core/backend_registry.h"
#include "core/stages/stage_compiler.h"
#include "nn/tensor.h"

namespace aqfpsc::core::stages {

FloatRefStage::FloatRefStage(std::string name, bool terminal,
                             std::vector<int> in_shape,
                             std::vector<std::unique_ptr<nn::Layer>> layers)
    : name_(std::move(name)), terminal_(terminal),
      inShape_(std::move(in_shape)), layers_(std::move(layers))
{
}

void
FloatRefStage::runCohortSpan(const CohortSlot *slots, std::size_t count,
                             std::size_t, std::size_t) const
{
    for (const CohortSlot &slot : std::span(slots, count)) {
        StageContext &ctx = *slot.ctx;
        // The previous stage's activations, or the image (first stage).
        nn::Tensor x(inShape_);
        if (ctx.values.empty()) {
            assert(ctx.image != nullptr && ctx.image->size() == x.size());
            x.vec() = ctx.image->vec();
        } else {
            assert(ctx.values.size() == x.size());
            x.vec() = std::move(ctx.values);
        }
        for (const auto &layer : layers_)
            x = layer->infer(x);
        if (terminal_)
            ctx.scores.assign(x.vec().begin(), x.vec().end());
        else
            ctx.values = std::move(x.vec());
        slot.out->reset(0, 0); // value-domain: no streams flow between stages
    }
}

// ---------------------------------------------------------------- registry
// The whole backend registers from this TU: no edits to the stage
// compiler (or anything else in core) are needed to add a backend.
namespace {

/** A copy of @p layer: a fresh layer of its spec holding its parameters. */
std::unique_ptr<nn::Layer>
copyLayer(const nn::Layer &layer)
{
    std::unique_ptr<nn::Layer> copy = nn::makeLayer(layer.spec());
    const auto from = layer.params();
    const auto to = copy->params();
    for (std::size_t i = 0; i < to.size(); ++i)
        *to[i] = *from[i];
    return copy;
}

std::vector<int>
tensorShape(const nn::FeatureShape &s)
{
    if (s.h == 0)
        return {static_cast<int>(s.elements)};
    return {s.c, s.h, s.w};
}

/** The stage running @p m's source layer and fused activation. */
std::unique_ptr<ScStage>
mappedStage(std::string name, const MappedStage &m)
{
    std::vector<std::unique_ptr<nn::Layer>> layers;
    layers.push_back(copyLayer(*m.layer));
    if (m.activation != nullptr)
        layers.push_back(copyLayer(*m.activation));
    return std::make_unique<FloatRefStage>(std::move(name),
                                           m.kind == StageKind::Output,
                                           tensorShape(m.in),
                                           std::move(layers));
}

const BackendTraitsRegistration kTraits{
    kFloatRefBackend,
    BackendTraits{/*wantsParamStreams=*/false, /*wantsInputStreams=*/false}};

const ConvStageRegistration kConv{
    kFloatRefBackend, [](const ConvGeometry &g, WeightedStageInit init) {
        return mappedStage("FloatRefConv " + std::to_string(g.outC) + "x" +
                               std::to_string(g.outH) + "x" +
                               std::to_string(g.outW) + " k" +
                               std::to_string(g.kernel),
                           init.mapped);
    }};

const DenseStageRegistration kDense{
    kFloatRefBackend, [](const DenseGeometry &g, WeightedStageInit init) {
        return mappedStage("FloatRefDense " + std::to_string(g.inFeatures) +
                               "->" + std::to_string(g.outFeatures),
                           init.mapped);
    }};

const PoolStageRegistration kPool{
    kFloatRefBackend, [](const PoolGeometry &g, const EngineOptions &) {
        std::vector<std::unique_ptr<nn::Layer>> layers;
        layers.push_back(std::make_unique<nn::AvgPool2>());
        return std::make_unique<FloatRefStage>(
            "FloatRefPool " + std::to_string(g.channels) + "x" +
                std::to_string(g.outH) + "x" + std::to_string(g.outW),
            false, std::vector<int>{g.channels, g.inH, g.inW},
            std::move(layers));
    }};

const OutputStageRegistration kOutput{
    kFloatRefBackend, [](const DenseGeometry &g, WeightedStageInit init) {
        const bool chain = init.mapped.layer->spec().kind ==
                           nn::LayerSpec::Kind::MajorityChainDense;
        return mappedStage(std::string("FloatRefOutput ") +
                               (chain ? "maj-chain " : "linear ") +
                               std::to_string(g.inFeatures) + "->" +
                               std::to_string(g.outFeatures),
                           init.mapped);
    }};

} // namespace

} // namespace aqfpsc::core::stages
