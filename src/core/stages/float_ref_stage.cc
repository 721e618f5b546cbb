#include "float_ref_stage.h"

#include <cassert>
#include <span>
#include <variant>

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

/** "FloatRef<kind> <shape>"; an output stage names its layer's fold. */
std::string
stageName(const MappedStage &m)
{
    std::string name = "FloatRef";
    switch (m.kind) {
      case StageKind::Conv:
        name += "Conv ";
        break;
      case StageKind::Dense:
        name += "Dense ";
        break;
      case StageKind::Pool:
        name += "Pool ";
        break;
      case StageKind::Output:
        name += m.layer->spec().kind == nn::LayerSpec::Kind::MajorityChainDense
                    ? "Output maj-chain "
                    : "Output linear ";
        break;
    }
    return name + std::visit([](const auto &g) { return shapeName(g); },
                             m.geometry);
}

} // namespace

std::unique_ptr<ScStage>
makeFloatRefStage(const MappedStage &m, std::shared_ptr<const StageShared>,
                  const EngineOptions &)
{
    std::vector<std::unique_ptr<nn::Layer>> layers;
    layers.push_back(copyLayer(*m.layer));
    if (m.activation != nullptr)
        layers.push_back(copyLayer(*m.activation));
    return std::make_unique<FloatRefStage>(stageName(m),
                                           m.kind == StageKind::Output,
                                           tensorShape(m.in),
                                           std::move(layers));
}

} // namespace aqfpsc::core::stages
