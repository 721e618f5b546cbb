#include "float_ref_stage.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>

#include "nn/layers.h"
#include "nn/tensor.h"

namespace aqfpsc::core::stages {

namespace {

/**
 * Current value-domain activations: the side channel if a previous float
 * stage filled it, otherwise the raw input image (first stage).
 */
std::vector<float>
takeValues(StageContext &ctx, std::size_t expected)
{
    if (!ctx.values.empty()) {
        assert(ctx.values.size() == expected);
        return std::move(ctx.values);
    }
    assert(ctx.image != nullptr && ctx.image->size() == expected);
    std::vector<float> v(expected);
    for (std::size_t i = 0; i < expected; ++i)
        v[i] = (*ctx.image)[i];
    return v;
}

/** Apply the fused activation exactly as the float layers do. */
void
applyActivation(std::vector<float> &v, FusedActivation activation)
{
    switch (activation) {
      case FusedActivation::None:
        break;
      case FusedActivation::HardTanh:
        for (float &x : v)
            x = std::clamp(x, -1.0f, 1.0f);
        break;
      case FusedActivation::SorterTanh:
        for (float &x : v)
            x = std::tanh(nn::SorterTanh::kGain * x);
        break;
    }
}

/** Bipolar-domain majority value, as in nn::MajorityChainDense. */
float
majValue(float a, float x, float y)
{
    return 0.5f * (a + x + y - a * x * y);
}

} // namespace

void
FloatRefStage::runCohortSpan(const CohortSlot *slots, std::size_t count,
                             std::size_t, std::size_t) const
{
    for (const CohortSlot &slot : std::span(slots, count)) {
        forward(*slot.ctx);
        slot.out->reset(0, 0); // value-domain: no streams flow between stages
    }
}

FloatRefConvStage::FloatRefConvStage(const ConvGeometry &geom,
                                     WeightedStageInit init)
    : geom_(geom), w_(init.weights), b_(init.biases),
      activation_(init.activation)
{
}

std::string
FloatRefConvStage::name() const
{
    return "FloatRefConv " + std::to_string(geom_.outC) + "x" +
           std::to_string(geom_.outH) + "x" + std::to_string(geom_.outW) +
           " k" + std::to_string(geom_.kernel);
}

void
FloatRefConvStage::forward(StageContext &ctx) const
{
    const std::vector<float> x = takeValues(
        ctx, static_cast<std::size_t>(geom_.inC) * geom_.inH * geom_.inW);
    std::vector<float> y(static_cast<std::size_t>(geom_.outC) *
                         geom_.outH * geom_.outW);

    // Same accumulation order as nn::Conv2D::forward, so the result is
    // bit-identical to the float network.
    const int k = geom_.kernel;
    const int r = k / 2;
    for (int oc = 0; oc < geom_.outC; ++oc) {
        const float *wbase =
            &w_[static_cast<std::size_t>(oc) * geom_.inC * k * k];
        for (int yy = 0; yy < geom_.outH; ++yy) {
            for (int xx = 0; xx < geom_.outW; ++xx) {
                float acc = b_[static_cast<std::size_t>(oc)];
                for (int ic = 0; ic < geom_.inC; ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int sy = yy + ky - r;
                        if (sy < 0 || sy >= geom_.inH)
                            continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int sx = xx + kx - r;
                            if (sx < 0 || sx >= geom_.inW)
                                continue;
                            acc += wbase[(static_cast<std::size_t>(ic) * k +
                                          ky) * k + kx] *
                                   x[(static_cast<std::size_t>(ic) *
                                          geom_.inH + sy) * geom_.inW + sx];
                        }
                    }
                }
                y[(static_cast<std::size_t>(oc) * geom_.outH + yy) *
                      geom_.outW + xx] = acc;
            }
        }
    }
    applyActivation(y, activation_);
    ctx.values = std::move(y);
}

FloatRefDenseStage::FloatRefDenseStage(const DenseGeometry &geom,
                                       WeightedStageInit init)
    : geom_(geom), w_(init.weights), b_(init.biases),
      activation_(init.activation)
{
}

std::string
FloatRefDenseStage::name() const
{
    return "FloatRefDense " + std::to_string(geom_.inFeatures) + "->" +
           std::to_string(geom_.outFeatures);
}

void
FloatRefDenseStage::forward(StageContext &ctx) const
{
    const std::vector<float> x =
        takeValues(ctx, static_cast<std::size_t>(geom_.inFeatures));
    std::vector<float> y(static_cast<std::size_t>(geom_.outFeatures));
    for (int o = 0; o < geom_.outFeatures; ++o) {
        const float *row = &w_[static_cast<std::size_t>(o) *
                               geom_.inFeatures];
        float acc = b_[static_cast<std::size_t>(o)];
        for (int i = 0; i < geom_.inFeatures; ++i)
            acc += row[i] * x[static_cast<std::size_t>(i)];
        y[static_cast<std::size_t>(o)] = acc;
    }
    applyActivation(y, activation_);
    ctx.values = std::move(y);
}

std::string
FloatRefPoolStage::name() const
{
    return "FloatRefPool " + std::to_string(geom_.channels) + "x" +
           std::to_string(geom_.outH) + "x" + std::to_string(geom_.outW);
}

void
FloatRefPoolStage::forward(StageContext &ctx) const
{
    const std::vector<float> x = takeValues(
        ctx,
        static_cast<std::size_t>(geom_.channels) * geom_.inH * geom_.inW);
    std::vector<float> y(static_cast<std::size_t>(geom_.channels) *
                         geom_.outH * geom_.outW);
    auto in = [&](int c, int yy, int xx) {
        return x[(static_cast<std::size_t>(c) * geom_.inH + yy) *
                     geom_.inW + xx];
    };
    for (int c = 0; c < geom_.channels; ++c) {
        for (int yy = 0; yy < geom_.outH; ++yy) {
            for (int xx = 0; xx < geom_.outW; ++xx) {
                y[(static_cast<std::size_t>(c) * geom_.outH + yy) *
                      geom_.outW + xx] =
                    0.25f * (in(c, 2 * yy, 2 * xx) +
                             in(c, 2 * yy, 2 * xx + 1) +
                             in(c, 2 * yy + 1, 2 * xx) +
                             in(c, 2 * yy + 1, 2 * xx + 1));
            }
        }
    }
    ctx.values = std::move(y);
}

FloatRefOutputStage::FloatRefOutputStage(const DenseGeometry &geom,
                                         WeightedStageInit init)
    : geom_(geom), w_(init.weights), b_(init.biases),
      majorityChain_(init.majorityChainOutput)
{
}

std::string
FloatRefOutputStage::name() const
{
    return std::string("FloatRefOutput ") +
           (majorityChain_ ? "maj-chain " : "linear ") +
           std::to_string(geom_.inFeatures) + "->" +
           std::to_string(geom_.outFeatures);
}

void
FloatRefOutputStage::forward(StageContext &ctx) const
{
    const std::vector<float> x =
        takeValues(ctx, static_cast<std::size_t>(geom_.inFeatures));
    const int in = geom_.inFeatures;
    ctx.scores.assign(static_cast<std::size_t>(geom_.outFeatures), 0.0);
    for (int o = 0; o < geom_.outFeatures; ++o) {
        const float *row = &w_[static_cast<std::size_t>(o) * in];
        float score;
        if (majorityChain_) {
            // Same fold as nn::MajorityChainDense::forward (incl. the
            // trained-in logit gain).
            const int k_total = in + 1; // + bias
            auto product = [&](int j) -> float {
                if (j < in)
                    return row[j] * x[static_cast<std::size_t>(j)];
                if (j == in)
                    return b_[static_cast<std::size_t>(o)];
                return 0.0f; // neutral pad
            };
            float acc = majValue(product(0), product(1), product(2));
            for (int j = 3; j < k_total; j += 2) {
                const float p2 = j + 1 < k_total ? product(j + 1) : 0.0f;
                acc = majValue(acc, product(j), p2);
            }
            score = acc * nn::MajorityChainDense::kLogitGain;
        } else {
            float acc = b_[static_cast<std::size_t>(o)];
            for (int i = 0; i < in; ++i)
                acc += row[i] * x[static_cast<std::size_t>(i)];
            score = acc;
        }
        ctx.scores[static_cast<std::size_t>(o)] =
            static_cast<double>(score);
    }
}

// ---------------------------------------------------------------- registry
// The whole backend registers from this TU: no edits to the stage
// compiler (or anything else in core) are needed to add a backend.
namespace {

const BackendTraitsRegistration kTraits{
    kFloatRefBackend,
    BackendTraits{/*wantsParamStreams=*/false, /*wantsInputStreams=*/false}};

const ConvStageRegistration kConv{
    kFloatRefBackend, [](const ConvGeometry &g, WeightedStageInit init) {
        return std::make_unique<FloatRefConvStage>(g, std::move(init));
    }};

const DenseStageRegistration kDense{
    kFloatRefBackend, [](const DenseGeometry &g, WeightedStageInit init) {
        return std::make_unique<FloatRefDenseStage>(g, std::move(init));
    }};

const PoolStageRegistration kPool{
    kFloatRefBackend, [](const PoolGeometry &g, const EngineOptions &) {
        return std::make_unique<FloatRefPoolStage>(g);
    }};

const OutputStageRegistration kOutput{
    kFloatRefBackend, [](const DenseGeometry &g, WeightedStageInit init) {
        return std::make_unique<FloatRefOutputStage>(g, std::move(init));
    }};

} // namespace

} // namespace aqfpsc::core::stages
