/**
 * @file
 * Neural-network layers with forward/backward passes.
 *
 * The layer set mirrors what the AQFP-SC hardware can realize
 * (Table 8 of the paper):
 *
 *  - Conv2D, same padding, stride 1 -- mapped to sorter-based feature
 *    extraction blocks (one per output pixel/channel);
 *  - HardTanh (clip to [-1, 1]) -- the activation the sorter block
 *    integrates (value-domain equivalent of the shifted clipped ReLU of
 *    Fig. 13), so it is trained-in exactly as Sec. 5.2 of the paper
 *    prescribes ("trained with taking all limitations of AQFP and SC
 *    into considerations");
 *  - AvgPool 2x2 stride 2 -- mapped to sorter-based pooling blocks;
 *  - Dense -- mapped to feature-extraction blocks (hidden FCs) or the
 *    majority-chain categorization block (output layer).
 *
 * Weights are clamped to [-1, 1] after every update, since bipolar SC
 * cannot represent values outside that range.
 *
 * Every layer has two forward entry points.  infer() is the arithmetic
 * alone: const, it writes nothing, so any number of threads may run one
 * layer at once (nn::Network::forward, the "float-ref" backend).
 * forward() is the training pass: it stores what backward() needs and
 * returns infer(x), so both give bit-identical outputs.
 */

#ifndef AQFPSC_NN_LAYERS_H
#define AQFPSC_NN_LAYERS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor.h"

namespace aqfpsc::nn {

class Rng;

/**
 * Serializable layer identity: a kind tag plus the shape parameters
 * needed to reconstruct the layer (weights travel separately).  The kind
 * values are part of the model-file format — never renumber them.
 */
struct LayerSpec
{
    enum class Kind : std::uint8_t
    {
        Conv2D = 1,
        HardTanh = 2,
        SorterTanh = 3,
        AvgPool2 = 4,
        Dense = 5,
        MajorityChainDense = 6,
    };

    Kind kind = Kind::HardTanh;
    int p0 = 0; ///< Conv2D: in channels;  Dense/chain: in features
    int p1 = 0; ///< Conv2D: out channels; Dense/chain: out features
    int p2 = 0; ///< Conv2D: kernel size
};

/** Reconstruct an untrained layer from its spec.
 *  @throws std::invalid_argument on an unknown kind or bad shape. */
std::unique_ptr<class Layer> makeLayer(const LayerSpec &spec);

/** Abstract layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Forward arithmetic without training caches; thread-safe. */
    virtual Tensor infer(const Tensor &x) const = 0;

    /** Training forward pass: caches what backward() needs, then
     *  returns infer(x). */
    virtual Tensor forward(const Tensor &x) = 0;

    /** Backward pass: dL/dx from dL/dy; accumulates parameter grads. */
    virtual Tensor backward(const Tensor &grad_out) = 0;

    /** SGD + momentum update; clears gradients. No-op if parameter-free. */
    virtual void update(float lr, float momentum) { (void)lr; (void)momentum; }

    /** Layer name for reports. */
    virtual std::string name() const = 0;

    /** Serializable identity (kind + shape) for model files. */
    virtual LayerSpec spec() const = 0;

    /** Parameter arrays (weights then biases), for quantization / IO. */
    virtual std::vector<std::vector<float> *> params() { return {}; }

    /** Read-only params(), for reading or copying a const layer. */
    std::vector<const std::vector<float> *> params() const
    {
        const auto p = const_cast<Layer *>(this)->params();
        return {p.begin(), p.end()};
    }
};

/** 2-D convolution, same padding, stride 1, square odd kernel. */
class Conv2D : public Layer
{
  public:
    /**
     * @param in_ch Input channels.
     * @param out_ch Output channels.
     * @param kernel Odd kernel size (3, 5, 7, 9).
     * @param seed Weight-init seed.
     */
    Conv2D(int in_ch, int out_ch, int kernel, unsigned seed);

    Tensor infer(const Tensor &x) const override;
    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &grad_out) override;
    void update(float lr, float momentum) override;
    std::string name() const override;
    LayerSpec spec() const override
    {
        return {LayerSpec::Kind::Conv2D, inCh_, outCh_, k_};
    }
    std::vector<std::vector<float> *> params() override;

    int inChannels() const { return inCh_; }
    int outChannels() const { return outCh_; }
    int kernel() const { return k_; }
    const std::vector<float> &weights() const { return w_; }
    const std::vector<float> &biases() const { return b_; }

  private:
    int inCh_, outCh_, k_;
    std::vector<float> w_;  ///< [out_ch][in_ch][k][k]
    std::vector<float> b_;  ///< [out_ch]
    /** Gradients and momenta, sized on the first backward()/update(). */
    std::vector<float> gw_, gb_, vw_, vb_;
    Tensor lastIn_;
};

/** Hard tanh: clip(x, -1, 1); the idealized SC activation (Eq. (1)). */
class HardTanh : public Layer
{
  public:
    Tensor infer(const Tensor &x) const override;
    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "HardTanh"; }
    LayerSpec spec() const override { return {LayerSpec::Kind::HardTanh}; }

  private:
    Tensor lastIn_;
};

/**
 * The *measured* response of the sorter-based feature-extraction block.
 *
 * The block's bounded carry softens the clip corners of the ideal
 * hard-tanh; across input sizes 9..393 the measured value transfer
 * curve is fitted to within ~0.05 by tanh(0.8 z) (see
 * bench_fig13_activation_shape).  Training with this surrogate is the
 * "taking all limitations of AQFP and SC into considerations" step of
 * the paper (Sec. 5.2): networks trained with SorterTanh lose almost
 * nothing when executed on the real SC blocks, while hard-tanh-trained
 * networks see the corner mismatch as noise.
 */
class SorterTanh : public Layer
{
  public:
    /** Gain of the fitted tanh response. */
    static constexpr float kGain = 0.8f;

    Tensor infer(const Tensor &x) const override;
    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "ScTanh"; }
    LayerSpec spec() const override
    {
        return {LayerSpec::Kind::SorterTanh};
    }

  private:
    Tensor lastOut_;
};

/** 2x2 average pooling, stride 2 (input H, W must be even). */
class AvgPool2 : public Layer
{
  public:
    Tensor infer(const Tensor &x) const override;
    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "AvgPool2"; }
    LayerSpec spec() const override { return {LayerSpec::Kind::AvgPool2}; }

  private:
    std::vector<int> lastShape_;
};

/** Fully connected layer on a flattened input. */
class Dense : public Layer
{
  public:
    Dense(int in, int out, unsigned seed);

    Tensor infer(const Tensor &x) const override;
    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &grad_out) override;
    void update(float lr, float momentum) override;
    std::string name() const override;
    LayerSpec spec() const override
    {
        return {LayerSpec::Kind::Dense, in_, out_, 0};
    }
    std::vector<std::vector<float> *> params() override;

    int inFeatures() const { return in_; }
    int outFeatures() const { return out_; }
    const std::vector<float> &weights() const { return w_; }
    const std::vector<float> &biases() const { return b_; }

  private:
    int in_, out_;
    std::vector<float> w_; ///< [out][in]
    std::vector<float> b_;
    /** Gradients and momenta, sized on the first backward()/update(). */
    std::vector<float> gw_, gb_, vw_, vb_;
    Tensor lastIn_;
};

/**
 * Output layer trained through the AQFP majority-chain semantics.
 *
 * The hardware categorization block folds Maj3 gates over the product
 * streams (Sec. 4.4).  In the bipolar value domain a majority gate obeys
 * maj(a, x, y) = (a + x + y - a*x*y) / 2, so the chain's expected output
 * follows an exact, differentiable recursion over the per-product values
 * u_j = w_j * x_j -- note the /2 per stage: the chain *attenuates* early
 * inputs exponentially, which is why a final layer must be trained
 * through the chain for the categorization block to rank classes
 * correctly (the paper: "trained with taking all limitations of AQFP and
 * SC into considerations").
 *
 * Product order matches core::ScNetworkEngine exactly: inputs 0..in-1,
 * then the bias (one more product), then a neutral zero-value pad when
 * the total count is even.  Returned scores are the chain values scaled
 * by a fixed logit gain (monotone, so rankings are unaffected).
 */
class MajorityChainDense : public Layer
{
  public:
    MajorityChainDense(int in, int out, unsigned seed);

    Tensor infer(const Tensor &x) const override;
    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &grad_out) override;
    void update(float lr, float momentum) override;
    std::string name() const override;
    LayerSpec spec() const override
    {
        return {LayerSpec::Kind::MajorityChainDense, in_, out_, 0};
    }
    std::vector<std::vector<float> *> params() override;

    int inFeatures() const { return in_; }
    int outFeatures() const { return out_; }
    const std::vector<float> &weights() const { return w_; }
    const std::vector<float> &biases() const { return b_; }

    /** Chain value of one output on raw input values (no logit gain). */
    double chainValue(const Tensor &x, int o) const;

    /** Fixed gain applied to chain values to form trainable logits. */
    static constexpr float kLogitGain = 8.0f;

  private:
    /**
     * The chain fold of output @p o over @p x (no logit gain): the one
     * copy of the recursion, behind infer(), chainValue() and
     * backward().  With @p partial, appends each fold stage's value.
     */
    float fold(const Tensor &x, int o, std::vector<float> *partial) const;

    int in_, out_;
    std::vector<float> w_; ///< [out][in]
    std::vector<float> b_;
    /** Gradients and momenta, sized on the first backward()/update(). */
    std::vector<float> gw_, gb_, vw_, vb_;
    Tensor lastIn_;
};

} // namespace aqfpsc::nn

#endif // AQFPSC_NN_LAYERS_H
