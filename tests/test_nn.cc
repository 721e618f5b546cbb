/**
 * @file
 * Unit tests for the DNN substrate: tensors, layer forward/backward
 * (numeric gradient checks), training convergence, serialization and
 * quantization.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/network.h"
#include "nn/tensor.h"

namespace aqfpsc::nn {
namespace {

TEST(Tensor, ShapeAndAccess)
{
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.size(), 24u);
    t.at(1, 2, 3) = 5.0f;
    EXPECT_FLOAT_EQ(t.at(1, 2, 3), 5.0f);
    EXPECT_FLOAT_EQ(t[23], 5.0f);
    EXPECT_FLOAT_EQ(t.at(0, 0, 0), 0.0f);
}

TEST(Conv2D, HandComputedCase)
{
    // 1x3x3 input, 1 output channel, 3x3 kernel, same padding: the
    // centre output is the full correlation sum.
    Conv2D conv(1, 1, 3, 1);
    auto params = conv.params();
    std::vector<float> &w = *params[0];
    std::vector<float> &b = *params[1];
    for (std::size_t i = 0; i < 9; ++i)
        w[i] = static_cast<float>(i + 1) * 0.01f;
    b[0] = 0.5f;

    Tensor x({1, 3, 3});
    for (int i = 0; i < 9; ++i)
        x[static_cast<std::size_t>(i)] = static_cast<float>(i);

    const Tensor y = conv.forward(x);
    ASSERT_EQ(y.shape(), (std::vector<int>{1, 3, 3}));
    float expect_centre = 0.5f;
    for (int i = 0; i < 9; ++i)
        expect_centre += w[static_cast<std::size_t>(i)] *
                         x[static_cast<std::size_t>(i)];
    EXPECT_NEAR(y.at(0, 1, 1), expect_centre, 1e-5);
    // Corner output only sees the 2x2 overlap.
    float expect_corner = 0.5f;
    for (int ky = 1; ky < 3; ++ky)
        for (int kx = 1; kx < 3; ++kx)
            expect_corner += w[static_cast<std::size_t>(ky * 3 + kx)] *
                             x.at(0, ky - 1, kx - 1);
    EXPECT_NEAR(y.at(0, 0, 0), expect_corner, 1e-5);
}

/**
 * Numeric gradient check: perturb each input element and compare the
 * finite difference of a scalar loss (sum of outputs weighted by a fixed
 * random mask) against the layer's backward pass.
 */
void
gradientCheck(Layer &layer, Tensor x, double tol)
{
    const Tensor y0 = layer.forward(x);
    // Loss = sum_i mask_i * y_i with a deterministic mask.
    Tensor mask({static_cast<int>(y0.size())});
    for (std::size_t i = 0; i < y0.size(); ++i)
        mask[i] = 0.1f + 0.03f * static_cast<float>(i % 7);

    Tensor grad_in = layer.backward(mask);
    ASSERT_EQ(grad_in.size(), x.size());

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < x.size(); i += 7) { // sample positions
        Tensor xp = x;
        xp[i] += eps;
        const Tensor yp = layer.forward(xp);
        Tensor xm = x;
        xm[i] -= eps;
        const Tensor ym = layer.forward(xm);
        double fd = 0.0;
        for (std::size_t j = 0; j < yp.size(); ++j)
            fd += mask[j] * (yp[j] - ym[j]);
        fd /= 2.0 * eps;
        EXPECT_NEAR(grad_in[i], fd, tol) << "element " << i;
    }
}

TEST(Conv2D, GradientCheck)
{
    Conv2D conv(2, 3, 3, 7);
    Tensor x({2, 5, 5});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 0.1f * static_cast<float>(static_cast<int>(i % 11) - 5);
    gradientCheck(conv, x, 1e-2);
}

TEST(Dense, GradientCheck)
{
    Dense fc(12, 5, 3);
    Tensor x({12});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 0.05f * static_cast<float>(static_cast<int>(i) - 6);
    gradientCheck(fc, x, 1e-3);
}

TEST(AvgPool2, GradientCheck)
{
    AvgPool2 pool;
    Tensor x({2, 4, 4});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 0.02f * static_cast<float>(i);
    gradientCheck(pool, x, 1e-4);
}

TEST(HardTanh, ForwardClips)
{
    HardTanh act;
    Tensor x({4});
    x[0] = -2.0f;
    x[1] = -0.5f;
    x[2] = 0.5f;
    x[3] = 3.0f;
    const Tensor y = act.forward(x);
    EXPECT_FLOAT_EQ(y[0], -1.0f);
    EXPECT_FLOAT_EQ(y[1], -0.5f);
    EXPECT_FLOAT_EQ(y[2], 0.5f);
    EXPECT_FLOAT_EQ(y[3], 1.0f);
}

TEST(HardTanh, GradientMasksSaturation)
{
    HardTanh act;
    Tensor x({3});
    x[0] = -2.0f;
    x[1] = 0.3f;
    x[2] = 1.5f;
    act.forward(x);
    Tensor g({3});
    g[0] = g[1] = g[2] = 1.0f;
    const Tensor gx = act.backward(g);
    EXPECT_FLOAT_EQ(gx[0], 0.0f);
    EXPECT_FLOAT_EQ(gx[1], 1.0f);
    EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(SorterTanh, ForwardMatchesTanh)
{
    SorterTanh act;
    Tensor x({3});
    x[0] = -2.0f;
    x[1] = 0.0f;
    x[2] = 1.0f;
    const Tensor y = act.forward(x);
    EXPECT_NEAR(y[0], std::tanh(-1.6), 1e-6);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_NEAR(y[2], std::tanh(0.8), 1e-6);
}

TEST(SorterTanh, GradientCheck)
{
    SorterTanh act;
    Tensor x({8});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 0.4f * static_cast<float>(static_cast<int>(i) - 4);
    gradientCheck(act, x, 1e-3);
}

TEST(MajorityChainDense, ChainValueMatchesExplicitFold)
{
    MajorityChainDense chain(5, 1, 17);
    Tensor x({5});
    for (int i = 0; i < 5; ++i)
        x[static_cast<std::size_t>(i)] = 0.2f * (i - 2);
    // Explicit fold: products u0..u4, bias; k_total = 6 (even) -> one
    // neutral pad.
    const auto &w = chain.weights();
    const float b = chain.biases()[0];
    auto maj = [](double a, double p, double q) {
        return 0.5 * (a + p + q - a * p * q);
    };
    std::vector<double> u(7, 0.0);
    for (int i = 0; i < 5; ++i)
        u[static_cast<std::size_t>(i)] =
            w[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
    u[5] = b;
    u[6] = 0.0; // pad
    double acc = maj(u[0], u[1], u[2]);
    acc = maj(acc, u[3], u[4]);
    acc = maj(acc, u[5], u[6]);
    EXPECT_NEAR(chain.chainValue(x, 0), acc, 1e-6);
    const Tensor y = chain.forward(x);
    EXPECT_NEAR(y[0], acc * MajorityChainDense::kLogitGain, 1e-5);
}

TEST(MajorityChainDense, GradientCheck)
{
    MajorityChainDense chain(9, 4, 23);
    Tensor x({9});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 0.15f * static_cast<float>(static_cast<int>(i) - 4);
    gradientCheck(chain, x, 2e-2);
}

TEST(MajorityChainDense, LateInputsDominate)
{
    // The chain halves earlier contributions at every stage; verify the
    // documented exponential attenuation.
    MajorityChainDense chain(21, 1, 31);
    Tensor x({21});
    const double base = chain.chainValue(x, 0); // all-zero inputs
    Tensor x_early = x, x_late = x;
    x_early[0] = 1.0f;
    x_late[20] = 1.0f;
    const double d_early =
        std::abs(chain.chainValue(x_early, 0) - base);
    const double d_late = std::abs(chain.chainValue(x_late, 0) - base);
    EXPECT_GT(d_late, 4.0 * d_early);
}

TEST(AvgPool2, Forward)
{
    AvgPool2 pool;
    Tensor x({1, 2, 2});
    x[0] = 1.0f;
    x[1] = 2.0f;
    x[2] = 3.0f;
    x[3] = 6.0f;
    const Tensor y = pool.forward(x);
    ASSERT_EQ(y.size(), 1u);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(Dense, WeightsClampedAfterUpdate)
{
    Dense fc(2, 1, 5);
    Tensor x({2});
    x[0] = 10.0f;
    x[1] = -10.0f;
    for (int i = 0; i < 50; ++i) {
        fc.forward(x);
        Tensor g({1});
        g[0] = -5.0f; // large gradient pushing weights out of range
        fc.backward(g);
        fc.update(1.0f, 0.0f);
    }
    for (float w : fc.weights())
        EXPECT_LE(std::abs(w), 1.0f);
}

/**
 * The gradient and momentum buffers are sized on first use, so update()
 * before any backward() steps with zero gradients: the parameters only
 * clamp to [-1, 1], for every trainable layer kind.
 */
TEST(Layers, UpdateBeforeBackwardOnlyClampsTheParameters)
{
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<Conv2D>(1, 2, 3, 1));
    layers.push_back(std::make_unique<Dense>(3, 2, 1));
    layers.push_back(std::make_unique<MajorityChainDense>(3, 2, 1));
    for (const auto &layer : layers) {
        SCOPED_TRACE(layer->name());
        std::vector<std::vector<float>> expect;
        for (std::vector<float> *p : layer->params()) {
            const float pattern[] = {1.5f, -2.0f, 0.25f, -0.0f, -1.0f};
            for (std::size_t i = 0; i < p->size(); ++i)
                (*p)[i] = pattern[i % 5];
            expect.push_back(*p);
            for (float &v : expect.back())
                v = std::clamp(v, -1.0f, 1.0f);
        }
        layer->update(0.5f, 0.9f);
        std::size_t i = 0;
        for (const std::vector<float> *p : layer->params())
            EXPECT_EQ(*p, expect[i++]);
    }
}

/**
 * Network::forward is inference: called between a layer's forward() and
 * backward(), it must leave the cached input, and so the update, alone.
 */
TEST(Network, InferenceBetweenForwardAndBackwardLeavesTheUpdate)
{
    Tensor a({4}), b({4}), g({2});
    for (std::size_t i = 0; i < 4; ++i) {
        a[i] = 0.2f * static_cast<float>(i) - 0.3f;
        b[i] = 0.9f - 0.4f * static_cast<float>(i);
    }
    g[0] = 1.0f;
    g[1] = -0.5f;
    auto train_step = [&](bool infer_between) {
        Network net;
        net.add(std::make_unique<Dense>(4, 2, 5));
        net.layer(0).forward(a);
        if (infer_between)
            net.forward(b);
        net.layer(0).backward(g);
        net.layer(0).update(0.1f, 0.0f);
        return dynamic_cast<const Dense &>(net.layer(0)).weights();
    };
    EXPECT_EQ(train_step(true), train_step(false));
}

TEST(Network, TrainsOnLinearlySeparableTask)
{
    // Tiny 2-class problem on 1x4x4 images: class = brightest half.
    Network net;
    net.add(std::make_unique<Dense>(16, 8, 11));
    net.add(std::make_unique<HardTanh>());
    net.add(std::make_unique<Dense>(8, 2, 12));

    std::vector<Sample> samples;
    for (int i = 0; i < 200; ++i) {
        Sample s;
        s.image = Tensor({1, 4, 4});
        s.label = i % 2;
        for (int p = 0; p < 16; ++p) {
            const bool top = p < 8;
            const float base = (s.label == 0) == top ? 0.6f : -0.6f;
            s.image[static_cast<std::size_t>(p)] =
                base + 0.05f * static_cast<float>((i * 7 + p) % 5 - 2);
        }
        samples.push_back(std::move(s));
    }
    TrainConfig cfg;
    cfg.epochs = 20;
    cfg.learningRate = 0.1f;
    net.train(samples, cfg);
    EXPECT_GT(net.evaluate(samples), 0.95);
}

TEST(Network, SaveLoadRoundTrip)
{
    Network a;
    a.add(std::make_unique<Dense>(4, 3, 21));
    a.add(std::make_unique<HardTanh>());
    a.add(std::make_unique<Dense>(3, 2, 22));

    const std::string path = "/tmp/aqfpsc_weights_test.bin";
    ASSERT_TRUE(a.saveWeights(path));

    Network b;
    b.add(std::make_unique<Dense>(4, 3, 99));
    b.add(std::make_unique<HardTanh>());
    b.add(std::make_unique<Dense>(3, 2, 98));
    ASSERT_TRUE(b.loadWeights(path));

    Tensor x({4});
    x[0] = 0.3f;
    x[1] = -0.2f;
    x[2] = 0.9f;
    x[3] = -0.7f;
    const Tensor ya = a.forward(x);
    const Tensor yb = b.forward(x);
    for (std::size_t i = 0; i < ya.size(); ++i)
        EXPECT_FLOAT_EQ(ya[i], yb[i]);
    std::remove(path.c_str());
}

TEST(Network, LoadRejectsWrongShape)
{
    Network a;
    a.add(std::make_unique<Dense>(4, 3, 21));
    const std::string path = "/tmp/aqfpsc_weights_bad.bin";
    ASSERT_TRUE(a.saveWeights(path));
    Network b;
    b.add(std::make_unique<Dense>(5, 3, 21));
    EXPECT_FALSE(b.loadWeights(path));
    std::remove(path.c_str());
}

TEST(Network, QuantizeSnapsToGrid)
{
    Network net;
    net.add(std::make_unique<Dense>(4, 4, 31));
    net.quantizeParams(4); // coarse 4-bit grid: step 1/8
    const auto *fc = dynamic_cast<const Dense *>(&net.layer(0));
    ASSERT_NE(fc, nullptr);
    for (float w : fc->weights()) {
        const float steps = (w + 1.0f) * 8.0f;
        EXPECT_NEAR(steps, std::round(steps), 1e-4) << w;
    }
}

TEST(Network, QuantizeRejectsWidthsOutsideTheCodeGrid)
{
    Network net;
    net.add(std::make_unique<Dense>(4, 4, 31));
    const auto *fc = dynamic_cast<const Dense *>(&net.layer(0));
    ASSERT_NE(fc, nullptr);
    const std::vector<float> before = fc->weights();
    for (const int bits : {0, -1, 21, 31, 40}) {
        SCOPED_TRACE(bits);
        EXPECT_THROW(net.quantizeParams(bits), std::invalid_argument);
        EXPECT_EQ(fc->weights(), before);
        EXPECT_EQ(net.quantBits(), 0);
    }
    for (const int bits : {Network::kMinQuantBits, Network::kMaxQuantBits}) {
        net.quantizeParams(bits);
        EXPECT_EQ(net.quantBits(), bits);
    }
}

TEST(Network, Describe)
{
    Network net;
    net.add(std::make_unique<Conv2D>(1, 8, 3, 1));
    net.add(std::make_unique<HardTanh>());
    net.add(std::make_unique<Dense>(10, 5, 2));
    EXPECT_EQ(net.describe(), "Conv3x3x8-HardTanh-FC5");
}

TEST(Softmax, SumsToOneAndOrders)
{
    Tensor scores({3});
    scores[0] = 1.0f;
    scores[1] = 3.0f;
    scores[2] = -2.0f;
    const auto p = softmax(scores);
    EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-9);
    EXPECT_GT(p[1], p[0]);
    EXPECT_GT(p[0], p[2]);
}

} // namespace
} // namespace aqfpsc::nn
