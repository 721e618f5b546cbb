#include "layers.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace aqfpsc::nn {

namespace {

void
initUniform(std::vector<float> &w, float bound, unsigned seed)
{
    std::mt19937 gen(seed);
    std::uniform_real_distribution<float> dist(-bound, bound);
    for (auto &x : w)
        x = dist(gen);
}

/**
 * Size the gradient @p g and momentum @p v of parameters @p w, zeroed,
 * on their first use: a layer built only for inference (loadModel,
 * float-ref's layer copies) then holds one copy of its parameters.
 */
void
armTraining(const std::vector<float> &w, std::vector<float> &g,
            std::vector<float> &v)
{
    g.resize(w.size());
    v.resize(w.size());
}

void
sgdStep(std::vector<float> &w, std::vector<float> &g, std::vector<float> &v,
        float lr, float momentum)
{
    armTraining(w, g, v);
    for (std::size_t i = 0; i < w.size(); ++i) {
        v[i] = momentum * v[i] + g[i];
        w[i] -= lr * v[i];
        // Bipolar SC cannot represent |w| > 1.
        w[i] = std::clamp(w[i], -1.0f, 1.0f);
        g[i] = 0.0f;
    }
}

} // namespace

Conv2D::Conv2D(int in_ch, int out_ch, int kernel, unsigned seed)
    : inCh_(in_ch), outCh_(out_ch), k_(kernel)
{
    assert(kernel % 2 == 1);
    const std::size_t wn = static_cast<std::size_t>(out_ch) * in_ch *
                           kernel * kernel;
    w_.assign(wn, 0.0f);
    b_.assign(static_cast<std::size_t>(out_ch), 0.0f);
    const float bound =
        std::sqrt(2.0f / (static_cast<float>(in_ch) * kernel * kernel));
    initUniform(w_, bound, seed);
}

Tensor
Conv2D::infer(const Tensor &x) const
{
    assert(x.shape().size() == 3 && x.shape()[0] == inCh_);
    const int h = x.shape()[1], wd = x.shape()[2];
    Tensor y({outCh_, h, wd});
    const int r = k_ / 2;
    for (int oc = 0; oc < outCh_; ++oc) {
        const float *wbase = &w_[static_cast<std::size_t>(oc) * inCh_ * k_ *
                                 k_];
        for (int yy = 0; yy < h; ++yy) {
            for (int xx = 0; xx < wd; ++xx) {
                float acc = b_[static_cast<std::size_t>(oc)];
                for (int ic = 0; ic < inCh_; ++ic) {
                    for (int ky = 0; ky < k_; ++ky) {
                        const int sy = yy + ky - r;
                        if (sy < 0 || sy >= h)
                            continue;
                        for (int kx = 0; kx < k_; ++kx) {
                            const int sx = xx + kx - r;
                            if (sx < 0 || sx >= wd)
                                continue;
                            acc += wbase[(static_cast<std::size_t>(ic) * k_ +
                                          ky) * k_ + kx] *
                                   x.at(ic, sy, sx);
                        }
                    }
                }
                y.at(oc, yy, xx) = acc;
            }
        }
    }
    return y;
}

Tensor
Conv2D::forward(const Tensor &x)
{
    lastIn_ = x;
    return infer(x);
}

Tensor
Conv2D::backward(const Tensor &grad_out)
{
    const Tensor &x = lastIn_;
    const int h = x.shape()[1], wd = x.shape()[2];
    const int r = k_ / 2;
    armTraining(w_, gw_, vw_);
    armTraining(b_, gb_, vb_);
    Tensor gx({inCh_, h, wd});
    for (int oc = 0; oc < outCh_; ++oc) {
        float *gwbase = &gw_[static_cast<std::size_t>(oc) * inCh_ * k_ * k_];
        const float *wbase =
            &w_[static_cast<std::size_t>(oc) * inCh_ * k_ * k_];
        for (int yy = 0; yy < h; ++yy) {
            for (int xx = 0; xx < wd; ++xx) {
                // Index flat: upstream layers may hand back a rank-1
                // gradient of the right size (e.g. Dense after flatten).
                const float g = grad_out[(static_cast<std::size_t>(oc) * h +
                                          yy) * wd + xx];
                if (g == 0.0f)
                    continue;
                gb_[static_cast<std::size_t>(oc)] += g;
                for (int ic = 0; ic < inCh_; ++ic) {
                    for (int ky = 0; ky < k_; ++ky) {
                        const int sy = yy + ky - r;
                        if (sy < 0 || sy >= h)
                            continue;
                        for (int kx = 0; kx < k_; ++kx) {
                            const int sx = xx + kx - r;
                            if (sx < 0 || sx >= wd)
                                continue;
                            const std::size_t wi =
                                (static_cast<std::size_t>(ic) * k_ + ky) *
                                    k_ + kx;
                            gwbase[wi] += g * x.at(ic, sy, sx);
                            gx.at(ic, sy, sx) += g * wbase[wi];
                        }
                    }
                }
            }
        }
    }
    return gx;
}

void
Conv2D::update(float lr, float momentum)
{
    sgdStep(w_, gw_, vw_, lr, momentum);
    sgdStep(b_, gb_, vb_, lr, momentum);
}

std::string
Conv2D::name() const
{
    return "Conv" + std::to_string(k_) + "x" + std::to_string(k_) + "x" +
           std::to_string(outCh_);
}

std::vector<std::vector<float> *>
Conv2D::params()
{
    return {&w_, &b_};
}

Tensor
HardTanh::infer(const Tensor &x) const
{
    Tensor y = x;
    for (std::size_t i = 0; i < y.size(); ++i)
        y[i] = std::clamp(y[i], -1.0f, 1.0f);
    return y;
}

Tensor
HardTanh::forward(const Tensor &x)
{
    lastIn_ = x;
    return infer(x);
}

Tensor
HardTanh::backward(const Tensor &grad_out)
{
    Tensor gx = grad_out;
    for (std::size_t i = 0; i < gx.size(); ++i) {
        const float v = lastIn_[i];
        if (v <= -1.0f || v >= 1.0f)
            gx[i] = 0.0f;
    }
    return gx;
}

Tensor
SorterTanh::infer(const Tensor &x) const
{
    Tensor y = x;
    for (std::size_t i = 0; i < y.size(); ++i)
        y[i] = std::tanh(kGain * y[i]);
    return y;
}

Tensor
SorterTanh::forward(const Tensor &x)
{
    lastOut_ = infer(x);
    return lastOut_;
}

Tensor
SorterTanh::backward(const Tensor &grad_out)
{
    Tensor gx = grad_out;
    for (std::size_t i = 0; i < gx.size(); ++i) {
        const float t = lastOut_[i];
        gx[i] *= kGain * (1.0f - t * t);
    }
    return gx;
}

Tensor
AvgPool2::infer(const Tensor &x) const
{
    const int c = x.shape()[0], h = x.shape()[1], wd = x.shape()[2];
    assert(h % 2 == 0 && wd % 2 == 0);
    Tensor y({c, h / 2, wd / 2});
    for (int ch = 0; ch < c; ++ch) {
        for (int yy = 0; yy < h / 2; ++yy) {
            for (int xx = 0; xx < wd / 2; ++xx) {
                y.at(ch, yy, xx) =
                    0.25f * (x.at(ch, 2 * yy, 2 * xx) +
                             x.at(ch, 2 * yy, 2 * xx + 1) +
                             x.at(ch, 2 * yy + 1, 2 * xx) +
                             x.at(ch, 2 * yy + 1, 2 * xx + 1));
            }
        }
    }
    return y;
}

Tensor
AvgPool2::forward(const Tensor &x)
{
    lastShape_ = x.shape();
    return infer(x);
}

Tensor
AvgPool2::backward(const Tensor &grad_out)
{
    Tensor gx(lastShape_);
    const int c = lastShape_[0], h = lastShape_[1], wd = lastShape_[2];
    for (int ch = 0; ch < c; ++ch) {
        for (int yy = 0; yy < h / 2; ++yy) {
            for (int xx = 0; xx < wd / 2; ++xx) {
                // Flat index: tolerate rank-1 gradients from Dense.
                const float g =
                    0.25f * grad_out[(static_cast<std::size_t>(ch) * (h / 2) +
                                      yy) * (wd / 2) + xx];
                gx.at(ch, 2 * yy, 2 * xx) = g;
                gx.at(ch, 2 * yy, 2 * xx + 1) = g;
                gx.at(ch, 2 * yy + 1, 2 * xx) = g;
                gx.at(ch, 2 * yy + 1, 2 * xx + 1) = g;
            }
        }
    }
    return gx;
}

Dense::Dense(int in, int out, unsigned seed) : in_(in), out_(out)
{
    const std::size_t wn = static_cast<std::size_t>(in) * out;
    w_.assign(wn, 0.0f);
    b_.assign(static_cast<std::size_t>(out), 0.0f);
    initUniform(w_, std::sqrt(2.0f / static_cast<float>(in)), seed);
}

Tensor
Dense::infer(const Tensor &x) const
{
    assert(static_cast<int>(x.size()) == in_);
    Tensor y({out_});
    for (int o = 0; o < out_; ++o) {
        const float *row = &w_[static_cast<std::size_t>(o) * in_];
        float acc = b_[static_cast<std::size_t>(o)];
        for (int i = 0; i < in_; ++i)
            acc += row[i] * x[static_cast<std::size_t>(i)];
        y[static_cast<std::size_t>(o)] = acc;
    }
    return y;
}

Tensor
Dense::forward(const Tensor &x)
{
    lastIn_ = x;
    return infer(x);
}

Tensor
Dense::backward(const Tensor &grad_out)
{
    armTraining(w_, gw_, vw_);
    armTraining(b_, gb_, vb_);
    Tensor gx({in_});
    for (int o = 0; o < out_; ++o) {
        const float g = grad_out[static_cast<std::size_t>(o)];
        gb_[static_cast<std::size_t>(o)] += g;
        const float *row = &w_[static_cast<std::size_t>(o) * in_];
        float *grow = &gw_[static_cast<std::size_t>(o) * in_];
        for (int i = 0; i < in_; ++i) {
            grow[i] += g * lastIn_[static_cast<std::size_t>(i)];
            gx[static_cast<std::size_t>(i)] += g * row[i];
        }
    }
    return gx;
}

void
Dense::update(float lr, float momentum)
{
    sgdStep(w_, gw_, vw_, lr, momentum);
    sgdStep(b_, gb_, vb_, lr, momentum);
}

std::string
Dense::name() const
{
    return "FC" + std::to_string(out_);
}

std::vector<std::vector<float> *>
Dense::params()
{
    return {&w_, &b_};
}

namespace {

/** Bipolar-domain majority value: maj(a, x, y) = (a + x + y - axy) / 2. */
float
majValue(float a, float x, float y)
{
    return 0.5f * (a + x + y - a * x * y);
}

} // namespace

MajorityChainDense::MajorityChainDense(int in, int out, unsigned seed)
    : in_(in), out_(out)
{
    const std::size_t wn = static_cast<std::size_t>(in) * out;
    w_.assign(wn, 0.0f);
    b_.assign(static_cast<std::size_t>(out), 0.0f);
    // The chain attenuates early products, so a larger init than a linear
    // layer keeps late-product gradients alive.
    initUniform(w_, 0.5f, seed);
}

float
MajorityChainDense::fold(const Tensor &x, int o,
                         std::vector<float> *partial) const
{
    const int k_total = in_ + 1; // + bias
    const float *row = &w_[static_cast<std::size_t>(o) * in_];
    auto product = [&](int j) -> float {
        if (j < in_)
            return row[j] * x[static_cast<std::size_t>(j)];
        if (j == in_)
            return b_[static_cast<std::size_t>(o)];
        return 0.0f; // neutral pad
    };
    float acc = majValue(product(0), product(1), product(2));
    if (partial != nullptr)
        partial->push_back(acc);
    for (int j = 3; j < k_total; j += 2) {
        const float p2 = j + 1 < k_total ? product(j + 1) : 0.0f;
        acc = majValue(acc, product(j), p2);
        if (partial != nullptr)
            partial->push_back(acc);
    }
    return acc;
}

double
MajorityChainDense::chainValue(const Tensor &x, int o) const
{
    return fold(x, o, nullptr);
}

Tensor
MajorityChainDense::infer(const Tensor &x) const
{
    assert(static_cast<int>(x.size()) == in_);
    Tensor y({out_});
    for (int o = 0; o < out_; ++o)
        y[static_cast<std::size_t>(o)] = fold(x, o, nullptr) * kLogitGain;
    return y;
}

Tensor
MajorityChainDense::forward(const Tensor &x)
{
    lastIn_ = x;
    return infer(x);
}

Tensor
MajorityChainDense::backward(const Tensor &grad_out)
{
    armTraining(w_, gw_, vw_);
    armTraining(b_, gb_, vb_);
    Tensor gx({in_});
    const int k_total = in_ + 1;
    std::vector<float> accs; // each fold stage's value
    for (int o = 0; o < out_; ++o) {
        const float *row = &w_[static_cast<std::size_t>(o) * in_];
        float *grow = &gw_[static_cast<std::size_t>(o) * in_];
        accs.clear();
        fold(lastIn_, o, &accs);
        auto product = [&](int j) -> float {
            if (j < in_)
                return row[j] * lastIn_[static_cast<std::size_t>(j)];
            if (j == in_)
                return b_[static_cast<std::size_t>(o)];
            return 0.0f;
        };
        auto add_product_grad = [&](int j, float dp) {
            if (j < in_) {
                grow[j] += dp * lastIn_[static_cast<std::size_t>(j)];
                gx[static_cast<std::size_t>(j)] += dp * row[j];
            } else if (j == in_) {
                gb_[static_cast<std::size_t>(o)] += dp;
            } // neutral pad has no parameters
        };

        float dacc =
            grad_out[static_cast<std::size_t>(o)] * kLogitGain;
        // Walk the chain stages in reverse.
        int stage = static_cast<int>(accs.size()) - 1;
        for (int j = k_total - (k_total % 2 == 1 ? 2 : 1); j >= 3;
             j -= 2, --stage) {
            // Stage consumed products j, j+1 (j+1 may be the pad).
            const float prev = accs[static_cast<std::size_t>(stage) - 1];
            const float p1 = product(j);
            const float p2 = j + 1 < k_total ? product(j + 1) : 0.0f;
            add_product_grad(j, dacc * 0.5f * (1.0f - prev * p2));
            if (j + 1 < k_total)
                add_product_grad(j + 1, dacc * 0.5f * (1.0f - prev * p1));
            dacc *= 0.5f * (1.0f - p1 * p2);
        }
        // First triple.
        const float p0 = product(0), p1 = product(1), p2 = product(2);
        add_product_grad(0, dacc * 0.5f * (1.0f - p1 * p2));
        add_product_grad(1, dacc * 0.5f * (1.0f - p0 * p2));
        add_product_grad(2, dacc * 0.5f * (1.0f - p0 * p1));
    }
    return gx;
}

void
MajorityChainDense::update(float lr, float momentum)
{
    sgdStep(w_, gw_, vw_, lr, momentum);
    sgdStep(b_, gb_, vb_, lr, momentum);
}

std::string
MajorityChainDense::name() const
{
    return "MajChainFC" + std::to_string(out_);
}

std::vector<std::vector<float> *>
MajorityChainDense::params()
{
    return {&w_, &b_};
}

std::unique_ptr<Layer>
makeLayer(const LayerSpec &spec)
{
    switch (spec.kind) {
      case LayerSpec::Kind::Conv2D:
        if (spec.p0 <= 0 || spec.p1 <= 0 || spec.p2 <= 0 ||
            spec.p2 % 2 == 0)
            throw std::invalid_argument(
                "makeLayer: bad Conv2D spec (channels > 0, odd kernel)");
        return std::make_unique<Conv2D>(spec.p0, spec.p1, spec.p2, 0u);
      case LayerSpec::Kind::HardTanh:
        return std::make_unique<HardTanh>();
      case LayerSpec::Kind::SorterTanh:
        return std::make_unique<SorterTanh>();
      case LayerSpec::Kind::AvgPool2:
        return std::make_unique<AvgPool2>();
      case LayerSpec::Kind::Dense:
        if (spec.p0 <= 0 || spec.p1 <= 0)
            throw std::invalid_argument(
                "makeLayer: bad Dense spec (features must be > 0)");
        return std::make_unique<Dense>(spec.p0, spec.p1, 0u);
      case LayerSpec::Kind::MajorityChainDense:
        if (spec.p0 <= 0 || spec.p1 <= 0)
            throw std::invalid_argument(
                "makeLayer: bad MajorityChainDense spec (features must "
                "be > 0)");
        return std::make_unique<MajorityChainDense>(spec.p0, spec.p1, 0u);
    }
    throw std::invalid_argument(
        "makeLayer: unknown layer kind " +
        std::to_string(static_cast<int>(spec.kind)));
}

} // namespace aqfpsc::nn
