/**
 * @file
 * BackendRegistry seams: builtin registrations, the documented error
 * messages of compileNetwork/unknown backends, bit-exactness of the
 * float-ref backend against the float network, and — the acceptance
 * demonstration — a backend registered entirely outside the stage
 * compiler (from this test TU).
 */

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/backend_registry.h"
#include "core/model_zoo.h"
#include "core/sc_engine.h"
#include "data/digits.h"
#include "nn/layers.h"

namespace aqfpsc::core {
namespace {

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

TEST(BackendRegistry, BuiltinBackendsAreRegistered)
{
    const auto names = BackendRegistry::instance().names();
    auto has = [&](const char *n) {
        return std::find(names.begin(), names.end(), n) != names.end();
    };
    EXPECT_TRUE(has("aqfp-sorter"));
    EXPECT_TRUE(has("cmos-apc"));
    EXPECT_TRUE(has("float-ref"));
}

TEST(BackendRegistry, UnknownBackendListsRegisteredNames)
{
    nn::Network net = buildTinyCnn(1);
    EngineOptions cfg;
    cfg.backend = "does-not-exist";
    try {
        ScNetworkEngine engine(net, cfg);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_TRUE(contains(msg, "unknown backend 'does-not-exist'"))
            << msg;
        EXPECT_TRUE(contains(msg, "registered backends:")) << msg;
        EXPECT_TRUE(contains(msg, "aqfp-sorter")) << msg;
        EXPECT_TRUE(contains(msg, "cmos-apc")) << msg;
        EXPECT_TRUE(contains(msg, "float-ref")) << msg;
    }
}

TEST(BackendRegistry, CompilerRejectsUnmappablePatterns)
{
    // Conv without a following activation.
    {
        nn::Network net;
        net.add(std::make_unique<nn::Conv2D>(1, 2, 3, 1));
        net.add(std::make_unique<nn::Dense>(2 * 28 * 28, 10, 2));
        try {
            ScNetworkEngine engine(net, {});
            FAIL() << "expected std::invalid_argument";
        } catch (const std::invalid_argument &e) {
            EXPECT_TRUE(contains(
                e.what(), "Conv2D needs a following activation"))
                << e.what();
        }
    }
    // A bare activation is unmappable (nothing to fuse it into).
    {
        nn::Network net;
        net.add(std::make_unique<nn::HardTanh>());
        net.add(std::make_unique<nn::Dense>(784, 10, 1));
        try {
            ScNetworkEngine engine(net, {});
            FAIL() << "expected std::invalid_argument";
        } catch (const std::invalid_argument &e) {
            EXPECT_TRUE(contains(e.what(), "unmappable layer HardTanh"))
                << e.what();
        }
    }
}

TEST(BackendRegistry, CompilerRejectsLayerShapesThatDoNotChain)
{
    using nn::AvgPool2;
    using nn::Conv2D;
    using nn::Dense;
    using nn::MajorityChainDense;
    using nn::SorterTanh;
    struct Case
    {
        const char *what;
        nn::Network (*build)();
        const char *message;
    };
    const Case cases[] = {
        {"conv channel count",
         [] {
             nn::Network net;
             net.add(std::make_unique<Conv2D>(1, 2, 3, 1));
             net.add(std::make_unique<SorterTanh>());
             net.add(std::make_unique<Conv2D>(64, 2, 3, 2));
             net.add(std::make_unique<SorterTanh>());
             net.add(std::make_unique<MajorityChainDense>(1568, 10, 3));
             return net;
         },
         "layer 2 (Conv3x3x2) expects 64 input channels of HxW "
         "features, but its input has 2x28x28 features"},
        {"dense fan-in",
         [] {
             nn::Network net;
             net.add(std::make_unique<Conv2D>(1, 2, 3, 1));
             net.add(std::make_unique<SorterTanh>());
             net.add(std::make_unique<Dense>(50000, 4, 2));
             return net;
         },
         "layer 2 (FC4) expects 50000 input features, but its "
         "input has 2x28x28 features"},
        {"output fan-in after a dense",
         [] {
             nn::Network net;
             net.add(std::make_unique<Dense>(784, 20, 1));
             net.add(std::make_unique<SorterTanh>());
             net.add(std::make_unique<MajorityChainDense>(21, 10, 2));
             return net;
         },
         "expects 21 input features, but its input has 20 flat features"},
        {"odd pool",
         [] {
             nn::Network net;
             net.add(std::make_unique<Conv2D>(1, 2, 3, 1));
             net.add(std::make_unique<SorterTanh>());
             for (int i = 0; i < 3; ++i)
                 net.add(std::make_unique<AvgPool2>());
             net.add(std::make_unique<MajorityChainDense>(2 * 7 * 7, 10, 2));
             return net;
         },
         "layer 4 (AvgPool2) expects CxHxW features of even H and W, but "
         "its input has 2x7x7 features"},
        {"pool without a spatial input",
         [] {
             nn::Network net;
             net.add(std::make_unique<AvgPool2>());
             net.add(std::make_unique<MajorityChainDense>(196, 10, 2));
             return net;
         },
         "layer 0 (AvgPool2) expects CxHxW features of even H and W, but "
         "its input has no input shape"},
        {"conv after a dense",
         [] {
             nn::Network net;
             net.add(std::make_unique<Dense>(784, 784, 1));
             net.add(std::make_unique<SorterTanh>());
             net.add(std::make_unique<Conv2D>(1, 2, 3, 2));
             net.add(std::make_unique<SorterTanh>());
             net.add(std::make_unique<MajorityChainDense>(1568, 10, 3));
             return net;
         },
         "but its input has 784 flat features"},
        {"channel-less conv after a dense",
         [] {
             nn::Network net;
             net.add(std::make_unique<Dense>(784, 20, 1));
             net.add(std::make_unique<SorterTanh>());
             net.add(std::make_unique<Conv2D>(0, 2, 3, 2));
             net.add(std::make_unique<SorterTanh>());
             net.add(std::make_unique<MajorityChainDense>(20, 10, 3));
             return net;
         },
         "expects 0 input channels of HxW features, but its input has 20 "
         "flat features"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        for (const char *backend : {"aqfp-sorter", "cmos-apc", "float-ref"}) {
            SCOPED_TRACE(backend);
            EngineOptions cfg;
            cfg.backend = backend;
            cfg.streamLen = 64;
            try {
                ScNetworkEngine engine(c.build(), cfg);
                FAIL() << "expected std::invalid_argument";
            } catch (const std::invalid_argument &e) {
                EXPECT_TRUE(contains(e.what(), c.message)) << e.what();
            }
        }
    }

    // Every zoo model still chains on every backend.
    for (const std::string &name : modelNames()) {
        SCOPED_TRACE(name);
        for (const char *backend : {"aqfp-sorter", "cmos-apc", "float-ref"}) {
            EngineOptions cfg;
            cfg.backend = backend;
            cfg.streamLen = 64;
            EXPECT_NO_THROW({
                const ScNetworkEngine engine(buildModel(name, 1), cfg);
            }) << backend;
        }
    }
}

/**
 * The feedback kernel counts at most 4093 products per row (with the
 * bias and a neutral pad, 12 count planes).  A wider hidden Dense or
 * conv window fails to compile on the stream backends, naming the
 * layer; 4093 products and fewer compile, and float-ref compiles every
 * width.
 */
TEST(BackendRegistry, CompilerRejectsFanInTheFeedbackKernelCannotCount)
{
    using nn::Conv2D;
    using nn::Dense;
    using nn::MajorityChainDense;
    using nn::SorterTanh;
    struct Case
    {
        const char *what;
        nn::Network (*build)();
        const char *layer; ///< the refused layer, or nullptr: compiles
    };
    const Case cases[] = {
        {"dense of 4094",
         [] {
             nn::Network net;
             net.add(std::make_unique<Dense>(4094, 4, 1));
             net.add(std::make_unique<SorterTanh>());
             net.add(std::make_unique<MajorityChainDense>(4, 10, 2));
             return net;
         },
         "layer 0 (FC4): "},
        {"3x3 conv of 455 channels (4095 products)",
         [] {
             nn::Network net;
             net.add(std::make_unique<Conv2D>(455, 1, 3, 1));
             net.add(std::make_unique<SorterTanh>());
             net.add(std::make_unique<MajorityChainDense>(784, 10, 2));
             return net;
         },
         "layer 0 (Conv3x3x1): "},
        {"dense of 4093",
         [] {
             nn::Network net;
             net.add(std::make_unique<Dense>(4093, 4, 1));
             net.add(std::make_unique<SorterTanh>());
             net.add(std::make_unique<MajorityChainDense>(4, 10, 2));
             return net;
         },
         nullptr},
        {"3x3 conv of 454 channels (4086 products)",
         [] {
             nn::Network net;
             net.add(std::make_unique<Conv2D>(454, 1, 3, 1));
             net.add(std::make_unique<SorterTanh>());
             net.add(std::make_unique<MajorityChainDense>(784, 10, 2));
             return net;
         },
         nullptr},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        for (const char *backend : {"aqfp-sorter", "cmos-apc", "float-ref"}) {
            SCOPED_TRACE(backend);
            EngineOptions cfg;
            cfg.backend = backend;
            cfg.streamLen = 64;
            if (c.layer == nullptr || std::string(backend) == "float-ref") {
                EXPECT_NO_THROW({
                    const ScNetworkEngine engine(c.build(), cfg);
                });
                continue;
            }
            try {
                ScNetworkEngine engine(c.build(), cfg);
                FAIL() << "expected std::invalid_argument";
            } catch (const std::invalid_argument &e) {
                EXPECT_TRUE(contains(e.what(), c.layer)) << e.what();
                EXPECT_TRUE(contains(e.what(), "4093")) << e.what();
            }
        }
    }
}

/**
 * The acceptance demonstration: a complete backend registered from this
 * TU — no edits to stage_compiler.cc (or any core file).  The backend
 * only serves networks that are a single output layer and scores every
 * class with a constant, which is all the test needs.
 */
class ConstantOutputStage final : public ScStage
{
  public:
    explicit ConstantOutputStage(int classes) : classes_(classes) {}
    std::string name() const override { return "ConstantOutput"; }
    bool terminal() const override { return true; }
    void runCohortSpan(const CohortSlot *slots, std::size_t count,
                       std::size_t, std::size_t) const override
    {
        for (std::size_t i = 0; i < count; ++i) {
            std::vector<double> &scores = slots[i].ctx->scores;
            scores.assign(static_cast<std::size_t>(classes_), 0.0);
            scores[1] = 1.0;
        }
    }

  private:
    int classes_;
};

const OutputStageRegistration kTestBackendOutput{
    "test-constant",
    [](const stages::DenseGeometry &g, WeightedStageInit) {
        return std::make_unique<ConstantOutputStage>(g.outFeatures);
    }};

const BackendTraitsRegistration kTestBackendTraits{
    "test-constant",
    BackendTraits{/*wantsParamStreams=*/false,
                  /*wantsInputStreams=*/false}};

TEST(BackendRegistry, BackendRegisteredOutsideCompilerServesInference)
{
    ASSERT_TRUE(BackendRegistry::instance().has("test-constant"));

    nn::Network net;
    net.add(std::make_unique<nn::Dense>(16, 4, 1));
    EngineOptions cfg;
    cfg.backend = "test-constant";
    const ScNetworkEngine engine(net, cfg);

    nn::Tensor image({1, 4, 4});
    const ScPrediction pred = engine.infer(image);
    EXPECT_EQ(pred.label, 1);
    ASSERT_EQ(pred.scores.size(), 4u);
    EXPECT_EQ(pred.scores[1], 1.0);

    // An incomplete backend fails with the documented message when the
    // network needs a stage kind it never registered.
    nn::Network conv_net;
    conv_net.add(std::make_unique<nn::Conv2D>(1, 2, 3, 1));
    conv_net.add(std::make_unique<nn::HardTanh>());
    conv_net.add(std::make_unique<nn::Dense>(2 * 28 * 28, 10, 2));
    try {
        ScNetworkEngine engine2(conv_net, cfg);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_TRUE(contains(
            e.what(), "backend 'test-constant' registers no conv stage"))
            << e.what();
    }
}

TEST(BackendRegistry, FloatRefMatchesFloatNetworkBitExactly)
{
    nn::Network net = buildTinyCnn(7);
    net.quantizeParams(10);
    EngineOptions cfg;
    cfg.backend = "float-ref";
    const ScNetworkEngine engine(net, cfg);

    const auto samples = data::generateDigits(12, 2026);
    for (const auto &s : samples) {
        const ScPrediction pred = engine.infer(s.image);
        const nn::Tensor scores = net.forward(s.image);
        ASSERT_EQ(pred.scores.size(), scores.size());
        for (std::size_t c = 0; c < scores.size(); ++c) {
            EXPECT_EQ(pred.scores[c], static_cast<double>(scores[c]))
                << "class " << c;
        }
        EXPECT_EQ(pred.label, net.predict(s.image));
    }
}

TEST(BackendRegistry, FloatRefIsDeterministicAcrossEnginesAndIndices)
{
    nn::Network net = buildTinyCnn(5);
    EngineOptions cfg;
    cfg.backend = "float-ref";
    const ScNetworkEngine a(net, cfg);
    const ScNetworkEngine b(net, cfg);
    const auto samples = data::generateDigits(4, 99);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        // No SC randomness: the per-image index cannot change anything.
        const ScPrediction p0 = a.inferIndexed(samples[i].image, 0);
        const ScPrediction pi = a.inferIndexed(samples[i].image, i + 17);
        const ScPrediction q = b.infer(samples[i].image);
        EXPECT_EQ(p0.scores, pi.scores);
        EXPECT_EQ(p0.scores, q.scores);
    }
}

} // namespace
} // namespace aqfpsc::core
