/**
 * @file
 * BackendRegistry seams: builtin registrations, the add() contract, the
 * documented error messages of compileNetwork/unknown backends, the
 * stage names of the builtins, bit-exactness of the float-ref backend
 * against the float network, and a backend registered entirely outside
 * the stage compiler (from this test TU).
 */

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend_registry.h"
#include "core/model_zoo.h"
#include "core/sc_engine.h"
#include "core/stages/stage.h"
#include "core/stages/stage_compiler.h"
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
 * Every stage name of the zoo models on the builtin backends at N = 64.
 * The repository benchmark derives its per-layer metric keys from these
 * names, so a rename must show up here.
 */
TEST(BackendRegistry, BuiltinStageNamesArePinned)
{
    struct Case
    {
        const char *model;
        const char *backend;
        std::vector<std::string> names;
    };
    const Case cases[] = {
        {"tiny", "aqfp-sorter",
         {"AqfpConv 8x28x28 k3", "AqfpPool 8x14x14", "AqfpPool 8x7x7",
          "AqfpDense 392->64", "AqfpOutput 64->10"}},
        {"tiny", "cmos-apc",
         {"CmosConv 8x28x28 k3", "CmosPool 8x14x14", "CmosPool 8x7x7",
          "CmosDense 392->64", "CmosOutput 64->10"}},
        {"tiny", "float-ref",
         {"FloatRefConv 8x28x28 k3", "FloatRefPool 8x14x14",
          "FloatRefPool 8x7x7", "FloatRefDense 392->64",
          "FloatRefOutput maj-chain 64->10"}},
        {"snn", "aqfp-sorter",
         {"AqfpConv 32x28x28 k3", "AqfpPool 32x14x14", "AqfpConv 32x14x14 k3",
          "AqfpPool 32x7x7", "AqfpDense 1568->500", "AqfpDense 500->800",
          "AqfpOutput 800->10"}},
        {"snn", "cmos-apc",
         {"CmosConv 32x28x28 k3", "CmosPool 32x14x14", "CmosConv 32x14x14 k3",
          "CmosPool 32x7x7", "CmosDense 1568->500", "CmosDense 500->800",
          "CmosOutput 800->10"}},
        {"snn", "float-ref",
         {"FloatRefConv 32x28x28 k3", "FloatRefPool 32x14x14",
          "FloatRefConv 32x14x14 k3", "FloatRefPool 32x7x7",
          "FloatRefDense 1568->500", "FloatRefDense 500->800",
          "FloatRefOutput maj-chain 800->10"}},
        {"dnn", "aqfp-sorter",
         {"AqfpConv 32x28x28 k3", "AqfpConv 32x28x28 k3", "AqfpPool 32x14x14",
          "AqfpConv 32x14x14 k5", "AqfpConv 32x14x14 k5", "AqfpPool 32x7x7",
          "AqfpConv 64x7x7 k7", "AqfpDense 3136->500", "AqfpDense 500->800",
          "AqfpOutput 800->10"}},
        {"dnn", "cmos-apc",
         {"CmosConv 32x28x28 k3", "CmosConv 32x28x28 k3", "CmosPool 32x14x14",
          "CmosConv 32x14x14 k5", "CmosConv 32x14x14 k5", "CmosPool 32x7x7",
          "CmosConv 64x7x7 k7", "CmosDense 3136->500", "CmosDense 500->800",
          "CmosOutput 800->10"}},
        {"dnn", "float-ref",
         {"FloatRefConv 32x28x28 k3", "FloatRefConv 32x28x28 k3",
          "FloatRefPool 32x14x14", "FloatRefConv 32x14x14 k5",
          "FloatRefConv 32x14x14 k5", "FloatRefPool 32x7x7",
          "FloatRefConv 64x7x7 k7", "FloatRefDense 3136->500",
          "FloatRefDense 500->800", "FloatRefOutput maj-chain 800->10"}},
    };
    std::size_t pinned = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.model) + " on " + c.backend);
        EngineOptions cfg;
        cfg.backend = c.backend;
        cfg.streamLen = 64;
        const ScNetworkEngine engine(buildModel(c.model, 1), cfg);
        std::vector<std::string> names;
        for (std::size_t s = 0; s < engine.stageCount(); ++s)
            names.push_back(engine.stage(s).name());
        EXPECT_EQ(names, c.names);
        pinned += c.names.size();
    }
    EXPECT_EQ(pinned, 66u);
}

/**
 * A complete backend registered from this TU through add(), with no
 * edits to stage_compiler.cc (or any core file).  The backend only
 * serves networks that are a single output layer and scores every class
 * with a constant, which is all the tests need; it refuses every other
 * stage kind.
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

std::unique_ptr<ScStage>
constantStage(const stages::MappedStage &m,
              std::shared_ptr<const stages::StageShared>,
              const EngineOptions &)
{
    if (m.kind != stages::StageKind::Output)
        throw std::invalid_argument("test-constant builds output stages only");
    return std::make_unique<ConstantOutputStage>(
        std::get<stages::DenseGeometry>(m.geometry).outFeatures);
}

/** Register "test-constant", once per process. */
void
registerTestConstant()
{
    static const bool registered = [] {
        BackendRegistry::instance().add("test-constant",
                                        {constantStage, false});
        return true;
    }();
    (void)registered;
}

TEST(BackendRegistry, AddRefusesTakenNamesAndEmptyFactories)
{
    registerTestConstant();
    BackendRegistry &registry = BackendRegistry::instance();
    const std::vector<std::string> before = registry.names();

    // A taken name, builtin or added, is refused.
    for (const char *name : {"aqfp-sorter", "float-ref", "test-constant"}) {
        SCOPED_TRACE(name);
        EXPECT_THROW(registry.add(name, {constantStage, false}),
                     std::logic_error);
    }
    // So is an empty factory, under any name.
    EXPECT_THROW(registry.add("test-empty", {}), std::logic_error);
    EXPECT_THROW(registry.add("aqfp-sorter", {}), std::logic_error);
    EXPECT_FALSE(registry.has("test-empty"));
    EXPECT_EQ(registry.names(), before);

    // The first registrations keep serving.
    EXPECT_TRUE(registry.backend("aqfp-sorter").streams);
    EXPECT_FALSE(registry.backend("float-ref").streams);
    EngineOptions cfg;
    cfg.streamLen = 64;
    const ScNetworkEngine engine(buildTinyCnn(1), cfg);
    EXPECT_EQ(engine.stage(0).name(), "AqfpConv 8x28x28 k3");
    EXPECT_EQ(engine.stage(engine.stageCount() - 1).name(),
              "AqfpOutput 64->10");
}

TEST(BackendRegistry, BackendRegisteredOutsideCompilerServesInference)
{
    registerTestConstant();
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

    // A factory's refusal reaches the caller prefixed with the layer.
    nn::Network conv_net;
    conv_net.add(std::make_unique<nn::Conv2D>(1, 2, 3, 1));
    conv_net.add(std::make_unique<nn::HardTanh>());
    conv_net.add(std::make_unique<nn::Dense>(2 * 28 * 28, 10, 2));
    try {
        ScNetworkEngine engine2(conv_net, cfg);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()),
                  "ScNetworkEngine: layer 0 (Conv3x3x2): test-constant "
                  "builds output stages only");
    }
}

/**
 * float-ref runs the float layers themselves, so it scores every zoo
 * model exactly as nn::Network::forward does — dnn adds conv -> conv and
 * 5x5/7x7 kernels — whether the image comes CHW or flat.
 */
TEST(BackendRegistry, FloatRefMatchesFloatNetworkBitExactly)
{
    const auto samples = data::generateDigits(12, 2026);
    for (const std::string &name : modelNames()) {
        SCOPED_TRACE(name);
        nn::Network net = buildModel(name, 7);
        net.quantizeParams(10);
        EngineOptions cfg;
        cfg.backend = "float-ref";
        const ScNetworkEngine engine(net, cfg);

        // The larger models' float passes are slow in sanitizer builds.
        const std::size_t images = name == "tiny" ? samples.size() : 4;
        for (std::size_t i = 0; i < images; ++i) {
            const nn::Tensor &image = samples[i].image;
            nn::Tensor flat({static_cast<int>(image.size())});
            flat.vec() = image.vec();
            const nn::Tensor scores = net.forward(image);
            const nn::Tensor *const inputs[] = {&image, &flat};
            for (const nn::Tensor *input : inputs) {
                SCOPED_TRACE(input == &flat ? "flat image" : "CHW image");
                const ScPrediction pred = engine.infer(*input);
                ASSERT_EQ(pred.scores.size(), scores.size());
                for (std::size_t c = 0; c < scores.size(); ++c) {
                    EXPECT_EQ(pred.scores[c], static_cast<double>(scores[c]))
                        << "image " << i << " class " << c;
                }
                EXPECT_EQ(pred.label, net.predict(image));
            }
        }
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
