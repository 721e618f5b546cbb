/**
 * @file
 * Integration tests: the SC inference engine against the float network,
 * the hardware report, and the model zoo.
 */

#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/hardware_report.h"
#include "core/model_zoo.h"
#include "core/sc_engine.h"
#include "core/stages/stage_compiler.h"
#include "data/digits.h"
#include "nn/layers.h"

namespace aqfpsc::core {
namespace {

/** Train the tiny CNN on a small synthetic digit set; cached per suite. */
class TrainedTinyCnn : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        net_ = new nn::Network(buildTinyCnn(3));
        train_ = new std::vector<nn::Sample>(data::generateDigits(600, 11));
        test_ = new std::vector<nn::Sample>(data::generateDigits(100, 999));
        nn::TrainConfig cfg;
        cfg.epochs = 4;
        cfg.learningRate = 0.08f;
        net_->train(*train_, cfg);
        net_->quantizeParams(10);
    }

    static void
    TearDownTestSuite()
    {
        delete net_;
        delete train_;
        delete test_;
        net_ = nullptr;
        train_ = nullptr;
        test_ = nullptr;
    }

    static nn::Network *net_;
    static std::vector<nn::Sample> *train_;
    static std::vector<nn::Sample> *test_;
};

nn::Network *TrainedTinyCnn::net_ = nullptr;
std::vector<nn::Sample> *TrainedTinyCnn::train_ = nullptr;
std::vector<nn::Sample> *TrainedTinyCnn::test_ = nullptr;

TEST_F(TrainedTinyCnn, FloatAccuracyIsHigh)
{
    EXPECT_GT(net_->evaluate(*test_), 0.85);
}

TEST_F(TrainedTinyCnn, AqfpScInferenceTracksFloat)
{
    EngineOptions cfg;
    cfg.streamLen = 1024;
    cfg.backend = "aqfp-sorter";
    ScNetworkEngine engine(*net_, cfg);
    const double float_acc = net_->evaluate(*test_);
    const double sc_acc = engine.evaluate(*test_, {.limit = 40}).accuracy;
    EXPECT_GT(sc_acc, float_acc - 0.15);
}

TEST_F(TrainedTinyCnn, CmosScInferenceRuns)
{
    // The CMOS baseline scores classes with linear APC accumulation, so
    // it gets its own linear-output network (the majority-chain-trained
    // weights are specific to the AQFP output structure).
    nn::Network cmos_net;
    cmos_net.add(std::make_unique<nn::Conv2D>(1, 8, 3, 5));
    cmos_net.add(std::make_unique<nn::SorterTanh>());
    cmos_net.add(std::make_unique<nn::AvgPool2>());
    cmos_net.add(std::make_unique<nn::AvgPool2>());
    cmos_net.add(std::make_unique<nn::Dense>(7 * 7 * 8, 10, 6));
    nn::TrainConfig tcfg;
    tcfg.epochs = 4;
    tcfg.learningRate = 0.08f;
    cmos_net.train(*train_, tcfg);
    cmos_net.quantizeParams(10);

    EngineOptions cfg;
    cfg.streamLen = 1024;
    cfg.backend = "cmos-apc";
    ScNetworkEngine engine(cmos_net, cfg);
    const double float_acc = cmos_net.evaluate(*test_);
    const double sc_acc = engine.evaluate(*test_, {.limit = 40}).accuracy;
    EXPECT_GT(float_acc, 0.8);
    EXPECT_GT(sc_acc, float_acc - 0.2);
}

TEST_F(TrainedTinyCnn, ScoresExposeRanking)
{
    EngineOptions cfg;
    cfg.streamLen = 512;
    ScNetworkEngine engine(*net_, cfg);
    const ScPrediction pred = engine.infer((*test_)[0].image);
    ASSERT_EQ(pred.scores.size(), 10u);
    for (std::size_t i = 0; i < pred.scores.size(); ++i) {
        EXPECT_LE(pred.scores[i],
                  pred.scores[static_cast<std::size_t>(pred.label)]);
    }
}

TEST_F(TrainedTinyCnn, LongerStreamsDoNotHurt)
{
    EngineOptions short_cfg, long_cfg;
    short_cfg.streamLen = 128;
    long_cfg.streamLen = 2048;
    ScNetworkEngine short_engine(*net_, short_cfg);
    ScNetworkEngine long_engine(*net_, long_cfg);
    const double short_acc =
        short_engine.evaluate(*test_, {.limit = 30}).accuracy;
    const double long_acc =
        long_engine.evaluate(*test_, {.limit = 30}).accuracy;
    EXPECT_GE(long_acc, short_acc - 0.1);
}

TEST(ScEngine, RejectsConvWithoutActivation)
{
    nn::Network net;
    net.add(std::make_unique<nn::Conv2D>(1, 2, 3, 1));
    net.add(std::make_unique<nn::Dense>(2 * 28 * 28, 10, 2));
    EngineOptions cfg;
    EXPECT_THROW(ScNetworkEngine(net, cfg), std::invalid_argument);
}

TEST(ScEngine, RejectsMissingOutputLayer)
{
    nn::Network net;
    net.add(std::make_unique<nn::Dense>(784, 10, 1));
    net.add(std::make_unique<nn::HardTanh>());
    EngineOptions cfg;
    EXPECT_THROW(ScNetworkEngine(net, cfg), std::invalid_argument);
}

/**
 * The engine validates its configuration on the compile path: a raw
 * engine and both compile entry points reject what a session rejects,
 * with std::invalid_argument naming the field, before a stage is built
 * or a stream drawn.  The widest SNG code compiles and infers.
 */
TEST(ScEngine, CompileEntryPointsRejectInvalidOptions)
{
    const nn::Network net = buildModel("tiny", 1);
    struct Case
    {
        const char *field;
        void (*set)(EngineOptions &);
    };
    const Case cases[] = {
        {"rngBits", [](EngineOptions &o) { o.rngBits = 0; }},
        {"rngBits", [](EngineOptions &o) { o.rngBits = 21; }},
        {"rngBits", [](EngineOptions &o) { o.rngBits = 40; }},
        {"streamLen", [](EngineOptions &o) { o.streamLen = 0; }},
        {"backend", [](EngineOptions &o) { o.backend = ""; }},
        {"backend", [](EngineOptions &o) { o.backend = "nope"; }},
        {"stageStreamLens",
         [](EngineOptions &o) { o.stageStreamLens = {100}; }},
        {"cohort", [](EngineOptions &o) { o.cohort = 0; }},
    };
    for (const Case &c : cases) {
        EngineOptions opts;
        opts.streamLen = 64;
        c.set(opts);
        const auto expectRejected = [&](const char *entry, auto &&compile) {
            SCOPED_TRACE(std::string(entry) + " " + c.field);
            try {
                compile();
                ADD_FAILURE() << "expected std::invalid_argument";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find(c.field),
                          std::string::npos)
                    << e.what();
            }
        };
        expectRejected("ScNetworkEngine",
                       [&] { const ScNetworkEngine engine(net, opts); });
        expectRejected("compileNetworkUncached",
                       [&] { stages::compileNetworkUncached(net, opts); });
        expectRejected("compileNetwork",
                       [&] { stages::compileNetwork(net, opts); });
    }

    EngineOptions widest;
    widest.streamLen = 64;
    widest.rngBits = sc::kMaxSngBits;
    EXPECT_NO_THROW(stages::compileNetworkUncached(net, widest));
    const ScNetworkEngine engine(net, widest);
    const nn::Sample sample = data::generateDigits(1, 5)[0];
    EXPECT_EQ(engine.infer(sample.image).scores.size(), 10u);
}

TEST(ModelZoo, ArchitecturesMatchTable8)
{
    const nn::Network snn = buildSnn();
    EXPECT_EQ(snn.describe(),
              "Conv3x3x32-ScTanh-AvgPool2-Conv3x3x32-ScTanh-AvgPool2-"
              "FC500-ScTanh-FC800-ScTanh-MajChainFC10");
    const nn::Network dnn = buildDnn();
    EXPECT_EQ(dnn.describe(),
              "Conv3x3x32-ScTanh-Conv3x3x32-ScTanh-AvgPool2-"
              "Conv5x5x32-ScTanh-Conv5x5x32-ScTanh-AvgPool2-"
              "Conv7x7x64-ScTanh-FC500-ScTanh-FC800-ScTanh-MajChainFC10");
}

TEST(HardwareReport, TinyCnnTotals)
{
    const nn::Network net = buildTinyCnn(1);
    const NetworkHardware hw = analyzeNetworkHardware(net, 1024);
    ASSERT_EQ(hw.layers.size(), 5u); // conv, pool, pool, fc, out
    EXPECT_GT(hw.aqfpTotalJj, 0);
    EXPECT_GT(hw.aqfpSngJj, 0);
    EXPECT_GT(hw.aqfpEnergyPerImageJ, 0.0);
    EXPECT_GT(hw.cmosEnergyPerImageJ, hw.aqfpEnergyPerImageJ);
    EXPECT_GT(hw.aqfpThroughputImagesPerSec,
              hw.cmosThroughputImagesPerSec);
    // Weight streams: conv (8*9+8) + fc (392*64+64) + chain (64*10+10).
    EXPECT_EQ(hw.weightStreams,
              8 * 9 + 8 + 392 * 64 + 64 + 64 * 10 + 10);
    EXPECT_EQ(hw.inputStreams, 784);
}

TEST(HardwareReport, EnergyGrowsWithStreamLength)
{
    const nn::Network net = buildTinyCnn(1);
    const NetworkHardware a = analyzeNetworkHardware(net, 512);
    const NetworkHardware b = analyzeNetworkHardware(net, 1024);
    EXPECT_NEAR(b.aqfpEnergyPerImageJ / a.aqfpEnergyPerImageJ, 2.0, 1e-6);
    EXPECT_NEAR(b.aqfpThroughputImagesPerSec * 2.0,
                a.aqfpThroughputImagesPerSec, 1e-3);
}

TEST(HardwareReport, PerBlockCostsAreLegalizedNetlists)
{
    const nn::Network net = buildTinyCnn(1);
    const NetworkHardware hw = analyzeNetworkHardware(net, 1024);
    for (const auto &layer : hw.layers) {
        EXPECT_GT(layer.aqfpPerBlock.jj, 0) << layer.name;
        EXPECT_GT(layer.aqfpPerBlock.depthPhases, 0) << layer.name;
        EXPECT_GT(layer.cmosPerBlock.energyPerCycleJ, 0.0) << layer.name;
        EXPECT_GT(layer.instances, 0) << layer.name;
    }
}

/**
 * The report walks the compiler's mapping: a network the engine refuses
 * is refused with the compiler's message (a pool is no activation), and
 * the input streams are what the first stage reads, not a fixed 28x28.
 */
TEST(HardwareReport, CostsWhatTheEngineMaps)
{
    nn::Network unmappable;
    unmappable.add(std::make_unique<nn::Conv2D>(1, 4, 3, 1));
    unmappable.add(std::make_unique<nn::AvgPool2>());
    unmappable.add(std::make_unique<nn::Dense>(784, 10, 2));
    try {
        analyzeNetworkHardware(unmappable, 64);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "ScNetworkEngine: Conv2D needs a following activation");
    }

    nn::Network dense_first;
    dense_first.add(std::make_unique<nn::Dense>(800, 10, 1));
    EXPECT_EQ(analyzeNetworkHardware(dense_first, 64).inputStreams, 800);

    nn::Network two_channel;
    two_channel.add(std::make_unique<nn::Conv2D>(2, 4, 3, 1));
    two_channel.add(std::make_unique<nn::SorterTanh>());
    two_channel.add(std::make_unique<nn::Dense>(4 * 28 * 28, 10, 2));
    EXPECT_EQ(analyzeNetworkHardware(two_channel, 64).inputStreams,
              2 * 28 * 28);
}

/**
 * Layer s of the report is compiled stage s — the join that puts a
 * stage's host time next to its modeled energy: one layer per stage,
 * one block instance per output row of every non-terminal stage, and
 * one categorization block per class.
 */
TEST(HardwareReport, LayersAreTheCompiledStages)
{
    for (const std::string &name : modelNames()) {
        const nn::Network net = buildModel(name, 1);
        const NetworkHardware hw = analyzeNetworkHardware(net, 64, {}, {},
                                                          /*fast=*/true);
        for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
            SCOPED_TRACE(name + " on " + backend);
            EngineOptions cfg;
            cfg.backend = backend;
            cfg.streamLen = 64;
            const ScNetworkEngine engine(net, cfg);
            ASSERT_EQ(hw.layers.size(), engine.stageCount());
            for (std::size_t s = 0; s + 1 < engine.stageCount(); ++s) {
                EXPECT_EQ(static_cast<std::size_t>(hw.layers[s].instances),
                          engine.stage(s).footprint().outputRows)
                    << "stage " << s << " (" << hw.layers[s].name << ")";
            }
            EXPECT_TRUE(engine.stage(engine.stageCount() - 1).terminal());
            const int classes = net.layer(net.layerCount() - 1).spec().p1;
            EXPECT_EQ(hw.layers.back().instances, classes);
        }
    }
}

} // namespace
} // namespace aqfpsc::core
