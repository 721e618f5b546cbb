/**
 * @file
 * Cross-module integration tests: engine determinism, analytic
 * consistency of the hardware report, export on real block netlists,
 * and the per-layer instance arithmetic of the whole-network mapping.
 */

#include <memory>

#include <gtest/gtest.h>

#include "aqfp/export.h"
#include "aqfp/passes.h"
#include "blocks/feature_extraction.h"
#include "core/hardware_report.h"
#include "core/model_zoo.h"
#include "core/sc_engine.h"
#include "data/digits.h"

namespace aqfpsc::core {
namespace {

TEST(EngineDeterminism, SameSeedSameScores)
{
    nn::Network net = buildTinyCnn(9);
    const auto samples = data::generateDigits(5, 77);

    EngineOptions cfg;
    cfg.streamLen = 256;
    cfg.seed = 4242;
    ScNetworkEngine a(net, cfg);
    ScNetworkEngine b(net, cfg);
    for (const auto &s : samples) {
        const ScPrediction pa = a.infer(s.image);
        const ScPrediction pb = b.infer(s.image);
        EXPECT_EQ(pa.label, pb.label);
        ASSERT_EQ(pa.scores.size(), pb.scores.size());
        for (std::size_t i = 0; i < pa.scores.size(); ++i)
            EXPECT_DOUBLE_EQ(pa.scores[i], pb.scores[i]);
    }
}

TEST(EngineDeterminism, DifferentSeedDifferentStreams)
{
    nn::Network net = buildTinyCnn(9);
    const auto samples = data::generateDigits(3, 78);
    EngineOptions a_cfg, b_cfg;
    a_cfg.streamLen = b_cfg.streamLen = 256;
    a_cfg.seed = 1;
    b_cfg.seed = 2;
    ScNetworkEngine a(net, a_cfg);
    ScNetworkEngine b(net, b_cfg);
    int diffs = 0;
    for (const auto &s : samples) {
        const auto pa = a.infer(s.image);
        const auto pb = b.infer(s.image);
        for (std::size_t i = 0; i < pa.scores.size(); ++i)
            diffs += pa.scores[i] != pb.scores[i] ? 1 : 0;
    }
    EXPECT_GT(diffs, 0); // streams differ even if labels usually agree
}

TEST(HardwareReport, SnnInstanceArithmetic)
{
    // Instance counts follow directly from Table 8 geometry.
    const nn::Network snn = buildSnn(1);
    const NetworkHardware hw = analyzeNetworkHardware(snn, 1024, {}, {},
                                                      /*fast=*/true);
    ASSERT_EQ(hw.layers.size(), 7u);
    EXPECT_EQ(hw.layers[0].instances, 32LL * 28 * 28); // conv1 blocks
    EXPECT_EQ(hw.layers[0].blockInputs, 1 * 3 * 3 + 1);
    EXPECT_EQ(hw.layers[1].instances, 32LL * 14 * 14); // pool1
    EXPECT_EQ(hw.layers[2].instances, 32LL * 28 * 28 / 4); // conv2 at 14x14
    EXPECT_EQ(hw.layers[2].blockInputs, 32 * 3 * 3 + 1);
    EXPECT_EQ(hw.layers[4].instances, 500);  // FC500
    EXPECT_EQ(hw.layers[4].blockInputs, 7 * 7 * 32 + 1);
    EXPECT_EQ(hw.layers[5].instances, 800);  // FC800
    EXPECT_EQ(hw.layers[6].instances, 10);   // categorization
    EXPECT_EQ(hw.layers[6].blockInputs, 801);
    // Weight streams = all parameters.
    EXPECT_EQ(hw.weightStreams,
              32LL * 9 + 32 + 32 * 32 * 9 + 32 + 1568 * 500 + 500 +
                  500 * 800 + 800 + 800 * 10 + 10);
}

TEST(HardwareReport, FastEstimateTracksExactOnMidSizeBlock)
{
    // The fast estimator (used for the DNN's 3000-input FC sorters) is
    // calibrated on an exactly legalized block; check it against the
    // exact analysis at a size where both are feasible.
    const aqfp::Netlist exact_net = aqfp::legalize(
        blocks::FeatureExtractionBlock::buildNetlist(801), false);
    const auto exact = aqfp::analyzeNetlist(exact_net);

    // Reach the estimator through a Dense(800)+act+out network analyzed
    // in fast mode.
    nn::Network net;
    net.add(std::make_unique<nn::Dense>(800, 4, 1));
    net.add(std::make_unique<nn::SorterTanh>());
    net.add(std::make_unique<nn::MajorityChainDense>(4, 10, 2));
    const NetworkHardware hw =
        analyzeNetworkHardware(net, 1024, {}, {}, /*fast=*/true);
    const auto &fc = hw.layers[0];
    ASSERT_EQ(fc.blockInputs, 801);
    const double ratio = static_cast<double>(fc.aqfpPerBlock.jj) /
                         static_cast<double>(exact.jj);
    EXPECT_GT(ratio, 0.6);
    EXPECT_LT(ratio, 1.6);
}

TEST(Export, LegalizedFeatureBlockVerilogIsConsistent)
{
    const aqfp::Netlist net =
        aqfp::legalize(blocks::FeatureExtractionBlock::buildNetlist(5));
    const std::string v = aqfp::toVerilog(net, "featext5");
    // Every primary port appears.
    for (std::size_t i = 0; i < net.inputs().size(); ++i) {
        EXPECT_NE(v.find("input pi" + std::to_string(i)),
                  std::string::npos);
    }
    for (std::size_t i = 0; i < net.outputs().size(); ++i) {
        EXPECT_NE(v.find("assign po" + std::to_string(i)),
                  std::string::npos);
    }
    // Splitters from legalization are instantiated.
    EXPECT_NE(v.find("AQFP_SPL"), std::string::npos);
}

TEST(Digits, TrainableToHighAccuracyQuickly)
{
    // The dataset substitution is only valid if the task is learnable:
    // a linear-output CNN must exceed 90% within a small budget.
    nn::Network net;
    net.add(std::make_unique<nn::Conv2D>(1, 6, 3, 4));
    net.add(std::make_unique<nn::SorterTanh>());
    net.add(std::make_unique<nn::AvgPool2>());
    net.add(std::make_unique<nn::AvgPool2>());
    net.add(std::make_unique<nn::Dense>(7 * 7 * 6, 10, 5));
    auto train = data::generateDigits(1000, 31);
    const auto test = data::generateDigits(150, 32);
    nn::TrainConfig cfg;
    cfg.epochs = 5;
    cfg.learningRate = 0.1f;
    net.train(train, cfg);
    EXPECT_GT(net.evaluate(test), 0.9);
}

} // namespace
} // namespace aqfpsc::core
