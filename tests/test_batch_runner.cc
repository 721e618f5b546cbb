/**
 * @file
 * Tests for batched multi-threaded SC inference: predictions must be a
 * pure function of (network, config, image index) — bit-identical at
 * 1, 2 and 8 worker threads for both backends — and the evaluation
 * stats must be consistent with single-image inference.
 */

#include <gtest/gtest.h>

#include "core/batch_runner.h"
#include "core/model_zoo.h"
#include "core/sc_engine.h"
#include "data/digits.h"

namespace aqfpsc::core {
namespace {

void
expectSamePredictions(const std::vector<ScPrediction> &a,
                      const std::vector<ScPrediction> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label) << "image " << i;
        ASSERT_EQ(a[i].scores.size(), b[i].scores.size()) << "image " << i;
        for (std::size_t j = 0; j < a[i].scores.size(); ++j) {
            EXPECT_DOUBLE_EQ(a[i].scores[j], b[i].scores[j])
                << "image " << i << " score " << j;
        }
    }
}

EngineOptions
makeConfig(const std::string &backend)
{
    EngineOptions cfg;
    cfg.streamLen = 256;
    cfg.seed = 99;
    cfg.backend = backend;
    return cfg;
}

TEST(BatchRunner, PredictionsIdenticalAt1And2And8Threads)
{
    // buildTinyCnn ends in a plain Dense output, so the same network is
    // mappable on both backends.
    const nn::Network net = buildTinyCnn(21);
    const auto samples = data::generateDigits(12, 5);

    for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
        const ScNetworkEngine engine(net, makeConfig(backend));
        const auto p1 = BatchRunner(engine, 1).run(samples);
        const auto p2 = BatchRunner(engine, 2).run(samples);
        const auto p8 = BatchRunner(engine, 8).run(samples);
        expectSamePredictions(p1, p2);
        expectSamePredictions(p1, p8);
    }
}

TEST(BatchRunner, BatchMatchesInferIndexed)
{
    const nn::Network net = buildTinyCnn(22);
    const auto samples = data::generateDigits(6, 17);
    const ScNetworkEngine engine(net, makeConfig("aqfp-sorter"));

    const auto batch = BatchRunner(engine, 8).run(samples);
    ASSERT_EQ(batch.size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const ScPrediction solo = engine.inferIndexed(samples[i].image, i);
        EXPECT_EQ(batch[i].label, solo.label);
        ASSERT_EQ(batch[i].scores.size(), solo.scores.size());
        for (std::size_t j = 0; j < solo.scores.size(); ++j)
            EXPECT_DOUBLE_EQ(batch[i].scores[j], solo.scores[j]);
    }
}

TEST(BatchRunner, IndexZeroMatchesPlainInfer)
{
    const nn::Network net = buildTinyCnn(23);
    const auto samples = data::generateDigits(1, 29);
    const ScNetworkEngine engine(net, makeConfig("aqfp-sorter"));

    const ScPrediction a = engine.infer(samples[0].image);
    const ScPrediction b = engine.inferIndexed(samples[0].image, 0);
    ASSERT_EQ(a.scores.size(), b.scores.size());
    for (std::size_t j = 0; j < a.scores.size(); ++j)
        EXPECT_DOUBLE_EQ(a.scores[j], b.scores[j]);
}

TEST(BatchRunner, LimitAndEmptyBatch)
{
    const nn::Network net = buildTinyCnn(24);
    const auto samples = data::generateDigits(5, 31);
    const ScNetworkEngine engine(net, makeConfig("aqfp-sorter"));
    const BatchRunner runner(engine, 2);

    EXPECT_EQ(runner.run(samples, 3).size(), 3u);
    EXPECT_EQ(runner.run(samples, 0).size(), 0u);
    EXPECT_EQ(runner.run({}).size(), 0u);
    const ScEvalStats empty = runner.evaluate(samples, 0);
    EXPECT_EQ(empty.images, 0u);
    EXPECT_DOUBLE_EQ(empty.accuracy, 0.0);
}

TEST(BatchRunner, EvaluateReportsConsistentStats)
{
    const nn::Network net = buildTinyCnn(25);
    const auto samples = data::generateDigits(10, 37);
    const ScNetworkEngine engine(net, makeConfig("aqfp-sorter"));

    const ScEvalStats s1 = BatchRunner(engine, 1).evaluate(samples);
    const ScEvalStats s8 = BatchRunner(engine, 8).evaluate(samples);
    EXPECT_EQ(s1.images, samples.size());
    EXPECT_EQ(s8.images, samples.size());
    // Deterministic derivation: accuracy never depends on thread count.
    EXPECT_DOUBLE_EQ(s1.accuracy, s8.accuracy);
    EXPECT_GT(s1.wallSeconds, 0.0);
    EXPECT_GT(s1.imagesPerSec, 0.0);
    EXPECT_GE(s1.accuracy, 0.0);
    EXPECT_LE(s1.accuracy, 1.0);
}

TEST(BatchRunner, EngineEvaluateRoutesThroughBatchRunner)
{
    const nn::Network net = buildTinyCnn(26);
    const auto samples = data::generateDigits(8, 41);

    EngineOptions cfg = makeConfig("aqfp-sorter");
    cfg.threads = 4;
    const ScNetworkEngine engine(net, cfg);
    const double acc = engine.evaluate(samples, EvalOptions{}).accuracy;
    const ScEvalStats batch = engine.evaluate(samples, {.threads = 1});
    EXPECT_DOUBLE_EQ(acc, batch.accuracy);
}

TEST(BatchRunner, ThreadCountResolution)
{
    const nn::Network net = buildTinyCnn(27);
    const ScNetworkEngine engine(net, makeConfig("aqfp-sorter"));
    EXPECT_EQ(BatchRunner(engine, 3).threads(), 3);
    EXPECT_GE(BatchRunner(engine, 0).threads(), 1); // hardware default
    EXPECT_EQ(BatchRunner(engine, -5).threads(),
              BatchRunner(engine, 0).threads());
    EXPECT_EQ(BatchRunner(engine, 100000).threads(), 256); // clamped
}

} // namespace
} // namespace aqfpsc::core
