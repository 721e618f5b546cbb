/**
 * @file
 * Adaptive (early-exit) inference: the bit-exactness contract against
 * the non-adaptive path, exit-point independence from
 * the checkpoint granularity, policy validation, batched adaptive
 * evaluation stats, and rejection on non-resumable backends.
 */

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "core/session.h"
#include "core/workspace.h"
#include "data/digits.h"

namespace aqfpsc::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<nn::Sample>
testImages(int n)
{
    return data::generateDigits(n, 77);
}

/** Session on the tiny zoo CNN with a given backend/stream length. */
InferenceSession
makeSession(const std::string &backend, std::size_t stream_len)
{
    EngineOptions opts;
    opts.backend = backend;
    opts.streamLen = stream_len;
    return InferenceSession(buildTinyCnn(3), opts);
}

/**
 * The headline contract: with exitMargin = infinity (no image ever
 * exits) the checkpointed execution must still cover the whole stream —
 * through every resume boundary the granularity induces — and end up
 * bit-identical to the one-pass non-adaptive result.  Granularities
 * cover: finest (64), the default (128), a non-power-of-two multiple
 * (192), and >= streamLen (degenerate single block).
 */
TEST(AdaptiveInference, InfiniteMarginMatchesNonAdaptiveBitwise)
{
    const auto samples = testImages(4);
    for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
        // 100 exercises the non-multiple-of-64 tail in the last block.
        for (const std::size_t len : {std::size_t{192}, std::size_t{100}}) {
            const InferenceSession session = makeSession(backend, len);
            const ScNetworkEngine &engine = session.engine();
            StageWorkspace ws(engine);
            for (const std::size_t granularity :
                 {std::size_t{64}, std::size_t{128}, std::size_t{192},
                  std::size_t{1024}}) {
                AdaptivePolicy policy;
                policy.checkpointCycles = granularity;
                policy.exitMargin = kInf;
                for (std::size_t i = 0; i < samples.size(); ++i) {
                    const ScPrediction ref =
                        engine.inferIndexed(samples[i].image, i);
                    const AdaptivePrediction adaptive =
                        engine.inferAdaptive(samples[i].image, i, ws,
                                             policy);
                    SCOPED_TRACE(std::string(backend) + " len=" +
                                 std::to_string(len) + " granularity=" +
                                 std::to_string(granularity) + " image=" +
                                 std::to_string(i));
                    EXPECT_EQ(adaptive.prediction.label, ref.label);
                    EXPECT_EQ(adaptive.prediction.scores, ref.scores);
                    EXPECT_EQ(adaptive.consumedCycles, len);
                    EXPECT_FALSE(adaptive.exitedEarly);
                }
            }
        }
    }
}

/**
 * Exit-point independence: an image exiting at cycle C must carry the
 * same scores no matter how many checkpoints led up to C.  Forced exit
 * (margin 0) at C = 128 via two 64-cycle blocks + a minCycles floor is
 * compared against a single 128-cycle block.
 */
TEST(AdaptiveInference, ExitScoresIndependentOfGranularity)
{
    const auto samples = testImages(4);
    for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
        const InferenceSession session = makeSession(backend, 512);
        const ScNetworkEngine &engine = session.engine();
        StageWorkspace ws(engine);

        AdaptivePolicy fine;
        fine.checkpointCycles = 64;
        fine.exitMargin = 0.0;
        fine.minCycles = 128;
        AdaptivePolicy coarse;
        coarse.checkpointCycles = 128;
        coarse.exitMargin = 0.0;
        coarse.minCycles = 0;

        for (std::size_t i = 0; i < samples.size(); ++i) {
            const AdaptivePrediction a =
                engine.inferAdaptive(samples[i].image, i, ws, fine);
            const AdaptivePrediction b =
                engine.inferAdaptive(samples[i].image, i, ws, coarse);
            SCOPED_TRACE(std::string(backend) + " image=" +
                         std::to_string(i));
            EXPECT_EQ(a.consumedCycles, 128u);
            EXPECT_EQ(b.consumedCycles, 128u);
            EXPECT_TRUE(a.exitedEarly);
            EXPECT_EQ(a.prediction.scores, b.prediction.scores);
            EXPECT_EQ(a.prediction.label, b.prediction.label);
            EXPECT_EQ(a.checkpoints, 2u);
            EXPECT_EQ(b.checkpoints, 1u);
        }
    }
}

/** Margin 0 exits at the very first checkpoint. */
TEST(AdaptiveInference, ZeroMarginExitsAtFirstCheckpoint)
{
    const auto samples = testImages(1);
    const InferenceSession session = makeSession("aqfp-sorter", 512);
    const ScNetworkEngine &engine = session.engine();
    StageWorkspace ws(engine);
    AdaptivePolicy policy;
    policy.checkpointCycles = 64;
    policy.exitMargin = 0.0;
    policy.minCycles = 0;
    const AdaptivePrediction p =
        engine.inferAdaptive(samples[0].image, 0, ws, policy);
    EXPECT_EQ(p.consumedCycles, 64u);
    EXPECT_TRUE(p.exitedEarly);
    EXPECT_EQ(p.checkpoints, 1u);
    EXPECT_EQ(p.prediction.scores.size(), 10u);
}

/**
 * Workspace reuse across modes must not leak state: interleaving
 * adaptive and non-adaptive inferences through one workspace leaves
 * every result identical to a fresh-workspace run.
 */
TEST(AdaptiveInference, WorkspaceReuseAcrossModesIsClean)
{
    const auto samples = testImages(3);
    const InferenceSession session = makeSession("cmos-apc", 192);
    const ScNetworkEngine &engine = session.engine();
    AdaptivePolicy policy;
    policy.checkpointCycles = 64;
    policy.exitMargin = 0.0;
    policy.minCycles = 0; // exit at 64 of 192: leaves resumed state behind

    StageWorkspace shared(engine);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const AdaptivePrediction adaptive =
            engine.inferAdaptive(samples[i].image, i, shared, policy);
        const ScPrediction full =
            engine.inferIndexed(samples[i].image, i, shared);

        StageWorkspace fresh_a(engine);
        const AdaptivePrediction ref_adaptive =
            engine.inferAdaptive(samples[i].image, i, fresh_a, policy);
        StageWorkspace fresh_b(engine);
        const ScPrediction ref_full =
            engine.inferIndexed(samples[i].image, i, fresh_b);

        EXPECT_EQ(adaptive.prediction.scores,
                  ref_adaptive.prediction.scores);
        EXPECT_EQ(adaptive.consumedCycles, ref_adaptive.consumedCycles);
        EXPECT_EQ(full.scores, ref_full.scores);
    }
}

TEST(AdaptivePolicy, ValidateTable)
{
    EXPECT_TRUE(AdaptivePolicy{}.validate().empty());

    AdaptivePolicy p;
    p.checkpointCycles = 100; // not a multiple of 64
    EXPECT_FALSE(p.validate().empty());
    p.checkpointCycles = 0;
    EXPECT_FALSE(p.validate().empty());
    p.checkpointCycles = 64;
    p.exitMargin = -0.1;
    EXPECT_FALSE(p.validate().empty());
    p.exitMargin = kInf; // "never exit" is legal
    EXPECT_TRUE(p.validate().empty());

    // EngineOptions folds the policy into its own validation.
    EngineOptions opts;
    opts.adaptive.checkpointCycles = 65;
    const auto errors = opts.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("adaptive:"), std::string::npos);

    // And the engine rejects invalid policies at the call site.
    const InferenceSession session = makeSession("aqfp-sorter", 128);
    const auto image = testImages(1)[0].image;
    AdaptivePolicy bad;
    bad.checkpointCycles = 63;
    EXPECT_THROW(session.engine().inferAdaptive(image, 0, bad),
                 std::invalid_argument);
}

/**
 * float-ref computes in the value domain: not resumable, and says so
 * when a policy could exit early.  The never-exit policy needs no
 * resumable stage — it runs as one full span and equals inferIndexed().
 */
TEST(AdaptiveInference, FloatRefIsRejectedWithDiagnostic)
{
    const InferenceSession session = makeSession("float-ref", 128);
    const ScNetworkEngine &engine = session.engine();
    std::string why_not;
    EXPECT_FALSE(engine.supportsAdaptive(&why_not));
    EXPECT_FALSE(why_not.empty());

    const auto image = testImages(1)[0].image;
    AdaptivePolicy never;
    never.checkpointCycles = 64;
    never.exitMargin = kInf;
    const AdaptivePrediction full = engine.inferAdaptive(image, 3, never);
    EXPECT_EQ(full.prediction.scores, engine.inferIndexed(image, 3).scores);
    EXPECT_EQ(full.consumedCycles, 128u);
    EXPECT_EQ(full.checkpoints, 1u);
    EXPECT_FALSE(full.exitedEarly);
    try {
        engine.inferAdaptive(image, 0, AdaptivePolicy{});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("not resumable"),
                  std::string::npos);
    }
    // Stream backends support it.
    EXPECT_TRUE(makeSession("aqfp-sorter", 128)
                    .engine()
                    .supportsAdaptive(nullptr));
}

/**
 * Batched adaptive evaluation: infinite margin reproduces the
 * non-adaptive accuracy exactly (it IS the same computation), reports
 * full-length consumption and zero exits; margin 0 consumes exactly one
 * checkpoint per image; results are thread-count independent.
 */
TEST(AdaptiveInference, EvaluateAdaptiveStats)
{
    const auto samples = testImages(8);
    EngineOptions opts;
    opts.backend = "aqfp-sorter";
    opts.streamLen = 192;
    opts.adaptive.checkpointCycles = 64;
    opts.adaptive.exitMargin = kInf;
    const InferenceSession session(buildTinyCnn(3), opts);

    const ScEvalStats plain = session.evaluate(samples);
    const AdaptiveEvalStats never = session.evaluateAdaptive(samples);
    EXPECT_DOUBLE_EQ(never.stats.accuracy, plain.accuracy);
    EXPECT_EQ(never.stats.images, samples.size());
    EXPECT_DOUBLE_EQ(never.avgConsumedCycles, 192.0);
    EXPECT_EQ(never.earlyExits, 0u);

    AdaptivePolicy always;
    always.checkpointCycles = 64;
    always.exitMargin = 0.0;
    always.minCycles = 0;
    const AdaptiveEvalStats first =
        session.engine().evaluateAdaptive(samples, always, {});
    EXPECT_DOUBLE_EQ(first.avgConsumedCycles, 64.0);
    EXPECT_EQ(first.earlyExits, samples.size());

    // Thread-count independence of the adaptive batch.
    const auto one =
        session.engine().evaluateAdaptive(samples, always, {.threads = 1});
    const auto four =
        session.engine().evaluateAdaptive(samples, always, {.threads = 4});
    EXPECT_DOUBLE_EQ(one.stats.accuracy, four.stats.accuracy);
    EXPECT_DOUBLE_EQ(one.avgConsumedCycles, four.avgConsumedCycles);
}

} // namespace
} // namespace aqfpsc::core
