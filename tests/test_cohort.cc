/**
 * @file
 * Stage-major cohort execution: bit-identity with the per-image path.
 *
 * The cohort refactor's contract is that cohort size is a pure
 * throughput knob: per-image seeds (seed XOR index) are untouched and
 * every per-image state (counters, feedback carries, Btanh states,
 * MUX-select RNG positions, score accumulators) lives in its own cohort
 * slot, so predictions at any cohort size are bit-identical to the
 * per-image path — whose own outputs are pinned by the PR3 golden dump
 * (tests/test_fused_kernels.cc).  Coverage:
 *
 *  - full-stream predictions at cohort sizes 1/2/3/4/5/8/9 on all three
 *    registered backends, against the per-image inferIndexed()
 *    reference, via a golden score hash;
 *  - adaptive early-exit cohorts (in-place compaction) against
 *    per-image inferAdaptive(), in both deterministic and lazy-substream
 *    modes, across thread counts;
 *  - cohort knob validation and workspace capacity clamping.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_runner.h"
#include "core/model_zoo.h"
#include "core/session.h"
#include "core/workspace.h"
#include "data/digits.h"

namespace aqfpsc::core {
namespace {

std::vector<nn::Sample>
testImages()
{
    return data::generateDigits(10, 33);
}

InferenceSession
makeSession(const std::string &backend, std::size_t stream_len)
{
    EngineOptions opts;
    opts.backend = backend;
    opts.streamLen = stream_len;
    return InferenceSession(buildTinyCnn(3), opts);
}

/** FNV-1a over the hexfloat rendering of every score: any bit drift in
 *  any class of any image changes the hash. */
std::uint64_t
scoreHash(const std::vector<ScPrediction> &preds)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    char buf[64];
    for (const ScPrediction &p : preds) {
        for (const double v : p.scores) {
            std::snprintf(buf, sizeof(buf), "%a;", v);
            for (const char *c = buf; *c; ++c) {
                h ^= static_cast<unsigned char>(*c);
                h *= 0x100000001B3ULL;
            }
        }
    }
    return h;
}

TEST(Cohort, BitIdenticalAcrossCohortSizesOnEveryBackend)
{
    const auto samples = testImages();
    struct Case
    {
        const char *backend;
        std::size_t len;
    };
    const Case cases[] = {
        {"aqfp-sorter", 192},
        {"aqfp-sorter", 100}, // non-multiple-of-64 tail
        {"cmos-apc", 192},
        {"float-ref", 192},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.backend) +
                     " len=" + std::to_string(c.len));
        const InferenceSession session = makeSession(c.backend, c.len);
        const ScNetworkEngine &engine = session.engine();

        // The per-image reference path (pinned by the PR3 goldens).
        std::vector<ScPrediction> reference;
        for (std::size_t i = 0; i < samples.size(); ++i)
            reference.push_back(engine.inferIndexed(samples[i].image, i));
        const std::uint64_t golden = scoreHash(reference);

        // 3, 5 and 9 leave partial lane groups in the SNG and MUX
        // generator kernels (4 lanes per ymm, 8 per zmm); 9 needs two.
        for (const int cohort : {1, 2, 3, 4, 5, 8, 9}) {
            SCOPED_TRACE("cohort=" + std::to_string(cohort));
            EvalOptions opts;
            opts.cohort = cohort;
            const std::vector<ScPrediction> preds =
                session.predict(samples, opts);
            ASSERT_EQ(preds.size(), reference.size());
            for (std::size_t i = 0; i < preds.size(); ++i) {
                EXPECT_EQ(preds[i].scores, reference[i].scores) << i;
                EXPECT_EQ(preds[i].label, reference[i].label) << i;
            }
            EXPECT_EQ(scoreHash(preds), golden);
        }
    }
}

/** Cohort results are independent of the worker-thread schedule. */
TEST(Cohort, ScheduleIndependentAcrossThreadCounts)
{
    const auto samples = testImages();
    const InferenceSession session = makeSession("aqfp-sorter", 128);
    const ScNetworkEngine &engine = session.engine();

    const std::vector<ScPrediction> base =
        BatchRunner(engine, 1, 1).run(samples);
    for (const int threads : {1, 2, 8}) {
        for (const int cohort : {3, 4}) { // incl. a ragged final cohort
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " cohort=" + std::to_string(cohort));
            const std::vector<ScPrediction> got =
                BatchRunner(engine, threads, cohort).run(samples);
            ASSERT_EQ(got.size(), base.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i].scores, base[i].scores) << i;
        }
    }
}

/**
 * Adaptive cohorts compact in place as images clear the margin; every
 * retired image must have consumed exactly the checkpoint schedule of
 * the per-image adaptive path — in deterministic mode bit-identically,
 * and in lazy-substream mode too (per-block seeds derive only from the
 * image seed and block index, never from the cohort).
 */
TEST(Cohort, AdaptiveMatchesPerImageInBothModes)
{
    const auto samples = testImages();
    for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
        const InferenceSession session = makeSession(backend, 512);
        const ScNetworkEngine &engine = session.engine();
        for (const bool deterministic : {true, false}) {
            SCOPED_TRACE(std::string(backend) + " det=" +
                         std::to_string(deterministic));
            AdaptivePolicy policy;
            policy.checkpointCycles = 128;
            policy.exitMargin = 0.1;
            policy.minCycles = 128;
            policy.deterministic = deterministic;

            std::vector<AdaptivePrediction> reference;
            for (std::size_t i = 0; i < samples.size(); ++i)
                reference.push_back(
                    engine.inferAdaptive(samples[i].image, i, policy));

            for (const int threads : {1, 2}) {
                for (const int cohort : {2, 5, 8, 9}) {
                    SCOPED_TRACE("threads=" + std::to_string(threads) +
                                 " cohort=" + std::to_string(cohort));
                    const std::vector<AdaptivePrediction> got =
                        BatchRunner(engine, threads, cohort)
                            .runAdaptive(samples, policy);
                    ASSERT_EQ(got.size(), reference.size());
                    for (std::size_t i = 0; i < got.size(); ++i) {
                        EXPECT_EQ(got[i].prediction.scores,
                                  reference[i].prediction.scores)
                            << i;
                        EXPECT_EQ(got[i].consumedCycles,
                                  reference[i].consumedCycles)
                            << i;
                        EXPECT_EQ(got[i].checkpoints,
                                  reference[i].checkpoints)
                            << i;
                        EXPECT_EQ(got[i].exitedEarly,
                                  reference[i].exitedEarly)
                            << i;
                    }
                }
            }
        }
    }
}

TEST(Cohort, EngineOptionsValidateCohortBounds)
{
    EngineOptions opts;
    opts.cohort = 1;
    EXPECT_TRUE(opts.validate().empty());
    opts.cohort = EngineOptions::kMaxCohort;
    EXPECT_TRUE(opts.validate().empty());
    opts.cohort = 0;
    EXPECT_FALSE(opts.validate().empty());
    opts.cohort = EngineOptions::kMaxCohort + 1;
    EXPECT_FALSE(opts.validate().empty());
}

TEST(Cohort, WorkspaceCapacityClamped)
{
    const InferenceSession session = makeSession("aqfp-sorter", 64);
    const ScNetworkEngine &engine = session.engine();
    EXPECT_EQ(CohortWorkspace(engine, 0).capacity(), 1u);
    EXPECT_EQ(CohortWorkspace(engine, 5).capacity(), 5u);
    EXPECT_EQ(CohortWorkspace(engine, 100000).capacity(),
              kMaxCohortImages);
}

} // namespace
} // namespace aqfpsc::core
