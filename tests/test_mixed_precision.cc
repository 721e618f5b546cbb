/**
 * @file
 * Mixed stream-length precision: the per-stage length-vector contract.
 *
 * Coverage:
 *
 *  - a uniform explicit vector is bit-identical to the scalar streamLen
 *    config on every stream backend, deterministic and adaptive, at
 *    cohort sizes 1/4/8 (the canonicalized PlanSpec makes the two
 *    configs share one cached plan, so drift here means the resolution
 *    itself broke);
 *  - mixed vectors: the plan stores the resolved vector, sizes the
 *    ping-pong buffers from per-parity high-water lengths, and the
 *    checkpointed adaptive path is still a pure span decomposition of
 *    the one-shot run;
 *  - plan-cache keying: explicit-uniform hits the scalar entry, a
 *    different vector misses, and a cache-hit mixed engine is bitwise
 *    identical to a cold compile;
 *  - EngineOptions / resolveStageLens validation (alignment,
 *    monotonicity, stage-count mismatch);
 *  - PrecisionTuner: returns a valid non-increasing word-aligned vector
 *    within the evaluation budget;
 *  - serving: a non-adaptive tenant's ServedResult::consumedCycles
 *    reports the plan's cycle total, not the scalar config fallback.
 */

#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "core/plan_cache.h"
#include "core/precision_tuner.h"
#include "core/session.h"
#include "core/stages/stage_compiler.h"
#include "data/digits.h"
#include "serving/frontend.h"

namespace aqfpsc::core {
namespace {

std::vector<nn::Sample>
testImages()
{
    return data::generateDigits(8, 33);
}

InferenceSession
makeSession(const std::string &backend, std::size_t stream_len,
            std::vector<std::size_t> stage_lens = {})
{
    EngineOptions opts;
    opts.backend = backend;
    opts.streamLen = stream_len;
    opts.stageStreamLens = std::move(stage_lens);
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

/** Stage count of the tiny zoo model on @p backend (the vector length
 *  resolveStageLens expects). */
std::size_t
stageCount(const std::string &backend)
{
    return makeSession(backend, 64).engine().plan().stageStreamLens.size();
}

TEST(MixedPrecision, UniformVectorBitIdenticalToScalarEverywhere)
{
    const auto samples = testImages();
    for (const char *backend : {"aqfp-sorter", "cmos-apc", "float-ref"}) {
        SCOPED_TRACE(backend);
        const std::size_t len = 192;
        const InferenceSession scalar = makeSession(backend, len);
        const std::size_t n = scalar.engine().plan().stageStreamLens.size();
        const InferenceSession vector =
            makeSession(backend, len, std::vector<std::size_t>(n, len));

        // The resolved plans must agree exactly.
        EXPECT_EQ(scalar.engine().plan().stageStreamLens,
                  vector.engine().plan().stageStreamLens);
        EXPECT_EQ(vector.engine().plan().fullRunCycles(), len);
        EXPECT_EQ(vector.engine().plan().terminalCycles(), len);

        for (const int cohort : {1, 4, 8}) {
            SCOPED_TRACE("cohort=" + std::to_string(cohort));
            EvalOptions opts;
            opts.cohort = cohort;
            const auto ref = scalar.predict(samples, opts);
            const auto got = vector.predict(samples, opts);
            ASSERT_EQ(got.size(), ref.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i].scores, ref[i].scores) << i;
            EXPECT_EQ(scoreHash(got), scoreHash(ref));
        }
    }
}

TEST(MixedPrecision, UniformVectorBitIdenticalToScalarAdaptive)
{
    const auto samples = testImages();
    AdaptivePolicy policy;
    policy.checkpointCycles = 64;
    policy.exitMargin = 0.1;
    policy.minCycles = 64;
    for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
        SCOPED_TRACE(backend);
        const std::size_t len = 256;
        const InferenceSession scalar = makeSession(backend, len);
        const std::size_t n = scalar.engine().plan().stageStreamLens.size();
        const InferenceSession vector =
            makeSession(backend, len, std::vector<std::size_t>(n, len));
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const AdaptivePrediction ref =
                scalar.engine().inferAdaptive(samples[i].image, i, policy);
            const AdaptivePrediction got =
                vector.engine().inferAdaptive(samples[i].image, i, policy);
            EXPECT_EQ(got.prediction.scores, ref.prediction.scores) << i;
            EXPECT_EQ(got.consumedCycles, ref.consumedCycles) << i;
            EXPECT_EQ(got.exitedEarly, ref.exitedEarly) << i;
        }
    }
}

/** A genuinely mixed vector: the plan keeps it verbatim, sizes the
 *  ping-pong buffers from per-parity maxima, and full-margin adaptive
 *  runs (which never exit early) reproduce the one-shot scores bitwise
 *  — the checkpoint loop is a span decomposition even when stages stop
 *  at different cycles. */
TEST(MixedPrecision, MixedVectorPlanAndAdaptiveDecomposition)
{
    const auto samples = testImages();
    for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
        SCOPED_TRACE(backend);
        const std::size_t n = stageCount(backend);
        std::vector<std::size_t> lens(n, 128);
        lens.front() = 256;

        EngineOptions opts;
        opts.backend = backend;
        opts.streamLen = 256;
        opts.stageStreamLens = lens;
        const InferenceSession session(buildTinyCnn(3), opts);
        const auto &plan = session.engine().plan();
        EXPECT_EQ(plan.stageStreamLens, lens);
        EXPECT_EQ(plan.fullRunCycles(), 256u);
        EXPECT_EQ(plan.terminalCycles(), n > 1 ? 128u : 256u);
        // Parity 0 holds the first stage's output (the longest stream).
        EXPECT_EQ(plan.bufferLen[0], 256u);

        const auto oneShot = session.predict(samples, {});

        AdaptivePolicy policy;
        policy.checkpointCycles = 64;
        policy.exitMargin = 1e9; // unreachable: always run to the end
        policy.minCycles = 64;
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const AdaptivePrediction got =
                session.engine().inferAdaptive(samples[i].image, i, policy);
            EXPECT_EQ(got.prediction.scores, oneShot[i].scores) << i;
            EXPECT_FALSE(got.exitedEarly) << i;
            EXPECT_EQ(got.consumedCycles, 256u) << i;
        }

        // Cohort execution agrees with the per-image path too.
        for (const int cohort : {4, 8}) {
            EvalOptions eopts;
            eopts.cohort = cohort;
            const auto got = session.predict(samples, eopts);
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i].scores, oneShot[i].scores)
                    << "cohort " << cohort << " image " << i;
        }
    }
}

TEST(MixedPrecision, PlanCacheKeysOnLengthVector)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();

    const std::size_t n = stageCount("aqfp-sorter");
    cache.clear();

    // Cold scalar compile, then an explicit uniform vector: the
    // canonicalized PlanSpec must land on the same entry (hit).
    const InferenceSession scalar = makeSession("aqfp-sorter", 128);
    (void)scalar.engine();
    const std::uint64_t missesAfterScalar = cache.stats().misses;
    const std::uint64_t hitsAfterScalar = cache.stats().hits;

    const InferenceSession uniform =
        makeSession("aqfp-sorter", 128, std::vector<std::size_t>(n, 128));
    (void)uniform.engine();
    EXPECT_EQ(cache.stats().misses, missesAfterScalar)
        << "explicit uniform vector must not recompile the scalar plan";
    EXPECT_GT(cache.stats().hits, hitsAfterScalar);

    // A different vector is a different plan.
    std::vector<std::size_t> mixed(n, 64);
    mixed.front() = 128;
    const InferenceSession first =
        makeSession("aqfp-sorter", 128, mixed);
    (void)first.engine();
    EXPECT_GT(cache.stats().misses, missesAfterScalar);

    // Cache-hit mixed engine is bitwise identical to the cold compile.
    const auto samples = testImages();
    const auto cold = first.predict(samples, {});
    const InferenceSession second =
        makeSession("aqfp-sorter", 128, mixed);
    const auto warm = second.predict(samples, {});
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i)
        EXPECT_EQ(warm[i].scores, cold[i].scores) << i;
    EXPECT_EQ(scoreHash(warm), scoreHash(cold));
}

TEST(MixedPrecision, EngineOptionsValidateLengthVectors)
{
    EngineOptions opts;
    opts.stageStreamLens = {1024, 512, 512};
    EXPECT_TRUE(opts.validate().empty());

    opts.stageStreamLens = {512, 1024}; // increasing
    EXPECT_FALSE(opts.validate().empty());

    opts.stageStreamLens = {512, 100}; // not word-aligned
    EXPECT_FALSE(opts.validate().empty());

    opts.stageStreamLens = {512, 0}; // zero
    EXPECT_FALSE(opts.validate().empty());

    opts.stageStreamLens = {EngineOptions::kMaxStreamLen * 2};
    EXPECT_FALSE(opts.validate().empty());
}

TEST(MixedPrecision, StageCountMismatchFailsAtCompile)
{
    const std::size_t n = stageCount("aqfp-sorter");
    const InferenceSession session = makeSession(
        "aqfp-sorter", 128, std::vector<std::size_t>(n + 1, 128));
    EXPECT_THROW((void)session.engine(), std::invalid_argument);
}

TEST(MixedPrecision, TunerReturnsValidVectorWithinBudget)
{
    const nn::Network net = buildTinyCnn(3);
    EngineOptions opts;
    opts.backend = "aqfp-sorter";
    opts.streamLen = 256;

    TuneOptions topts;
    topts.maxAccuracyDrop = 1.0; // accept every halving
    topts.maxPasses = 2;
    topts.limit = 4;
    const TuneResult r =
        PrecisionTuner(net, opts).tune(testImages(), topts);

    ASSERT_FALSE(r.stageStreamLens.empty());
    EXPECT_EQ(r.stageStreamLens.size(), r.baselineStageStreamLens.size());
    for (std::size_t s = 0; s < r.stageStreamLens.size(); ++s) {
        EXPECT_EQ(r.stageStreamLens[s] % 64, 0u) << s;
        EXPECT_GE(r.stageStreamLens[s], 64u) << s;
        if (s > 0) {
            EXPECT_LE(r.stageStreamLens[s], r.stageStreamLens[s - 1]) << s;
        }
    }
    // With the budget wide open every stage descends to the floor.
    for (const std::size_t len : r.stageStreamLens)
        EXPECT_EQ(len, 64u);
    EXPECT_GT(r.evaluations, 1u);
    EXPECT_GE(r.passes, 1);
    EXPECT_GT(r.baselineImagesPerSec, 0.0);

    // The tuned vector must construct a working session.
    EngineOptions tuned = opts;
    tuned.streamLen = r.stageStreamLens.front();
    tuned.stageStreamLens = r.stageStreamLens;
    const InferenceSession session(buildTinyCnn(3), tuned);
    (void)session.infer(testImages()[0].image);

    // Bad budgets are rejected before any evaluation runs.
    TuneOptions bad;
    bad.maxPasses = 0;
    EXPECT_THROW(PrecisionTuner(net, opts).tune(testImages(), bad),
                 std::invalid_argument);
    EXPECT_THROW(PrecisionTuner(net, opts).tune({}, topts),
                 std::invalid_argument);
}

TEST(MixedPrecision, ServerReportsPlanCyclesNotScalarConfig)
{
    const auto samples = testImages();
    const std::size_t n = stageCount("aqfp-sorter");
    std::vector<std::size_t> lens(n, 64);
    lens.front() = 128;

    EngineOptions opts;
    opts.backend = "aqfp-sorter";
    // Scalar config deliberately disagrees with the vector's cycle
    // count: the fallback bug this pins down reported streamLen.
    opts.streamLen = 128;
    opts.stageStreamLens = lens;
    serving::ServingFrontend frontend;
    frontend.addModel("m", buildTinyCnn(3), opts);
    serving::TenantConfig tenant;
    tenant.name = "t";
    tenant.model = "m";
    frontend.addTenant(tenant);
    const serving::ServedResult r =
        frontend.submit("t", samples[0].image).get();
    EXPECT_EQ(r.consumedCycles,
              frontend.model("m").engine().plan().fullRunCycles());
    EXPECT_EQ(r.consumedCycles, 128u);
}

} // namespace
} // namespace aqfpsc::core
