/**
 * @file
 * InferenceSession façade and EngineOptions validation: the accept /
 * reject table, lazy per-backend engine compilation, equivalence with
 * the direct engine path, and the single source of truth for worker
 * threads (config threads, per-call override, deprecated forwarders).
 */

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "core/session.h"
#include "core/stages/stage_compiler.h"
#include "core/workspace.h"
#include "data/digits.h"
#include "nn/layers.h"

namespace aqfpsc::core {
namespace {

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

TEST(EngineOptions, ValidateAcceptTable)
{
    EXPECT_TRUE(EngineOptions{}.validate().empty());

    EngineOptions o;
    o.backend = "float-ref";
    o.streamLen = EngineOptions::kMinStreamLen;
    o.rngBits = 1;
    o.threads = 0;
    EXPECT_TRUE(o.validate().empty());

    o.backend = "cmos-apc";
    o.streamLen = EngineOptions::kMaxStreamLen;
    o.rngBits = EngineOptions::kMaxRngBits;
    o.threads = EngineOptions::kMaxThreads;
    EXPECT_TRUE(o.validate().empty());

    // Non-multiple-of-64 stream lengths are legal (tail-clean streams).
    o.streamLen = 1000;
    EXPECT_TRUE(o.validate().empty());
}

TEST(EngineOptions, ValidateRejectTable)
{
    struct Case
    {
        const char *name;
        EngineOptions opts;
        const char *expect; ///< substring of the documented message
    };
    std::vector<Case> cases;
    {
        Case c{"unknown backend", {}, "unknown backend 'quantum'"};
        c.opts.backend = "quantum";
        cases.push_back(c);
    }
    {
        Case c{"streamLen too small", {}, "streamLen 4 out of"};
        c.opts.streamLen = 4;
        cases.push_back(c);
    }
    {
        Case c{"streamLen too large", {}, "exhaust memory"};
        c.opts.streamLen = EngineOptions::kMaxStreamLen + 1;
        cases.push_back(c);
    }
    {
        Case c{"rngBits zero", {}, "rngBits 0 out of"};
        c.opts.rngBits = 0;
        cases.push_back(c);
    }
    {
        Case c{"rngBits too wide", {}, "rngBits 31 out of"};
        c.opts.rngBits = 31;
        cases.push_back(c);
    }
    {
        Case c{"negative threads", {}, "threads -1 out of"};
        c.opts.threads = -1;
        cases.push_back(c);
    }
    {
        Case c{"too many threads", {}, "threads 9999 out of"};
        c.opts.threads = 9999;
        cases.push_back(c);
    }
    for (const auto &c : cases) {
        const auto errors = c.opts.validate();
        ASSERT_EQ(errors.size(), 1u) << c.name;
        EXPECT_TRUE(contains(errors[0], c.expect))
            << c.name << ": " << errors[0];
    }

    // Unknown backends additionally list what IS registered.
    EngineOptions bad;
    bad.backend = "quantum";
    EXPECT_TRUE(contains(bad.validate()[0], "aqfp-sorter"));

    // Errors accumulate instead of stopping at the first.
    bad.streamLen = 0;
    bad.rngBits = -3;
    bad.threads = -1;
    EXPECT_EQ(bad.validate().size(), 4u);
}

TEST(Session, ConstructorRejectsInvalidOptions)
{
    EngineOptions opts;
    opts.backend = "quantum";
    try {
        InferenceSession session(buildTinyCnn(1), opts);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_TRUE(contains(e.what(), "invalid EngineOptions"))
            << e.what();
        EXPECT_TRUE(contains(e.what(), "unknown backend 'quantum'"))
            << e.what();
    }
}

TEST(Session, FromZooRejectsUnknownModels)
{
    try {
        InferenceSession session = InferenceSession::fromZoo("mega");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_TRUE(contains(e.what(), "unknown model 'mega'"))
            << e.what();
        EXPECT_TRUE(contains(e.what(), "tiny")) << e.what();
    }
}

TEST(Session, EnginesCompileLazilyPerBackend)
{
    EngineOptions opts;
    opts.streamLen = 256;
    const InferenceSession session(buildTinyCnn(3), opts);
    EXPECT_TRUE(session.compiledBackends().empty());

    const ScNetworkEngine &aqfp = session.engine();
    EXPECT_EQ(aqfp.backendName(), "aqfp-sorter");
    EXPECT_EQ(session.compiledBackends(),
              (std::vector<std::string>{"aqfp-sorter"}));

    const ScNetworkEngine &ref = session.engine("float-ref");
    EXPECT_EQ(ref.backendName(), "float-ref");
    EXPECT_EQ(session.compiledBackends(),
              (std::vector<std::string>{"aqfp-sorter", "float-ref"}));

    // Cached: the same engine object is returned, not a recompile.
    EXPECT_EQ(&session.engine(), &aqfp);
    EXPECT_EQ(&session.engine("float-ref"), &ref);

    EXPECT_THROW(session.engine("quantum"), std::invalid_argument);
}

TEST(Session, MatchesDirectEnginePathBitExactly)
{
    nn::Network net = buildTinyCnn(3);
    net.quantizeParams(10);
    const auto samples = data::generateDigits(6, 424);

    EngineOptions opts;
    opts.streamLen = 256;
    ScEngineConfig direct_cfg;
    direct_cfg.streamLen = 256;
    direct_cfg.backendName = "aqfp-sorter";
    const ScNetworkEngine direct(net, direct_cfg);
    const InferenceSession session(std::move(net), opts);

    const auto via_session = session.predict(samples);
    const auto via_engine = direct.predict(samples);
    ASSERT_EQ(via_session.size(), via_engine.size());
    for (std::size_t i = 0; i < via_session.size(); ++i) {
        EXPECT_EQ(via_session[i].label, via_engine[i].label);
        EXPECT_EQ(via_session[i].scores, via_engine[i].scores);
    }

    const ScPrediction one = session.infer(samples[0].image);
    EXPECT_EQ(one.scores, via_engine[0].scores);
}

/**
 * Malformed images are rejected once, at the engine loop's entry, with
 * std::invalid_argument — never read past their end or scored: a
 * 1x10x10 image on a 1x28x28 network, an all-NaN image and one
 * infinite pixel, through infer() and a batched predict(), on a stream
 * and the value-domain backend.
 */
TEST(Session, MalformedImagesAreRejected)
{
    nn::Tensor nan = data::generateDigits(1, 5)[0].image;
    for (std::size_t i = 0; i < nan.size(); ++i)
        nan[i] = std::numeric_limits<float>::quiet_NaN();
    nn::Tensor inf = data::generateDigits(1, 5)[0].image;
    inf[100] = std::numeric_limits<float>::infinity();
    const nn::Tensor small({1, 10, 10});
    const nn::Tensor *const malformed[] = {&small, &nan, &inf};

    for (const char *backend : {"aqfp-sorter", "float-ref"}) {
        EngineOptions opts;
        opts.backend = backend;
        opts.streamLen = 64;
        const InferenceSession session(buildTinyCnn(3), opts);
        EXPECT_EQ(session.engine().plan().inputElements, 28u * 28u);
        for (const nn::Tensor *bad : malformed) {
            SCOPED_TRACE(std::string(backend) + " image of " +
                         std::to_string(bad->size()) + " elements");
            EXPECT_THROW(session.infer(*bad), std::invalid_argument);
            std::vector<nn::Sample> batch = data::generateDigits(3, 5);
            batch[1].image = *bad;
            EXPECT_THROW(session.predict(batch, {.cohort = 3}),
                         std::invalid_argument);
        }
    }
}

/** Workspace misuse is an argument error, not an out-of-bounds index:
 *  a cohort larger than the arena, or an arena of another engine. */
TEST(Session, WorkspaceMisuseIsRejected)
{
    EngineOptions opts;
    opts.streamLen = 64;
    const InferenceSession a(buildTinyCnn(3), opts);
    const InferenceSession b(buildTinyCnn(3), opts);
    const std::vector<nn::Sample> samples = data::generateDigits(3, 5);
    const nn::Tensor *images[] = {&samples[0].image, &samples[1].image,
                                  &samples[2].image};
    const std::size_t indices[] = {0, 1, 2};
    ScPrediction out[3];

    CohortWorkspace two(a.engine(), 2);
    EXPECT_THROW(a.engine().inferCohort(images, indices, 3, two, out),
                 std::invalid_argument);
    EXPECT_THROW(b.engine().inferIndexed(samples[0].image, 0, two),
                 std::invalid_argument);
    // The rejected calls left the arena usable.
    a.engine().inferCohort(images, indices, 2, two, out);
    EXPECT_EQ(out[1].scores, a.engine().inferIndexed(samples[1].image, 1)
                                 .scores);
}

TEST(Session, EvaluateStatsAndThreadOverridesAgree)
{
    nn::Network net = buildTinyCnn(3);
    const auto samples = data::generateDigits(8, 77);

    EngineOptions opts;
    opts.streamLen = 128;
    opts.threads = 2; // the single source of truth
    const InferenceSession session(std::move(net), opts);

    const ScEvalStats base = session.evaluate(samples);
    EXPECT_EQ(base.images, samples.size());

    // A per-call override changes the worker count, never the result.
    const ScEvalStats forced =
        session.evaluate(samples, {.threads = 1});
    EXPECT_EQ(forced.accuracy, base.accuracy);

    // The engine entry point rides the same code path.
    const ScNetworkEngine &engine = session.engine();
    EXPECT_EQ(engine.evaluate(samples, EvalOptions{}).accuracy,
              base.accuracy);

    const ScEvalStats limited = session.evaluate(samples, {.limit = 3});
    EXPECT_EQ(limited.images, 3u);
}

} // namespace
} // namespace aqfpsc::core
