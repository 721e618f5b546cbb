/**
 * @file
 * ServingFrontend: configuration validation, bitwise determinism of
 * served results against the engine entry points for the *effective*
 * (possibly shed) policy, scheduling-order guarantees (weighted-fair
 * anti-starvation, strict priority, EDF), shed-before-reject overload
 * degradation, admission control via trySubmit, cohort-aware per-tenant
 * stats accounting, multi-model serving, and a concurrent
 * submit/shutdown fuzz (run under ASan/UBSan in CI, in both SIMD
 * dispatch modes).
 *
 * Scheduling-order tests use FrontendOptions::startPaused: the backlog
 * is enqueued while no worker runs, so the pick sequence after start()
 * is a pure function of the policy — assertions are on
 * ServedResult::completionSeq, never on wall time.
 */

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "data/digits.h"
#include "serving/frontend.h"

namespace aqfpsc::serving {
namespace {

std::vector<nn::Sample>
testImages(int n)
{
    return data::generateDigits(n, 77);
}

core::EngineOptions
engineOpts(std::size_t stream_len = 128)
{
    core::EngineOptions opts;
    opts.streamLen = stream_len;
    return opts;
}

/** Register the tiny CNN under model name "m" (ServingFrontend is
 *  neither copyable nor movable, so the caller owns it in place). */
void
addTinyModel(ServingFrontend &fe, std::size_t stream_len = 128)
{
    fe.addModel("m", core::buildTinyCnn(3), engineOpts(stream_len));
}

TenantConfig
tenant(const std::string &name, const std::string &model = "m")
{
    TenantConfig cfg;
    cfg.name = name;
    cfg.model = model;
    return cfg;
}

TEST(SchedPolicyNames, RoundTrip)
{
    for (const SchedPolicy p :
         {SchedPolicy::Fifo, SchedPolicy::Priority, SchedPolicy::Edf,
          SchedPolicy::WeightedFair}) {
        const auto parsed = parseSchedPolicy(schedPolicyName(p));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, p);
    }
    EXPECT_FALSE(parseSchedPolicy("round-robin").has_value());
}

TEST(TenantConfigValidate, RejectsBadConfigs)
{
    TenantConfig ok = tenant("t");
    EXPECT_TRUE(ok.validate().empty());

    TenantConfig noName = tenant("");
    EXPECT_FALSE(noName.validate().empty());

    TenantConfig badWeight = tenant("t");
    badWeight.weight = 0.0;
    EXPECT_FALSE(badWeight.validate().empty());

    TenantConfig badQueue = tenant("t");
    badQueue.queueCapacity = 0;
    EXPECT_FALSE(badQueue.validate().empty());

    TenantConfig badDeadline = tenant("t");
    badDeadline.deadlineSeconds = -1.0;
    EXPECT_FALSE(badDeadline.validate().empty());

    // Budgets become steady_clock nanoseconds, which overflow int64
    // above about 9.2e9 s: every budget stops at kMaxBudgetSeconds.
    const double inf = std::numeric_limits<double>::infinity();
    for (const double huge : {1e10, inf}) {
        TenantConfig hugeDeadline = tenant("t");
        hugeDeadline.deadlineSeconds = huge;
        EXPECT_FALSE(hugeDeadline.validate().empty());
        TenantConfig hugeTimeout = tenant("t");
        hugeTimeout.timeoutSeconds = huge;
        EXPECT_FALSE(hugeTimeout.validate().empty());
    }
    TenantConfig atCeiling = tenant("t");
    atCeiling.deadlineSeconds = TenantConfig::kMaxBudgetSeconds;
    atCeiling.timeoutSeconds = TenantConfig::kMaxBudgetSeconds;
    EXPECT_TRUE(atCeiling.validate().empty());

    // The last retry waits retryBackoffSeconds * 2^(maxRetries-1).
    TenantConfig hugeBackoff = tenant("t");
    hugeBackoff.retryBackoffSeconds = 100.0;
    hugeBackoff.maxRetries = 16; // 100 * 2^15 s
    EXPECT_FALSE(hugeBackoff.validate().empty());
    hugeBackoff.maxRetries = 1; // 100 s
    EXPECT_TRUE(hugeBackoff.validate().empty());

    TenantConfig badPolicy = tenant("t");
    badPolicy.adaptive = true;
    badPolicy.policy.checkpointCycles = 63; // not word-aligned
    EXPECT_FALSE(badPolicy.validate().empty());
    badPolicy.policy.checkpointCycles = 128;
    EXPECT_TRUE(badPolicy.validate().empty());

    // Shedding requires the adaptive path (there is no margin to
    // tighten otherwise), and the floors must actually be floors.
    TenantConfig shedNoAdaptive = tenant("t");
    shedNoAdaptive.shed.enabled = true;
    EXPECT_FALSE(shedNoAdaptive.validate().empty());

    TenantConfig shedBadFloor = tenant("t");
    shedBadFloor.adaptive = true;
    shedBadFloor.shed.enabled = true;
    shedBadFloor.shed.marginFloor = shedBadFloor.policy.exitMargin + 1.0;
    EXPECT_FALSE(shedBadFloor.validate().empty());

    TenantConfig shedBadLoads = tenant("t");
    shedBadLoads.adaptive = true;
    shedBadLoads.shed.enabled = true;
    shedBadLoads.shed.startLoad = 0.9;
    shedBadLoads.shed.fullLoad = 0.5;
    EXPECT_FALSE(shedBadLoads.validate().empty());

    TenantConfig shedOk = tenant("t");
    shedOk.adaptive = true;
    shedOk.shed.enabled = true;
    EXPECT_TRUE(shedOk.validate().empty());
}

TEST(FrontendOptionsValidate, RejectsBadOptions)
{
    EXPECT_TRUE(FrontendOptions{}.validate().empty());
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const FrontendOptions bad[] = {
        {.workers = -1},
        {.workers = 257},
        {.maxBatch = 0},
        {.maxBatch = static_cast<int>(TenantConfig::kMaxQueueCapacity) + 1},
        {.watchdogSeconds = 0.0},
        {.watchdogSeconds = inf},
        {.watchdogSeconds = 2 * TenantConfig::kMaxBudgetSeconds},
        {.stallSeconds = 0.0},
        {.stallSeconds = nan},
    };
    for (const FrontendOptions &opts : bad) {
        EXPECT_FALSE(opts.validate().empty());
        EXPECT_THROW(ServingFrontend fe(opts), std::invalid_argument);
    }
}

TEST(ServingFrontendRegistration, ErrorsAreActionable)
{
    ServingFrontend fe({.startPaused = true});
    fe.addModel("m", core::buildTinyCnn(3), engineOpts());
    EXPECT_THROW(fe.addModel("m", core::buildTinyCnn(3), engineOpts()),
                 std::invalid_argument);
    EXPECT_THROW(fe.model("nope"), std::invalid_argument);

    EXPECT_THROW(fe.addTenant(tenant("t", "no-such-model")),
                 std::invalid_argument);
    TenantConfig badBackend = tenant("t");
    badBackend.backend = "no-such-backend";
    EXPECT_THROW(fe.addTenant(badBackend), std::invalid_argument);
    TenantConfig floatRefAdaptive = tenant("t");
    floatRefAdaptive.backend = "float-ref";
    floatRefAdaptive.adaptive = true;
    EXPECT_THROW(fe.addTenant(floatRefAdaptive), std::invalid_argument);

    fe.addTenant(tenant("t"));
    EXPECT_THROW(fe.addTenant(tenant("t")), std::invalid_argument);
    EXPECT_THROW(fe.submit("nope", testImages(1)[0].image),
                 std::invalid_argument);

    fe.start();
    EXPECT_THROW(fe.addModel("late", core::buildTinyCnn(3), engineOpts()),
                 std::logic_error);
    EXPECT_THROW(fe.addTenant(tenant("late")), std::logic_error);
}

/**
 * Served predictions are the pure function (model, backend, requestId,
 * effective policy): for every result, recomputing through the engine
 * entry points with the *reported* effective policy reproduces the
 * scores bit for bit — across scheduling policies, worker counts,
 * cohorts of one and of three, adaptive/non-adaptive tenants and a
 * non-resumable (float-ref) tenant.
 */
TEST(ServingFrontend, ResultsMatchEngineBitwise)
{
    const auto samples = testImages(8);
    // (workers, maxBatch): one or two workers, cohorts of one or three.
    const std::pair<int, int> shapes[] = {{1, 1}, {1, 3}, {2, 1}, {2, 3}};
    for (const SchedPolicy policy :
         {SchedPolicy::Fifo, SchedPolicy::WeightedFair}) {
        for (const auto &[workers, maxBatch] : shapes) {
            ServingFrontend fe({.workers = workers,
                                .maxBatch = maxBatch,
                                .policy = policy});
            addTinyModel(fe);
            TenantConfig plain = tenant("plain");
            TenantConfig adaptive = tenant("adaptive");
            adaptive.adaptive = true;
            adaptive.policy.checkpointCycles = 64;
            adaptive.policy.exitMargin = 0.1;
            adaptive.policy.minCycles = 64;
            TenantConfig ref = tenant("ref");
            ref.backend = "float-ref";
            fe.addTenant(plain);
            fe.addTenant(adaptive);
            fe.addTenant(ref);

            const char *const names[] = {"plain", "adaptive", "ref"};
            std::vector<std::pair<std::size_t,
                                  std::future<ServedResult>>>
                futures;
            for (std::size_t i = 0; i < samples.size(); ++i) {
                futures.emplace_back(
                    i, fe.submit(names[i % 3], samples[i].image));
            }
            const core::ScNetworkEngine &engine = fe.model("m").engine();
            const core::ScNetworkEngine &refEngine =
                fe.model("m").engine("float-ref");
            for (auto &[i, f] : futures) {
                const ServedResult r = f.get();
                SCOPED_TRACE("policy=" +
                             std::string(schedPolicyName(policy)) +
                             " workers=" + std::to_string(workers) +
                             " maxBatch=" + std::to_string(maxBatch) +
                             " i=" + std::to_string(i));
                if (r.adaptive) {
                    const core::AdaptivePrediction ref =
                        engine.inferAdaptive(samples[i].image, r.requestId,
                                             r.effectivePolicy);
                    EXPECT_EQ(r.prediction.scores, ref.prediction.scores);
                    EXPECT_EQ(r.consumedCycles, ref.consumedCycles);
                    EXPECT_EQ(r.exitedEarly, ref.exitedEarly);
                } else {
                    const core::ScPrediction expect =
                        (i % 3 == 2 ? refEngine : engine)
                            .inferIndexed(samples[i].image, r.requestId);
                    EXPECT_EQ(r.prediction.scores, expect.scores);
                    EXPECT_EQ(r.consumedCycles, 128u);
                    EXPECT_FALSE(r.exitedEarly);
                }
            }
        }
    }
}

/**
 * Malformed images fail their own futures with InvalidArgument — never
 * retried, never on a worker's stack as undefined behaviour — while the
 * well-formed requests of the same cohort are served normally.
 */
TEST(ServingFrontend, MalformedImagesFailWithInvalidArgument)
{
    const auto samples = testImages(2);
    ServingFrontend fe({.workers = 1, .maxBatch = 4, .startPaused = true});
    addTinyModel(fe);
    TenantConfig t = tenant("t");
    t.maxRetries = 2;
    fe.addTenant(t);

    nn::Tensor nan = samples[0].image;
    for (std::size_t i = 0; i < nan.size(); ++i)
        nan[i] = std::numeric_limits<float>::quiet_NaN();
    std::future<ServedResult> good0 = fe.submit("t", samples[0].image);
    std::future<ServedResult> small = fe.submit("t", nn::Tensor({1, 10, 10}));
    std::optional<std::future<ServedResult>> tried = fe.trySubmit("t", nan);
    ASSERT_TRUE(tried.has_value());
    std::future<ServedResult> allNan = std::move(*tried);
    std::future<ServedResult> good1 = fe.submit("t", samples[1].image);
    // Admission rejects both malformed images: their futures are ready
    // while the front end is still paused, and they take no queue slot.
    for (std::future<ServedResult> *f : {&small, &allNan})
        EXPECT_EQ(f->wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    EXPECT_EQ(fe.tenantStats("t").submitted, 2u);
    EXPECT_EQ(fe.tenantStats("t").failed, 2u);
    fe.start();

    const core::ScNetworkEngine &engine = fe.model("m").engine();
    const ServedResult r0 = good0.get();
    const ServedResult r1 = good1.get();
    EXPECT_EQ(r1.requestId, r0.requestId + 1); // no id for the rejected
    EXPECT_EQ(r0.prediction.scores,
              engine.inferIndexed(samples[0].image, r0.requestId).scores);
    EXPECT_EQ(r1.prediction.scores,
              engine.inferIndexed(samples[1].image, r1.requestId).scores);
    for (std::future<ServedResult> *f : {&small, &allNan}) {
        try {
            f->get();
            ADD_FAILURE() << "malformed image was served";
        } catch (const core::StatusError &e) {
            EXPECT_EQ(e.status().code, core::StatusCode::InvalidArgument)
                << e.what();
        }
    }
    const TenantStats stats = fe.tenantStats("t");
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.failed, 2u);
    EXPECT_EQ(stats.retried, 0u);
}

/** Two tenants on two different models: each result matches its own
 *  model's engine, never the other's. */
TEST(ServingFrontend, MultiModelRouting)
{
    const auto samples = testImages(4);
    ServingFrontend fe({.workers = 1});
    fe.addModel("a", core::buildTinyCnn(3), engineOpts());
    fe.addModel("b", core::buildTinyCnn(5), engineOpts());
    fe.addTenant(tenant("ta", "a"));
    fe.addTenant(tenant("tb", "b"));

    std::vector<std::future<ServedResult>> fa, fb;
    for (const auto &s : samples) {
        fa.push_back(fe.submit("ta", s.image));
        fb.push_back(fe.submit("tb", s.image));
    }
    const core::ScNetworkEngine &ea = fe.model("a").engine();
    const core::ScNetworkEngine &eb = fe.model("b").engine();
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const ServedResult ra = fa[i].get();
        const ServedResult rb = fb[i].get();
        EXPECT_EQ(ra.prediction.scores,
                  ea.inferIndexed(samples[i].image, ra.requestId).scores);
        EXPECT_EQ(rb.prediction.scores,
                  eb.inferIndexed(samples[i].image, rb.requestId).scores);
    }
    EXPECT_EQ(fe.tenantStats("ta").completed, samples.size());
    EXPECT_EQ(fe.tenantStats("tb").completed, samples.size());
}

/**
 * Weighted-fair anti-starvation: a greedy tenant with a 40-request
 * backlog cannot starve a low-rate tenant.  With the backlog enqueued
 * before start() (paused front end, one worker), the low-rate tenant's
 * requests must complete among the first few scheduler picks — bounded
 * wait asserted through completionSeq, independent of wall time.
 */
TEST(ServingFrontendScheduling, WeightedFairPreventsStarvation)
{
    const auto samples = testImages(4);
    constexpr int kGreedy = 40;
    ServingFrontend fe({.workers = 1,
                        .maxBatch = 4,
                        .policy = SchedPolicy::WeightedFair,
                        .startPaused = true});
    addTinyModel(fe, 64);
    TenantConfig greedy = tenant("greedy");
    greedy.weight = 1.0;
    greedy.queueCapacity = 64;
    TenantConfig low = tenant("low");
    low.weight = 1.0;
    fe.addTenant(greedy);
    fe.addTenant(low);

    std::vector<std::future<ServedResult>> greedyFutures;
    for (int i = 0; i < kGreedy; ++i)
        greedyFutures.push_back(
            fe.submit("greedy", samples[i % 4].image));
    auto lowFuture = fe.submit("low", samples[0].image);

    fe.start();
    const ServedResult lowResult = lowFuture.get();
    // Equal weights: after the first greedy batch (maxBatch = 4) the
    // greedy tenant's pass is ahead, so the low tenant's single request
    // is the second pick — completionSeq in [4, 8).  Assert the
    // conservative half-backlog bound (a FIFO scheduler would put it
    // dead last at seq 40).
    EXPECT_LT(lowResult.completionSeq,
              static_cast<std::uint64_t>(kGreedy / 2));
    for (auto &f : greedyFutures)
        f.get();
    fe.shutdown();
    EXPECT_EQ(fe.tenantStats("greedy").completed,
              static_cast<std::uint64_t>(kGreedy));
    EXPECT_EQ(fe.tenantStats("low").completed, 1u);
}

/** FIFO control for the test above: arrival order is served, so the
 *  late low-rate request IS dead last.  Pins that the fairness result
 *  comes from the policy, not from scheduling noise. */
TEST(ServingFrontendScheduling, FifoServesArrivalOrder)
{
    const auto samples = testImages(4);
    constexpr int kGreedy = 12;
    ServingFrontend fe({.workers = 1,
                        .maxBatch = 4,
                        .policy = SchedPolicy::Fifo,
                        .startPaused = true});
    addTinyModel(fe, 64);
    TenantConfig greedy = tenant("greedy");
    greedy.queueCapacity = 16;
    fe.addTenant(greedy);
    fe.addTenant(tenant("low"));

    std::vector<std::future<ServedResult>> greedyFutures;
    for (int i = 0; i < kGreedy; ++i)
        greedyFutures.push_back(
            fe.submit("greedy", samples[i % 4].image));
    auto lowFuture = fe.submit("low", samples[0].image);
    fe.start();
    EXPECT_EQ(lowFuture.get().completionSeq,
              static_cast<std::uint64_t>(kGreedy));
    for (auto &f : greedyFutures)
        f.get();
}

/** Strict priority: the high-priority tenant's backlog is served
 *  before any low-priority request, regardless of arrival order. */
TEST(ServingFrontendScheduling, StrictPriorityOrdersTenants)
{
    const auto samples = testImages(4);
    ServingFrontend fe({.workers = 1,
                        .maxBatch = 2,
                        .policy = SchedPolicy::Priority,
                        .startPaused = true});
    addTinyModel(fe, 64);
    TenantConfig lowPrio = tenant("low");
    lowPrio.priority = 0;
    TenantConfig highPrio = tenant("high");
    highPrio.priority = 5;
    fe.addTenant(lowPrio);
    fe.addTenant(highPrio);

    // Low-priority requests arrive FIRST; high-priority must still win.
    std::vector<std::future<ServedResult>> lowF, highF;
    for (int i = 0; i < 4; ++i)
        lowF.push_back(fe.submit("low", samples[i % 4].image));
    for (int i = 0; i < 4; ++i)
        highF.push_back(fe.submit("high", samples[i % 4].image));
    fe.start();
    for (auto &f : highF)
        EXPECT_LT(f.get().completionSeq, 4u);
    for (auto &f : lowF)
        EXPECT_GE(f.get().completionSeq, 4u);
}

/** EDF: the tenant with the tighter deadline budget is served first
 *  even when its requests arrived last. */
TEST(ServingFrontendScheduling, EdfOrdersByDeadline)
{
    const auto samples = testImages(4);
    ServingFrontend fe({.workers = 1,
                        .maxBatch = 2,
                        .policy = SchedPolicy::Edf,
                        .startPaused = true});
    addTinyModel(fe, 64);
    TenantConfig lax = tenant("lax");
    lax.deadlineSeconds = 3600.0;
    TenantConfig urgent = tenant("urgent");
    urgent.deadlineSeconds = 30.0;
    fe.addTenant(lax);
    fe.addTenant(urgent);

    std::vector<std::future<ServedResult>> laxF, urgentF;
    for (int i = 0; i < 4; ++i)
        laxF.push_back(fe.submit("lax", samples[i % 4].image));
    for (int i = 0; i < 4; ++i)
        urgentF.push_back(fe.submit("urgent", samples[i % 4].image));
    fe.start();
    for (auto &f : urgentF) {
        const ServedResult r = f.get();
        EXPECT_LT(r.completionSeq, 4u);
        EXPECT_FALSE(r.deadlineMissed);
        EXPECT_DOUBLE_EQ(r.deadlineSeconds, 30.0);
    }
    for (auto &f : laxF)
        EXPECT_GE(f.get().completionSeq, 4u);
}

/**
 * Shed-before-reject: a backlog past the shed band's startLoad is
 * served under a tightened margin (shed flag set, effective margin
 * strictly below the base, bounded by the floor), the tightened policy
 * still reproduces the engine bitwise, and per-tenant stats count the
 * shed completions.
 */
TEST(ServingFrontend, SheddingTightensMarginUnderBacklog)
{
    const auto samples = testImages(4);
    ServingFrontend fe({.workers = 1, .maxBatch = 4, .startPaused = true});
    addTinyModel(fe, 512);
    TenantConfig cfg = tenant("t");
    cfg.queueCapacity = 16;
    cfg.adaptive = true;
    cfg.policy.checkpointCycles = 64;
    cfg.policy.exitMargin = 0.4;
    cfg.policy.minCycles = 256;
    cfg.shed.enabled = true;
    cfg.shed.startLoad = 0.25;
    cfg.shed.fullLoad = 1.0;
    cfg.shed.marginFloor = 0.05;
    cfg.shed.minCyclesFloor = 64;
    fe.addTenant(cfg);

    std::vector<std::future<ServedResult>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(fe.submit("t", samples[i % 4].image));
    fe.start();

    const core::ScNetworkEngine &engine = fe.model("m").engine();
    std::size_t shedCount = 0;
    for (auto &f : futures) {
        const ServedResult r = f.get();
        if (r.shed) {
            ++shedCount;
            EXPECT_LT(r.effectivePolicy.exitMargin, 0.4);
            EXPECT_GE(r.effectivePolicy.exitMargin, 0.05);
            EXPECT_GE(r.effectivePolicy.minCycles, 64u);
            EXPECT_LE(r.effectivePolicy.minCycles, 256u);
        } else {
            EXPECT_DOUBLE_EQ(r.effectivePolicy.exitMargin, 0.4);
        }
        // Determinism holds for the effective policy, shed or not.
        const core::AdaptivePrediction ref = engine.inferAdaptive(
            samples[r.requestId % 4].image, r.requestId,
            r.effectivePolicy);
        EXPECT_EQ(r.prediction.scores, ref.prediction.scores);
        EXPECT_EQ(r.consumedCycles, ref.consumedCycles);
    }
    // The first pick sees 16/16 pending (load 1.0 > 0.25): sheds.
    EXPECT_GT(shedCount, 0u);
    fe.shutdown();
    EXPECT_EQ(fe.tenantStats("t").shedServed, shedCount);
}

/** Admission control: a full tenant queue rejects via trySubmit
 *  (nullopt) and submit (throw); both are counted per tenant. */
TEST(ServingFrontend, AdmissionControlRejectsWhenFull)
{
    const auto samples = testImages(1);
    ServingFrontend fe({.workers = 1, .startPaused = true});
    addTinyModel(fe, 64);
    TenantConfig cfg = tenant("t");
    cfg.queueCapacity = 3;
    fe.addTenant(cfg);

    std::vector<std::future<ServedResult>> futures;
    for (int i = 0; i < 3; ++i) {
        auto f = fe.trySubmit("t", samples[0].image);
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    EXPECT_FALSE(fe.trySubmit("t", samples[0].image).has_value());
    EXPECT_THROW(fe.submit("t", samples[0].image), std::runtime_error);
    EXPECT_EQ(fe.tenantStats("t").rejected, 2u);
    EXPECT_EQ(fe.tenantStats("t").queueDepth, 3u);
    EXPECT_EQ(fe.tenantStats("t").queueDepthHighWater, 3u);

    fe.start();
    for (auto &f : futures)
        EXPECT_EQ(f.get().prediction.scores.size(), 10u);
    fe.shutdown();
    EXPECT_FALSE(fe.trySubmit("t", samples[0].image).has_value());
    EXPECT_THROW(fe.submit("t", samples[0].image), std::runtime_error);
    EXPECT_FALSE(fe.accepting());

    const TenantStats stats = fe.tenantStats("t");
    EXPECT_EQ(stats.submitted, 3u);
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.queueDepth, 0u);
    EXPECT_EQ(stats.queueHistogram.total(), 3u);
    EXPECT_EQ(stats.serviceHistogram.total(), 3u);
    EXPECT_DOUBLE_EQ(stats.avgConsumedCycles, 64.0);
}

/**
 * Cohort-aware stats on one tenant: a pick is served as one stage-major
 * cohort, but completed counts requests and avgConsumedCycles averages
 * per-request cycles, never per pick or per cohort; batches counts the
 * picks.
 */
TEST(ServingFrontend, CohortAwareStatsAccounting)
{
    const auto samples = testImages(10);

    // Non-adaptive: every request consumes exactly the full stream, so
    // a per-pick accounting bug would move the mean off 128.
    {
        ServingFrontend fe({.workers = 1, .maxBatch = 4});
        addTinyModel(fe, 128);
        fe.addTenant(tenant("t"));
        std::vector<std::future<ServedResult>> futures;
        for (const auto &s : samples)
            futures.push_back(fe.submit("t", s.image));
        for (auto &f : futures)
            f.get();
        fe.shutdown();

        const TenantStats stats = fe.tenantStats("t");
        EXPECT_EQ(stats.submitted, samples.size());
        EXPECT_EQ(stats.completed, samples.size());
        EXPECT_EQ(stats.failed, 0u);
        EXPECT_DOUBLE_EQ(stats.avgConsumedCycles, 128.0);
        EXPECT_GE(stats.batches, 3u); // a pick drains at most maxBatch
        EXPECT_LE(stats.batches, stats.completed);
        // The summary renders something human-shaped, not empty.
        EXPECT_NE(stats.serviceHistogram.summary().find("p99"),
                  std::string::npos);
    }

    // Adaptive: deterministic early exit makes each request's consumed
    // cycles a function of its id, so the served means equal the
    // engine-side means exactly, whichever worker served what.
    {
        ServingFrontend fe({.workers = 2, .maxBatch = 4});
        addTinyModel(fe, 512);
        TenantConfig cfg = tenant("t");
        cfg.adaptive = true;
        cfg.policy.checkpointCycles = 128;
        cfg.policy.exitMargin = 0.1;
        cfg.policy.minCycles = 128;
        fe.addTenant(cfg);
        std::vector<std::future<ServedResult>> futures;
        for (const auto &s : samples)
            futures.push_back(fe.submit("t", s.image));
        for (auto &f : futures)
            f.get();
        fe.shutdown();

        const core::ScNetworkEngine &engine = fe.model("m").engine();
        std::uint64_t expectCycles = 0;
        std::uint64_t expectExits = 0;
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const core::AdaptivePrediction ref =
                engine.inferAdaptive(samples[i].image, i, cfg.policy);
            expectCycles += ref.consumedCycles;
            expectExits += ref.exitedEarly ? 1 : 0;
        }
        const TenantStats stats = fe.tenantStats("t");
        EXPECT_EQ(stats.completed, samples.size());
        EXPECT_EQ(stats.earlyExits, expectExits);
        EXPECT_DOUBLE_EQ(stats.avgConsumedCycles,
                         static_cast<double>(expectCycles) /
                             static_cast<double>(samples.size()));
    }
}

/** shutdown() on a paused, never-started front end still drains every
 *  accepted request (the pool spins up on demand). */
TEST(ServingFrontend, ShutdownDrainsWithoutStart)
{
    const auto samples = testImages(2);
    std::vector<std::future<ServedResult>> futures;
    {
        ServingFrontend fe({.workers = 1, .startPaused = true});
        addTinyModel(fe, 64);
        fe.addTenant(tenant("t"));
        for (int i = 0; i < 4; ++i)
            futures.push_back(fe.submit("t", samples[i % 2].image));
        // ~ServingFrontend runs shutdown() here.
    }
    for (auto &f : futures)
        EXPECT_EQ(f.get().prediction.scores.size(), 10u);
}

/**
 * Concurrent submit/shutdown fuzz over two tenants (one adaptive):
 * every trySubmit either yields a future that becomes ready with a
 * value, or a counted reject; accounting balances exactly.  Run under
 * ASan/UBSan in CI, in both SIMD dispatch modes.
 */
TEST(ServingFrontend, ConcurrentSubmitShutdownFuzz)
{
    const auto samples = testImages(4);
    for (int round = 0; round < 3; ++round) {
        auto fe = std::make_unique<ServingFrontend>(FrontendOptions{
            .workers = 2,
            .maxBatch = 3,
            .policy = SchedPolicy::WeightedFair});
        fe->addModel("m", core::buildTinyCnn(3), engineOpts(64));
        TenantConfig a = tenant("a");
        a.queueCapacity = 4; // small: exercises the reject path
        TenantConfig b = tenant("b");
        b.queueCapacity = 4;
        b.adaptive = true;
        b.policy.checkpointCycles = 64;
        b.policy.minCycles = 0;
        b.shed.enabled = true;
        b.shed.startLoad = 0.25;
        b.shed.minCyclesFloor = 0;
        fe->addTenant(a);
        fe->addTenant(b);

        constexpr int kProducers = 4;
        constexpr int kPerProducer = 12;
        std::atomic<int> accepted{0};
        std::atomic<int> rejected{0};
        std::atomic<int> served{0};
        std::vector<std::thread> producers;
        producers.reserve(kProducers);
        for (int p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                const std::string name = p % 2 ? "a" : "b";
                for (int i = 0; i < kPerProducer; ++i) {
                    auto f = fe->trySubmit(
                        name,
                        samples[static_cast<std::size_t>((p + i) % 4)]
                            .image);
                    if (!f) {
                        rejected.fetch_add(1);
                        continue;
                    }
                    accepted.fetch_add(1);
                    const ServedResult r = f->get();
                    if (r.prediction.scores.size() == 10)
                        served.fetch_add(1);
                }
            });
        }
        std::thread stopper([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            fe->shutdown();
        });
        for (auto &t : producers)
            t.join();
        stopper.join();

        EXPECT_EQ(accepted.load() + rejected.load(),
                  kProducers * kPerProducer);
        EXPECT_EQ(served.load(), accepted.load());
        const TenantStats sa = fe->tenantStats("a");
        const TenantStats sb = fe->tenantStats("b");
        EXPECT_EQ(sa.submitted + sb.submitted,
                  static_cast<std::uint64_t>(accepted.load()));
        EXPECT_EQ(sa.completed + sb.completed,
                  static_cast<std::uint64_t>(accepted.load()));
        EXPECT_EQ(sa.failed + sb.failed, 0u);
        fe.reset(); // destructor path after explicit shutdown
    }
}

} // namespace
} // namespace aqfpsc::serving
