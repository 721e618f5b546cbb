/**
 * @file
 * Differential and concurrency tests of core::PlanCache — the contract
 * that interning compiled plans is observationally invisible: a
 * cache-hit engine is bit-identical to a cold-compiled one on every
 * stream backend, deterministic and adaptive, at every cohort size.
 * Plus: the key (exactly the compile inputs select a plan), hit/miss/
 * eviction accounting and the sweep of dead entries, a ServingFrontend
 * regression pinning one compile per unique (model, backend) pair, and
 * a multi-threaded compile/destroy stress run for the sanitizer jobs.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "core/plan_cache.h"
#include "core/session.h"
#include "core/stages/stage.h"
#include "core/stages/stage_common.h"
#include "core/stages/stage_compiler.h"
#include "data/digits.h"
#include "nn/layers.h"
#include "serving/frontend.h"

namespace aqfpsc::core {
namespace {

std::vector<nn::Sample>
testImages(int count = 6)
{
    return data::generateDigits(count, 33);
}

EngineOptions
makeOptions(const std::string &backend, std::size_t stream_len)
{
    EngineOptions opts;
    opts.backend = backend;
    opts.streamLen = stream_len;
    return opts;
}

/** FNV-1a over the hexfloat rendering of every score (the test_cohort
 *  idiom): any bit drift in any class of any image changes the hash. */
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

/** RAII guard: start the test from an empty cache and leave one
 *  behind, so no test sees another's entries or counters. */
class CacheGuard
{
  public:
    CacheGuard() { PlanCache::instance().clear(); }
    ~CacheGuard() { PlanCache::instance().clear(); }
};

/** StageShared::bytes summed over @p plan's stages: what the cache
 *  reports resident for it. */
std::size_t
planBytes(const stages::ExecutionPlan &plan)
{
    std::size_t bytes = 0;
    for (std::size_t s = 0; s < plan.stageCount(); ++s) {
        if (const stages::StageShared *shared = plan.stage(s).sharedState())
            bytes += shared->bytes;
    }
    return bytes;
}

/** Expect @p a and @p b to hold the same streams, word for word. */
void
expectSameWords(const sc::StreamMatrix &a, const sc::StreamMatrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.streamLen(), b.streamLen());
    ASSERT_EQ(a.wordsPerRow(), b.wordsPerRow());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t w = 0; w < a.wordsPerRow(); ++w)
            ASSERT_EQ(a.row(r)[w], b.row(r)[w]) << "row " << r << " word " << w;
    }
}

/**
 * Cold-compiled vs cache-hit engines are bitwise identical on every
 * stream backend, deterministic + adaptive, cohort 1/4/8.  The cold
 * reference compiles into an empty cache and is then dropped from it
 * (clear()), so the first warm engine compiles its own plan and the
 * second is a pure plan-level hit.
 */
TEST(PlanCacheDifferential, CachedEqualsColdOnAllStreamBackends)
{
    const auto samples = testImages();
    struct Case
    {
        const char *model;
        const char *backend;
        std::size_t len;
    };
    const Case cases[] = {
        {"tiny", "aqfp-sorter", 192},
        {"tiny", "cmos-apc", 192},
        {"snn", "aqfp-sorter", 64},
        {"snn", "cmos-apc", 64},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.model) + "/" + c.backend +
                     " len=" + std::to_string(c.len));
        CacheGuard guard;
        const EngineOptions opts = makeOptions(c.backend, c.len);

        const InferenceSession cold(buildModel(c.model, 3), opts);
        std::vector<std::uint64_t> goldens;
        for (const int cohort : {1, 4, 8}) {
            EvalOptions eval;
            eval.cohort = cohort;
            goldens.push_back(scoreHash(cold.predict(samples, eval)));
        }
        // All cohort sizes agree (the PR3/PR4 contract) — one golden.
        EXPECT_EQ(goldens[0], goldens[1]);
        EXPECT_EQ(goldens[0], goldens[2]);
        std::vector<AdaptivePrediction> cold_adaptive;
        for (const auto &s : samples)
            cold_adaptive.push_back(cold.inferAdaptive(s.image));

        PlanCache::instance().clear();
        const InferenceSession warm1(buildModel(c.model, 3), opts);
        (void)warm1.engine();
        const InferenceSession warm2(buildModel(c.model, 3), opts);
        EXPECT_NE(&cold.engine().plan(), &warm1.engine().plan());
        EXPECT_EQ(&warm1.engine().plan(), &warm2.engine().plan())
            << "identical specs must intern to one plan";

        for (const InferenceSession *warm : {&warm1, &warm2}) {
            for (const int cohort : {1, 4, 8}) {
                SCOPED_TRACE("cohort=" + std::to_string(cohort));
                EvalOptions eval;
                eval.cohort = cohort;
                EXPECT_EQ(scoreHash(warm->predict(samples, eval)),
                          goldens[0]);
            }
            for (std::size_t i = 0; i < samples.size(); ++i) {
                const AdaptivePrediction p =
                    warm->inferAdaptive(samples[i].image);
                EXPECT_EQ(p.prediction.scores,
                          cold_adaptive[i].prediction.scores)
                    << i;
                EXPECT_EQ(p.consumedCycles, cold_adaptive[i].consumedCycles)
                    << i;
                EXPECT_EQ(p.exitedEarly, cold_adaptive[i].exitedEarly) << i;
            }
        }
    }
}

/** The direct compiler contract: compileNetworkUncached never touches
 *  the cache, and it draws the same parameter streams, word for word,
 *  as the plan compileNetwork interned. */
TEST(PlanCacheDifferential, UncachedCompileBypassesPlanMap)
{
    CacheGuard guard;
    const nn::Network net = buildTinyCnn(3);
    for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
        SCOPED_TRACE(backend);
        PlanCache::instance().clear();
        const EngineOptions cfg = makeOptions(backend, 128);

        const auto plan = stages::compileNetwork(net, cfg);
        const stages::ExecutionPlan direct =
            stages::compileNetworkUncached(net, cfg);
        const PlanCacheStats s = PlanCache::instance().stats();
        EXPECT_EQ(s.misses, 1u);
        EXPECT_EQ(s.hits, 0u);
        EXPECT_EQ(s.residentPlans, 1u)
            << "uncached compile must not touch the plan map";

        ASSERT_EQ(direct.stageCount(), plan->stageCount());
        std::size_t weighted = 0;
        for (std::size_t st = 0; st < direct.stageCount(); ++st) {
            SCOPED_TRACE("stage " + std::to_string(st));
            const stages::StageShared *interned =
                plan->stage(st).sharedState();
            const stages::StageShared *cold = direct.stage(st).sharedState();
            ASSERT_EQ(interned == nullptr, cold == nullptr);
            if (interned == nullptr)
                continue;
            ++weighted;
            EXPECT_NE(interned, cold);
            expectSameWords(interned->streams.weights, cold->streams.weights);
            expectSameWords(interned->streams.biases, cold->streams.biases);
            expectSameWords(interned->streams.neutral, cold->streams.neutral);
            EXPECT_EQ(interned->bytes, cold->bytes);
        }
        EXPECT_EQ(weighted, 3u) << "tiny's conv, hidden dense and output";
    }
}

/** A two-layer dense network with every parameter 0.5 (on every SNG
 *  grid), so two shapes can flatten to the same parameter vector. */
nn::Network
constantDenseNet(int in, int hidden, int out)
{
    nn::Network net;
    net.add(std::make_unique<nn::Dense>(in, hidden, 1));
    net.add(std::make_unique<nn::HardTanh>());
    net.add(std::make_unique<nn::Dense>(hidden, out, 2));
    for (std::size_t li = 0; li < net.layerCount(); ++li) {
        for (std::vector<float> *block : net.layer(li).params())
            std::fill(block->begin(), block->end(), 0.5f);
    }
    net.quantizeParams(8);
    return net;
}

/**
 * With whole plans the only interned level, PlanSpec equality alone
 * decides whether two compiles share streams.  Each row changes one
 * input against a base compile: every input of stream generation gives
 * a different plan, and execution-only options give the same one.
 */
TEST(PlanCacheKey, ExactlyTheCompileInputsSelectThePlan)
{
    CacheGuard guard;
    const EngineOptions base_opts = makeOptions("aqfp-sorter", 128);
    const auto base =
        stages::compileNetwork(constantDenseNet(2, 3, 2), base_opts);
    ASSERT_EQ(base->stageCount(), 2u);
    using Change = void (*)(nn::Network &, EngineOptions &);
    struct Row
    {
        const char *input;
        bool samePlan;
        Change change;
    };
    const Row rows[] = {
        {"backend", false,
         [](nn::Network &, EngineOptions &o) { o.backend = "cmos-apc"; }},
        {"streamLen", false,
         [](nn::Network &, EngineOptions &o) { o.streamLen = 192; }},
        {"one stageStreamLens entry", false,
         [](nn::Network &, EngineOptions &o) {
             o.stageStreamLens = {128, 64};
         }},
        {"rngBits", false,
         [](nn::Network &, EngineOptions &o) { o.rngBits = 9; }},
        {"seed", false, [](nn::Network &, EngineOptions &o) { ++o.seed; }},
        {"quantBits", false,
         [](nn::Network &net, EngineOptions &) {
             // 0.5 lies on both grids: only the recorded width changes.
             net.quantizeParams(10);
             EXPECT_EQ((*net.layer(0).params()[0])[0], 0.5f);
         }},
        {"a layer's shape", false,
         [](nn::Network &net, EngineOptions &) {
             // 3x2 + 2 + 2x3 + 3 = 17 parameters, all 0.5, as in 2-3-2.
             net = constantDenseNet(3, 2, 3);
         }},
        {"one parameter", false,
         [](nn::Network &net, EngineOptions &) {
             (*net.layer(2).params()[1])[1] = 0.25f;
         }},
        {"threads", true,
         [](nn::Network &, EngineOptions &o) { o.threads = 3; }},
        {"cohort", true,
         [](nn::Network &, EngineOptions &o) { o.cohort = 8; }},
        {"adaptive policy", true,
         [](nn::Network &, EngineOptions &o) {
             o.adaptive.exitMargin = 0.5;
             o.adaptive.minCycles = 64;
         }},
        {"stageStreamLens spelled uniformly", true,
         [](nn::Network &, EngineOptions &o) {
             o.stageStreamLens = {128, 128};
         }},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.input);
        nn::Network net = constantDenseNet(2, 3, 2);
        EngineOptions opts = base_opts;
        row.change(net, opts);
        const auto plan = stages::compileNetwork(net, opts);
        EXPECT_EQ(plan == base, row.samePlan);
    }
}

/** Hit/miss counters and the resident gauges. */
TEST(PlanCacheCounters, HitMissEvictionAccounting)
{
    CacheGuard guard;
    const EngineOptions opts = makeOptions("aqfp-sorter", 128);

    {
        const InferenceSession a(buildTinyCnn(3), opts);
        (void)a.engine();
        const std::size_t bytes = planBytes(a.engine().plan());
        ASSERT_GT(bytes, 0u);

        PlanCacheStats s = PlanCache::instance().stats();
        EXPECT_EQ(s.misses, 1u);
        EXPECT_EQ(s.hits, 0u);
        EXPECT_EQ(s.evictions, 0u);
        EXPECT_EQ(s.residentPlans, 1u);
        EXPECT_EQ(s.residentBytes, bytes);

        // Identical spec: one plan-level hit, no stage work at all.
        const InferenceSession b(buildTinyCnn(3), opts);
        (void)b.engine();
        s = PlanCache::instance().stats();
        EXPECT_EQ(s.hits, 1u);
        EXPECT_EQ(s.misses, 1u);
        EXPECT_EQ(s.residentPlans, 1u);
        EXPECT_EQ(s.residentBytes, bytes) << "two sessions, one resident copy";
    }
    // Engines destroyed: the gauges count live plans only.
    const PlanCacheStats s = PlanCache::instance().stats();
    EXPECT_EQ(s.residentPlans, 0u);
    EXPECT_EQ(s.residentBytes, 0u);
}

/**
 * A dead entry's key holds a copy of every parameter, so a miss sweeps
 * the dead entries before it inserts, and stats() erases nothing.
 * Compile and destroy spec A, then spec B: B's miss evicted A, and B's
 * own dead entry waits for the next miss.
 */
TEST(PlanCacheCounters, AMissSweepsDeadEntries)
{
    CacheGuard guard;
    const nn::Network net = buildTinyCnn(3);
    EngineOptions a = makeOptions("cmos-apc", 64);
    EngineOptions b = a;
    b.seed = a.seed + 1;

    (void)stages::compileNetwork(net, a);
    PlanCacheStats s = PlanCache::instance().stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.residentPlans, 0u);
    EXPECT_EQ(s.evictions, 0u) << "stats() erases nothing";

    (void)stages::compileNetwork(net, b);
    s = PlanCache::instance().stats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.residentPlans, 0u);
    EXPECT_EQ(s.evictions, 1u) << "B's miss swept A";

    (void)stages::compileNetwork(net, a);
    s = PlanCache::instance().stats();
    EXPECT_EQ(s.misses, 3u) << "A's entry is gone";
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.evictions, 2u) << "A's second miss swept B";
}

/**
 * Expect @p plan to list, for every row of @p gather, exactly the
 * (input row, weight row) pairs gather.forEachProduct visits, in its
 * order, with m = products + 1 and the bias row @p bias_row_of(r).
 */
template <typename Gather, typename BiasRowOf>
void
expectPlanListsGatherPairs(const stages::OperandPlan &plan,
                           const Gather &gather, BiasRowOf bias_row_of)
{
    ASSERT_EQ(plan.rows(), gather.groups() * gather.rowsPerGroup());
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t r = 0; r < plan.rows(); ++r) {
        pairs.clear();
        const int n = gather.forEachProduct(
            r, [&](std::size_t xr, std::size_t wr) {
                pairs.emplace_back(xr, wr);
            });
        ASSERT_EQ(plan.m(r), n + 1) << "row " << r;
        ASSERT_EQ(plan.end(r) - plan.begin(r), pairs.size()) << "row " << r;
        for (std::size_t i = plan.begin(r); i < plan.end(r); ++i) {
            const auto &[xr, wr] = pairs[i - plan.begin(r)];
            ASSERT_EQ(plan.xrow[i], xr) << "row " << r << " entry " << i;
            ASSERT_EQ(plan.weightRow(r, i), wr)
                << "row " << r << " entry " << i;
        }
        ASSERT_EQ(plan.biasRow(r), bias_row_of(r)) << "row " << r;
    }
}

/**
 * Every linear stage of every zoo model, on both sorter and APC
 * backends, carries an operand plan that lists exactly the product
 * pairs its Gather visits, in visit order, and the plan is counted in
 * the stage's resident bytes.
 */
TEST(OperandPlan, ZooStagePlansListTheGatherPairsInOrder)
{
    for (const std::string &model : modelNames()) {
        for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
            SCOPED_TRACE(model + " " + backend);
            EngineOptions cfg;
            cfg.backend = backend;
            cfg.streamLen = 64;
            const ScNetworkEngine engine(buildModel(model, 3), cfg);
            std::size_t linear = 0;
            for (std::size_t s = 0; s < engine.plan().stageCount(); ++s) {
                const ScStage &stage = engine.plan().stage(s);
                SCOPED_TRACE(stage.name());
                const auto conv = [&](const auto *st) {
                    const stages::ConvGeometry &g = st->gather().g;
                    expectPlanListsGatherPairs(
                        st->sharedState()->plan, st->gather(),
                        [&g](std::size_t r) {
                            return r / (static_cast<std::size_t>(g.outH) *
                                        g.outW);
                        });
                };
                const auto dense = [&](const auto *st) {
                    expectPlanListsGatherPairs(st->sharedState()->plan,
                                               st->gather(),
                                               [](std::size_t r) { return r; });
                };
                if (const auto *st =
                        dynamic_cast<const stages::AqfpConvStage *>(&stage))
                    conv(st);
                else if (const auto *st = dynamic_cast<
                             const stages::CmosConvStage *>(&stage))
                    conv(st);
                else if (const auto *st = dynamic_cast<
                             const stages::AqfpDenseStage *>(&stage))
                    dense(st);
                else if (const auto *st = dynamic_cast<
                             const stages::CmosDenseStage *>(&stage))
                    dense(st);
                else
                    continue;
                ++linear;
                const stages::StageShared &shared = *stage.sharedState();
                EXPECT_EQ(shared.bytes,
                          stages::featureStreamBytes(shared.streams) +
                              shared.plan.bytes());
                if (HasFatalFailure())
                    return;
            }
            EXPECT_GT(linear, 0u);
        }
    }
}

/** A plan-level hit hands back the operand plans of the first compile,
 *  not copies. */
TEST(PlanCacheSharing, HitsShareTheOperandPlan)
{
    CacheGuard guard;
    const EngineOptions opts = makeOptions("aqfp-sorter", 128);
    const InferenceSession a(buildTinyCnn(3), opts);
    const InferenceSession b(buildTinyCnn(3), opts);
    ASSERT_EQ(&a.engine().plan(), &b.engine().plan());
    std::size_t plans = 0;
    for (std::size_t s = 0; s < a.engine().plan().stageCount(); ++s) {
        const stages::StageShared *shared =
            a.engine().plan().stage(s).sharedState();
        if (shared == nullptr || shared->plan.rows() == 0)
            continue;
        ++plans;
        EXPECT_EQ(shared->plan.rows(),
                  a.engine().plan().stage(s).footprint().outputRows);
        EXPECT_EQ(&b.engine().plan().stage(s).sharedState()->plan,
                  &shared->plan)
            << "stage " << s << ": the plan-level hit copied the plan";
    }
    EXPECT_EQ(plans, 2u) << "tiny's conv and hidden dense";
}

/** ServingFrontend regression: identical (model, backend) pairs compile
 *  exactly once across tenants and across identically-registered
 *  models, and the health snapshot surfaces the cache counters. */
TEST(PlanCacheServing, OneCompilePerUniqueModelBackendPair)
{
    CacheGuard guard;
    serving::FrontendOptions fopts;
    fopts.startPaused = true;
    serving::ServingFrontend fe(fopts);

    const EngineOptions opts = makeOptions("aqfp-sorter", 128);
    fe.addModel("m", buildTinyCnn(3), opts);
    fe.addModel("m2", buildTinyCnn(3), opts); // same content, new name

    serving::TenantConfig tenant;
    tenant.model = "m";
    tenant.name = "gold";
    fe.addTenant(tenant);
    tenant.name = "silver"; // same (model, backend): session-level reuse
    fe.addTenant(tenant);
    tenant.name = "bulk"; // same content via m2: plan-cache reuse
    tenant.model = "m2";
    fe.addTenant(tenant);

    const serving::HealthSnapshot health = fe.health();
    EXPECT_EQ(health.planCache.misses, 1u)
        << "one compile per unique (model, backend) pair";
    EXPECT_EQ(health.planCache.hits, 1u)
        << "the identical twin model must hit";
    EXPECT_EQ(&fe.model("m").engine().plan(),
              &fe.model("m2").engine().plan());
}

/**
 * Concurrent compile/destroy stress over overlapping specs: no lost
 * entries (equal specs always agree on one live plan), no use-after-free
 * on weak-ref expiry (sanitizer jobs run this in both dispatch modes),
 * and the counters add up: every internPlan call is classified as
 * exactly one of {hit, miss}.
 */
TEST(PlanCacheConcurrency, CompileDestroyStress)
{
    CacheGuard guard;
    const auto samples = testImages(1);
    const EngineOptions specs[] = {
        makeOptions("aqfp-sorter", 128),
        makeOptions("aqfp-sorter", 192),
        makeOptions("cmos-apc", 128),
        makeOptions("float-ref", 128),
    };
    constexpr int kThreads = 4;
    constexpr int kIterations = 6;
    std::atomic<std::uint64_t> compiles{0};
    std::atomic<int> failures{0};

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIterations; ++i) {
                const EngineOptions &opts =
                    specs[static_cast<std::size_t>(t + i) %
                          std::size(specs)];
                const InferenceSession session(buildTinyCnn(3), opts);
                const ScNetworkEngine &engine = session.engine();
                compiles.fetch_add(1, std::memory_order_relaxed);
                const ScPrediction p = engine.infer(samples[0].image);
                if (p.scores.size() != 10)
                    failures.fetch_add(1, std::memory_order_relaxed);
                // Session (and engine, and plan strong ref) die here —
                // racing other threads' lookups of the same spec.
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(failures.load(), 0);
    const PlanCacheStats s = PlanCache::instance().stats();
    EXPECT_EQ(s.hits + s.misses, compiles.load())
        << "every compile is exactly one of {hit, miss}";
    EXPECT_EQ(s.residentPlans, 0u) << "all engines destroyed";
    EXPECT_EQ(s.residentBytes, 0u);
    // Misses can exceed the spec count (entries expire between
    // generations, racing builds discard duplicates), but every spec
    // misses at least once.
    EXPECT_GE(s.misses, std::size(specs));
}

/**
 * Pointer-equality under contention: many threads interning the same
 * spec while holding their engines alive must agree on one plan object.
 */
TEST(PlanCacheConcurrency, RacingIdenticalCompilesAgreeOnOnePlan)
{
    CacheGuard guard;
    const EngineOptions opts = makeOptions("aqfp-sorter", 128);
    constexpr int kThreads = 8;
    std::vector<std::unique_ptr<InferenceSession>> sessions(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            sessions[static_cast<std::size_t>(t)] =
                std::make_unique<InferenceSession>(buildTinyCnn(3), opts);
            (void)sessions[static_cast<std::size_t>(t)]->engine();
        });
    }
    for (auto &th : threads)
        th.join();
    const stages::ExecutionPlan *plan = &sessions[0]->engine().plan();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(&sessions[static_cast<std::size_t>(t)]->engine().plan(),
                  plan)
            << t;
}

} // namespace
} // namespace aqfpsc::core
