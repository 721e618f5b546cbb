/**
 * @file
 * Differential and concurrency tests of core::PlanCache — the contract
 * that interning compiled plans and per-stage weight state is
 * observationally invisible: a cache-hit engine is bit-identical to a
 * cold-compiled one on every stream backend, deterministic and
 * adaptive, at every cohort size.  Plus: hit/miss/eviction accounting,
 * cross-model StageShared sharing (pointer equality), a
 * ServingFrontend regression pinning one compile per unique
 * (model, backend) pair, and a multi-threaded compile/destroy stress
 * run for the sanitizer jobs.
 *
 * Every cache-behaviour test skips itself when the cache is disabled
 * (AQFPSC_DISABLE_PLAN_CACHE=1), so the CI smoke comparison of both
 * modes sees identical outcomes from the rest of the suite.
 */

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "core/plan_cache.h"
#include "core/session.h"
#include "core/stages/aqfp_conv_stage.h"
#include "core/stages/aqfp_dense_stage.h"
#include "core/stages/cmos_conv_stage.h"
#include "core/stages/cmos_dense_stage.h"
#include "core/stages/stage.h"
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

/** RAII guard: start the test from a cold cache and restore whatever
 *  enabled-mode the process default (env-derived) was, so tests that
 *  toggle setEnabled cannot leak into later tests and the
 *  AQFPSC_DISABLE_PLAN_CACHE=1 CI run keeps its semantics. */
class CacheGuard
{
  public:
    CacheGuard() : restore_(PlanCache::instance().enabled())
    {
        PlanCache::instance().clear();
    }
    ~CacheGuard()
    {
        PlanCache::instance().setEnabled(restore_);
        PlanCache::instance().clear();
    }

  private:
    bool restore_;
};

/** Number of weighted (stream-carrying) stages of an engine's plan. */
std::size_t
sharedStageCount(const ScNetworkEngine &engine)
{
    std::size_t n = 0;
    for (std::size_t s = 0; s < engine.plan().stageCount(); ++s) {
        if (engine.plan().stage(s).sharedState() != nullptr)
            ++n;
    }
    return n;
}

/**
 * Cold-compiled vs cache-hit engines are bitwise identical on every
 * stream backend, deterministic + adaptive, cohort 1/4/8.  "Cold" is
 * compiled with interning switched off — nothing consulted, nothing
 * stored — and "warm" engines are compiled twice with the cache on, so
 * the second is a pure plan-level hit.
 */
TEST(PlanCacheDifferential, CachedEqualsColdOnAllStreamBackends)
{
    if (!PlanCache::instance().enabled())
        GTEST_SKIP() << "plan cache disabled via environment";
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

        // Cold reference: interning off, nothing shared.
        PlanCache::instance().setEnabled(false);
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

        PlanCache::instance().setEnabled(true);
        const InferenceSession warm1(buildModel(c.model, 3), opts);
        (void)warm1.engine();
        const InferenceSession warm2(buildModel(c.model, 3), opts);
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

/** The direct compiler contract: compileNetwork (cached) and
 *  compileNetworkUncached produce plans with pointer-shared stage state
 *  and the uncached path never consults the plan map. */
TEST(PlanCacheDifferential, UncachedCompileBypassesPlanMap)
{
    if (!PlanCache::instance().enabled())
        GTEST_SKIP() << "plan cache disabled via environment";
    CacheGuard guard;
    const nn::Network net = buildTinyCnn(3);
    const EngineOptions cfg = makeOptions("aqfp-sorter", 128);

    const auto plan = stages::compileNetwork(net, cfg);
    const PlanCacheStats after_first = PlanCache::instance().stats();
    EXPECT_EQ(after_first.planMisses, 1u);
    EXPECT_EQ(after_first.planHits, 0u);

    const stages::ExecutionPlan direct =
        stages::compileNetworkUncached(net, cfg);
    const PlanCacheStats after_direct = PlanCache::instance().stats();
    EXPECT_EQ(after_direct.planMisses, 1u)
        << "uncached compile must not touch the plan map";
    // Stage-level interning still applies: the direct plan's stages
    // share state with the cached plan's.
    ASSERT_EQ(direct.stageCount(), plan->stageCount());
    for (std::size_t s = 0; s < direct.stageCount(); ++s)
        EXPECT_EQ(direct.stage(s).sharedState(),
                  plan->stage(s).sharedState())
            << s;
}

/** Hit/miss/eviction counters and the resident gauges. */
TEST(PlanCacheCounters, HitMissEvictionAccounting)
{
    if (!PlanCache::instance().enabled())
        GTEST_SKIP() << "plan cache disabled via environment";
    CacheGuard guard;
    const EngineOptions opts = makeOptions("aqfp-sorter", 128);

    {
        const InferenceSession a(buildTinyCnn(3), opts);
        (void)a.engine();
        const std::size_t weighted = sharedStageCount(a.engine());
        ASSERT_GT(weighted, 0u);

        PlanCacheStats s = PlanCache::instance().stats();
        EXPECT_EQ(s.planMisses, 1u);
        EXPECT_EQ(s.planHits, 0u);
        EXPECT_EQ(s.stageMisses, weighted);
        EXPECT_EQ(s.stageHits, 0u);
        EXPECT_EQ(s.evictions, 0u);
        EXPECT_EQ(s.residentPlans, 1u);
        EXPECT_EQ(s.residentStages, weighted);
        EXPECT_GT(s.residentBytes, 0u);
        EXPECT_EQ(s.hits, s.planHits + s.stageHits);
        EXPECT_EQ(s.misses, s.planMisses + s.stageMisses);

        // Identical spec: one plan-level hit, no stage work at all.
        const InferenceSession b(buildTinyCnn(3), opts);
        (void)b.engine();
        s = PlanCache::instance().stats();
        EXPECT_EQ(s.planHits, 1u);
        EXPECT_EQ(s.planMisses, 1u);
        EXPECT_EQ(s.stageMisses, weighted);
        EXPECT_EQ(s.stageHits, 0u);
        EXPECT_EQ(s.residentBytes,
                  [&] {
                      std::size_t bytes = 0;
                      for (std::size_t i = 0;
                           i < a.engine().plan().stageCount(); ++i) {
                          if (const auto *shared =
                                  a.engine().plan().stage(i).sharedState())
                              bytes += shared->bytes;
                      }
                      return bytes;
                  }())
            << "two sessions, one resident copy";
    }
    // Engines destroyed: the weak entries expire and the next stats()
    // sweep counts them as evictions.
    const PlanCacheStats s = PlanCache::instance().stats();
    EXPECT_EQ(s.residentPlans, 0u);
    EXPECT_EQ(s.residentStages, 0u);
    EXPECT_EQ(s.residentBytes, 0u);
    EXPECT_GT(s.evictions, 0u);
}

/**
 * Two different models sharing an identical prefix layer share one
 * StageShared: same seed and same first-layer parameters put the
 * compiler RNG in the same pre-generation state, so the stage spec
 * matches even though the plans differ (a later layer was perturbed).
 * The perturbed model still scores bit-identically to its own cold
 * compile — the RNG fast-forward on the prefix hit kept the downstream
 * stream draws aligned.
 */
TEST(PlanCacheSharing, ModelsSharingALayerShareOneStageState)
{
    if (!PlanCache::instance().enabled())
        GTEST_SKIP() << "plan cache disabled via environment";
    CacheGuard guard;
    const auto samples = testImages(4);
    const EngineOptions opts = makeOptions("aqfp-sorter", 128);

    auto buildPerturbed = [] {
        nn::Network net = buildTinyCnn(3);
        // Perturb the final Dense layer's weights: the conv prefix stays
        // spec-identical, the plan does not.
        auto params = net.layer(net.layerCount() - 1).params();
        (*params[0])[0] += 0.25f;
        return net;
    };

    // Cold reference of the perturbed model before any sharing exists.
    PlanCache::instance().setEnabled(false);
    const InferenceSession cold_b(buildPerturbed(), opts);
    const std::uint64_t golden_b = scoreHash(cold_b.predict(samples));
    PlanCache::instance().setEnabled(true);
    PlanCache::instance().clear();

    const InferenceSession a(buildTinyCnn(3), opts);
    (void)a.engine();
    const InferenceSession b(buildPerturbed(), opts);
    (void)b.engine();

    EXPECT_NE(&a.engine().plan(), &b.engine().plan());
    const stages::StageShared *conv_a =
        a.engine().plan().stage(0).sharedState();
    const stages::StageShared *conv_b =
        b.engine().plan().stage(0).sharedState();
    ASSERT_NE(conv_a, nullptr);
    EXPECT_EQ(conv_a, conv_b)
        << "identical prefix layers must intern to one StageShared";

    // Every weighted stage ahead of the perturbed output layer is
    // shared: conv + hidden dense in the tiny zoo model.
    const PlanCacheStats s = PlanCache::instance().stats();
    EXPECT_EQ(s.planMisses, 2u);
    EXPECT_EQ(s.stageHits, sharedStageCount(a.engine()) - 1)
        << "all prefix stages shared, only the perturbed output differs";

    // Bit-identity survived the prefix hit.
    EXPECT_EQ(scoreHash(b.predict(samples)), golden_b);
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

/** A plan-level hit and a stage-level hit both hand back the operand
 *  plan of the first compile, not a copy. */
TEST(PlanCacheSharing, HitsShareTheOperandPlan)
{
    if (!PlanCache::instance().enabled())
        GTEST_SKIP() << "plan cache disabled via environment";
    CacheGuard guard;
    const EngineOptions opts = makeOptions("aqfp-sorter", 128);
    const InferenceSession a(buildTinyCnn(3), opts);
    const InferenceSession b(buildTinyCnn(3), opts);
    nn::Network perturbed = buildTinyCnn(3);
    (*perturbed.layer(perturbed.layerCount() - 1).params()[0])[0] += 0.25f;
    const InferenceSession c(std::move(perturbed), opts);
    EXPECT_EQ(&a.engine().plan(), &b.engine().plan());
    EXPECT_NE(&a.engine().plan(), &c.engine().plan());
    std::size_t plans = 0;
    for (std::size_t s = 0; s < a.engine().plan().stageCount(); ++s) {
        const stages::StageShared *shared =
            a.engine().plan().stage(s).sharedState();
        if (shared == nullptr || shared->plan.rows() == 0)
            continue;
        ++plans;
        EXPECT_EQ(shared->plan.rows(),
                  a.engine().plan().stage(s).footprint().outputRows);
        EXPECT_EQ(&c.engine().plan().stage(s).sharedState()->plan,
                  &shared->plan)
            << "stage " << s << ": the stage-level hit copied the plan";
    }
    EXPECT_EQ(plans, 2u) << "tiny's conv and hidden dense";
}

/** ServingFrontend regression: identical (model, backend) pairs compile
 *  exactly once across tenants and across identically-registered
 *  models, and the health snapshot surfaces the cache counters. */
TEST(PlanCacheServing, OneCompilePerUniqueModelBackendPair)
{
    if (!PlanCache::instance().enabled())
        GTEST_SKIP() << "plan cache disabled via environment";
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
    EXPECT_EQ(health.planCache.planMisses, 1u)
        << "one compile per unique (model, backend) pair";
    EXPECT_EQ(health.planCache.planHits, 1u)
        << "the identical twin model must hit";
    EXPECT_EQ(health.planCache.stageMisses,
              sharedStageCount(fe.model("m").engine()));
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
    const bool enabled = PlanCache::instance().enabled();
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
    EXPECT_EQ(s.planHits + s.planMisses, compiles.load())
        << "every compile is exactly one of {hit, miss}";
    EXPECT_EQ(s.residentPlans, 0u) << "all engines destroyed";
    EXPECT_EQ(s.residentStages, 0u);
    EXPECT_EQ(s.residentBytes, 0u);
    if (enabled) {
        // Misses can exceed the spec count (weak entries expire between
        // generations, racing builds discard duplicates) but every miss
        // belongs to some spec generation — and hits never exceed the
        // compile total minus one miss per spec.
        EXPECT_GE(s.planMisses, std::size(specs));
        EXPECT_LE(s.planHits + s.planMisses, compiles.load() + 0u);
    } else {
        EXPECT_EQ(s.planMisses, compiles.load());
        EXPECT_EQ(s.planHits, 0u);
    }
}

/**
 * Pointer-equality under contention: many threads interning the same
 * spec while holding their engines alive must agree on one plan object.
 */
TEST(PlanCacheConcurrency, RacingIdenticalCompilesAgreeOnOnePlan)
{
    if (!PlanCache::instance().enabled())
        GTEST_SKIP() << "plan cache disabled via environment";
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
