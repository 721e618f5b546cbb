/**
 * @file
 * Golden-equivalence suite for the fused zero-allocation inference
 * kernels.
 *
 * The fused paths (ColumnCounts::addXnor / drive, lazy clear,
 * word-batched StreamMatrix::fillBipolar, the per-thread
 * StageWorkspace arena) must be bit-identical to the reference paths
 * they replaced (xnorProduct + addWords + extract + per-use feedback
 * units, bit-serial SNG fill, per-image allocation).  Coverage:
 *
 *  - kernel-level equivalence across random stream lengths (including
 *    non-multiple-of-64 tails) and odd/even stream counts;
 *  - an end-to-end golden dump (per-stage stream hashes + hexfloat
 *    scores) captured from the pre-fusion implementation for all three
 *    registered backends and two stream lengths — any bit drift in any
 *    stage of any backend fails the test;
 *  - workspace-reuse determinism (results independent of buffer reuse
 *    order) and a heap-allocation count proving the steady-state
 *    inference loop does not allocate inside the stage pipeline.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "blocks/feedback_unit.h"
#include "core/backend_registry.h"
#include "core/model_zoo.h"
#include "core/session.h"
#include "core/stages/stage.h"
#include "core/stages/stage_common.h"
#include "core/stages/stage_compiler.h"
#include "core/workspace.h"
#include "data/digits.h"
#include "sc/apc.h"
#include "sc/rng.h"
#include "sc/sng.h"
#include "sc/stream_matrix.h"

// ------------------------------------------------------------------------
// Global allocation counter: every operator new bumps it, so tests can
// assert that a code region performed no heap allocation.
// ------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_allocations{0};
}

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace aqfpsc;

// ------------------------------------------------------------------------
// Helpers
// ------------------------------------------------------------------------

/** Random packed streams with clean tails, via the real SNG fill. */
sc::StreamMatrix
randomStreams(std::size_t rows, std::size_t len, std::uint64_t seed)
{
    sc::StreamMatrix m(rows, len);
    sc::Xoshiro256StarStar rng(seed);
    for (std::size_t r = 0; r < rows; ++r) {
        const double value =
            2.0 * static_cast<double>((r * 2654435761u) % 1000) / 1000.0 -
            1.0;
        m.fillBipolar(r, value, 10, rng);
    }
    return m;
}

/** The pre-fusion reference accumulation: XNOR buffer + addWords. */
void
referenceAccumulate(sc::ColumnCounts &counts, const sc::StreamMatrix &x,
                    const sc::StreamMatrix &w)
{
    const std::size_t wpr = x.wordsPerRow();
    std::vector<std::uint64_t> prod(wpr);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        core::stages::xnorProduct(prod.data(), x.row(r), w.row(r), wpr);
        counts.addWords(prod.data(), wpr);
    }
}

const std::size_t kLens[] = {1, 37, 64, 100, 128, 129, 1000};

// ------------------------------------------------------------------------
// Kernel-level equivalence
// ------------------------------------------------------------------------

TEST(FusedKernels, AddXnorMatchesReferenceAccumulation)
{
    for (const std::size_t len : kLens) {
        for (const std::size_t m : {1u, 2u, 5u, 8u}) {
            const sc::StreamMatrix x = randomStreams(m, len, 100 + len);
            const sc::StreamMatrix w = randomStreams(m, len, 200 + len);

            sc::ColumnCounts ref(len, static_cast<int>(m) + 1);
            referenceAccumulate(ref, x, w);

            sc::ColumnCounts fused(len, static_cast<int>(m) + 1);
            for (std::size_t r = 0; r < m; ++r)
                fused.addXnor(x.row(r), w.row(r), x.wordsPerRow());

            std::vector<int> col;
            ref.extract(col);
            ASSERT_EQ(col.size(), len);
            std::size_t visited = 0;
            fused.forEachCount([&](std::size_t i, int c) {
                ASSERT_LT(i, len);
                EXPECT_EQ(c, col[i]) << "len=" << len << " m=" << m
                                     << " cycle=" << i;
                ++visited;
            });
            EXPECT_EQ(visited, len);
            // Random-access reads agree too.
            for (std::size_t i = 0; i < len; i += 7)
                EXPECT_EQ(fused.count(i), col[i]);
        }
    }
}

TEST(FusedKernels, DriveMatchesExtractPlusFeedbackUnit)
{
    for (const std::size_t len : kLens) {
        for (const int m : {3, 4, 9, 12}) { // odd and even stream counts
            const sc::StreamMatrix x =
                randomStreams(static_cast<std::size_t>(m), len, 300 + len);
            const sc::StreamMatrix w =
                randomStreams(static_cast<std::size_t>(m), len, 400 + len);

            sc::ColumnCounts counts(len, m + 1);
            for (int r = 0; r < m; ++r)
                counts.addXnor(x.row(static_cast<std::size_t>(r)),
                               w.row(static_cast<std::size_t>(r)),
                               x.wordsPerRow());

            const int eff_m = m % 2 == 1 ? m : m + 1;

            // Reference: materialized counts + per-use unit + bit sets.
            std::vector<int> col;
            counts.extract(col);
            std::vector<std::uint64_t> ref(counts.wordCount(), 0);
            blocks::FeatureFeedbackUnit ref_unit(eff_m);
            for (std::size_t i = 0; i < len; ++i) {
                if (ref_unit.step(col[i]))
                    core::stages::setStreamBit(ref.data(), i);
            }

            // Fused: drive into a dirty buffer — full words (tail bits
            // included) must be rewritten.
            std::vector<std::uint64_t> got(counts.wordCount(),
                                           ~0ULL); // poison
            blocks::FeatureFeedbackUnit unit(1);
            unit.reset(eff_m);
            counts.drive([&](int c) { return unit.step(c); }, got.data());
            EXPECT_EQ(got, ref) << "len=" << len << " m=" << m;

            // Pooling unit flavour as well.
            blocks::PoolingFeedbackUnit ref_pool(m);
            std::vector<std::uint64_t> pref(counts.wordCount(), 0);
            for (std::size_t i = 0; i < len; ++i) {
                if (ref_pool.step(col[i]))
                    core::stages::setStreamBit(pref.data(), i);
            }
            blocks::PoolingFeedbackUnit pool(1);
            pool.reset(m);
            std::vector<std::uint64_t> pgot(counts.wordCount(), ~0ULL);
            counts.drive([&](int c) { return pool.step(c); }, pgot.data());
            EXPECT_EQ(pgot, pref) << "len=" << len << " m=" << m;
        }
    }
}

TEST(FusedKernels, LazyClearBehavesLikeFreshCounter)
{
    const std::size_t len = 200; // non-multiple-of-64 tail
    sc::ColumnCounts reused(len, 16);
    // Cycle through accumulations of shrinking and growing sizes so the
    // dirty-plane high-water mark rises and falls.
    for (const int m : {15, 1, 7, 2, 15, 3}) {
        const sc::StreamMatrix x =
            randomStreams(static_cast<std::size_t>(m), len,
                          700 + static_cast<std::size_t>(m));
        const sc::StreamMatrix w =
            randomStreams(static_cast<std::size_t>(m), len,
                          800 + static_cast<std::size_t>(m));

        reused.clear();
        EXPECT_EQ(reused.added(), 0);
        sc::ColumnCounts fresh(len, 16);
        for (int r = 0; r < m; ++r) {
            reused.addXnor(x.row(static_cast<std::size_t>(r)),
                           w.row(static_cast<std::size_t>(r)),
                           x.wordsPerRow());
            fresh.addXnor(x.row(static_cast<std::size_t>(r)),
                          w.row(static_cast<std::size_t>(r)),
                          x.wordsPerRow());
        }
        std::vector<int> a, b;
        reused.extract(a);
        fresh.extract(b);
        EXPECT_EQ(a, b) << "m=" << m;
    }
}

TEST(FusedKernels, FillBipolarMatchesBitSerialReference)
{
    const double values[] = {-1.0, -0.5, 0.0, 0.3, 0.999, 1.0};
    for (const std::size_t len : kLens) {
        for (const int bits : {4, 10}) {
            // Both generators start from the same seed; the batched fill
            // must consume the RNG in exactly the bit-serial order.
            sc::Xoshiro256StarStar rng(42 + len);
            sc::Xoshiro256StarStar ref_rng(42 + len);
            sc::StreamMatrix m(std::size(values), len);
            for (std::size_t r = 0; r < std::size(values); ++r)
                m.fillBipolar(r, values[r], bits, rng);

            for (std::size_t r = 0; r < std::size(values); ++r) {
                const std::uint32_t code =
                    sc::quantizeBipolar(values[r], bits);
                for (std::size_t w = 0; w < m.wordsPerRow(); ++w) {
                    std::uint64_t word = 0;
                    const std::size_t hi =
                        len - w * 64 < 64 ? len - w * 64 : 64;
                    for (std::size_t b = 0; b < hi; ++b) {
                        if (ref_rng.nextBits(bits) < code)
                            word |= 1ULL << b;
                    }
                    EXPECT_EQ(m.row(r)[w], word)
                        << "len=" << len << " bits=" << bits
                        << " value=" << values[r] << " word=" << w;
                }
            }
            // The two generators must leave in identical states (the
            // batched fill drew exactly len words per row).
            EXPECT_EQ(rng.nextWord(), ref_rng.nextWord());
        }
    }
}

TEST(FusedKernels, FeedbackUnitResetRearmsLikeConstruction)
{
    sc::Xoshiro256StarStar rng(9);
    blocks::FeatureFeedbackUnit reused(1);
    blocks::PoolingFeedbackUnit pool_reused(1);
    for (const int m : {1, 3, 9, 25, 9, 3}) {
        blocks::FeatureFeedbackUnit fresh(m);
        reused.reset(m);
        EXPECT_EQ(reused.m(), fresh.m());
        EXPECT_EQ(reused.carry(), fresh.carry());
        blocks::PoolingFeedbackUnit pool_fresh(m);
        pool_reused.reset(m);
        for (int i = 0; i < 200; ++i) {
            const int c = static_cast<int>(rng.nextBits(16)) % (m + 1);
            EXPECT_EQ(reused.step(c), fresh.step(c));
            EXPECT_EQ(pool_reused.step(c), pool_fresh.step(c));
        }
        EXPECT_EQ(reused.carry(), fresh.carry());
        EXPECT_EQ(pool_reused.carry(), pool_fresh.carry());
    }
}

// ------------------------------------------------------------------------
// End-to-end golden equivalence
// ------------------------------------------------------------------------

std::uint64_t
fnv1a(std::uint64_t h, const std::uint64_t *words, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t w = words[i];
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xFF;
            h *= 0x100000001B3ULL;
        }
    }
    return h;
}

std::uint64_t
hashMatrix(const sc::StreamMatrix &m)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (std::size_t r = 0; r < m.rows(); ++r)
        h = fnv1a(h, m.row(r), m.wordsPerRow());
    return h;
}

/**
 * Walk one engine configuration stage by stage, recording a hash of
 * every intermediate stream matrix and the final hexfloat scores.  This
 * is exactly the procedure that produced kGoldenDump on the pre-fusion
 * implementation (PR 2's per-pixel reference kernels).
 */
std::string
dumpConfig(const std::string &backend, std::size_t len, std::uint64_t seed,
           const std::vector<nn::Sample> &samples)
{
    core::EngineOptions opts;
    opts.backend = backend;
    opts.streamLen = len;
    opts.seed = seed;
    core::InferenceSession session(core::buildModel("tiny", 3), opts);
    const core::ScNetworkEngine &engine = session.engine();
    const bool streams =
        core::BackendRegistry::instance().backend(backend).streams;

    std::string out;
    char buf[256];
    std::vector<std::vector<double>> walked; // the walk's scores per image
    for (std::size_t idx = 0; idx < samples.size(); ++idx) {
        const nn::Tensor &image = samples[idx].image;
        core::StageContext ctx;
        ctx.imageSeed = sc::deriveStreamSeed(seed, idx);
        ctx.image = &image;
        sc::StreamMatrix cur;
        if (streams) {
            cur = sc::StreamMatrix(image.size(), len);
            sc::Xoshiro256StarStar rng(ctx.imageSeed ^ 0xABCDEF12345ULL);
            for (std::size_t i = 0; i < image.size(); ++i)
                cur.fillBipolar(i, image[i], opts.rngBits, rng);
        }
        std::snprintf(buf, sizeof(buf), "%s len=%zu seed=%" PRIu64
                      " img=%zu in=%016" PRIx64 "\n",
                      backend.c_str(), len, seed, idx, hashMatrix(cur));
        out += buf;
        for (std::size_t s = 0; s < engine.stageCount(); ++s) {
            const core::ScStage &stage = engine.stage(s);
            const std::unique_ptr<core::StageScratch> scratch =
                stage.makeScratch();
            sc::StreamMatrix next;
            const core::CohortSlot slot{&cur, &next, &ctx, scratch.get()};
            stage.runCohortSpan(&slot, 1, 0, engine.plan().stageStreamLens[s]);
            if (stage.terminal())
                break;
            cur = std::move(next);
            std::snprintf(buf, sizeof(buf), "  stage%zu=%016" PRIx64 "\n", s,
                          hashMatrix(cur));
            out += buf;
        }
        out += "  scores";
        for (double v : ctx.scores) {
            std::snprintf(buf, sizeof(buf), " %a", v);
            out += buf;
        }
        out += "\n";
        // Cross-check: the engine loop (inferIndexed) agrees with the
        // stage-by-stage walk bit for bit.
        const core::ScPrediction p = engine.inferIndexed(image, idx);
        EXPECT_EQ(p.scores, ctx.scores) << backend << " img=" << idx;
        std::snprintf(buf, sizeof(buf), "  label=%d\n", p.label);
        out += buf;
        walked.push_back(ctx.scores);
    }
    // And so does a multi-image cohort of the same loop.
    core::EvalOptions cohort;
    cohort.cohort = 3;
    const std::vector<core::ScPrediction> batch =
        engine.predict(samples, cohort);
    for (std::size_t idx = 0; idx < samples.size(); ++idx)
        EXPECT_EQ(batch[idx].scores, walked[idx])
            << backend << " img=" << idx << " (predict at cohort 3)";
    return out;
}

/** Captured from the pre-fusion implementation (seed of this PR). */
const char *const kGoldenDump =
    R"(aqfp-sorter len=192 seed=7 img=0 in=463d3e84a8f3ce15
  stage0=f9eade94e33a8709
  stage1=d4183d600a0a2353
  stage2=0e0d9fef23b0d0e7
  stage3=0ac2aa9bddb55f0d
  scores -0x1.9555555555554p-3 -0x1.9555555555554p-3 -0x1.aaaaaaaaaaabp-5 -0x1.aaaaaaaaaaabp-5 0x1.aaaaaaaaaaaap-5 0x1.8p-4 -0x1.aaaaaaaaaaabp-5 0x1.aaaaaaaaaaaa8p-3 0x1.eaaaaaaaaaaa8p-3 0x1.8p-4
  label=8
aqfp-sorter len=192 seed=7 img=1 in=ae495ece0feac99e
  stage0=52ee7e46b093346c
  stage1=b530dfba1f12c594
  stage2=0a4da2cc15462332
  stage3=1855ab13fdaf6767
  scores 0x1p-5 -0x1.aaaaaaaaaaabp-5 0x1.0aaaaaaaaaaacp-2 0x1.2aaaaaaaaaaa8p-3 -0x1.aaaaaaaaaaaa8p-4 -0x1.555555555554p-7 -0x1.2aaaaaaaaaaacp-3 0x1.1555555555558p-3 0x1.aaaaaaaaaaaap-5 -0x1p-4
  label=2
aqfp-sorter len=192 seed=7 img=2 in=9ac1c47a1daf360f
  stage0=ec72e72cf3e63d15
  stage1=13e0f6fc4a756c78
  stage2=a354c0bba2ea7603
  stage3=4355e9c7e5ced147
  scores 0x0p+0 -0x1.5555555555554p-3 -0x1.aaaaaaaaaaaa8p-4 -0x1.5555555555554p-3 -0x1.555555555554p-7 0x1p-4 0x1p-2 0x1.9555555555558p-3 0x1.4p-2 0x1.555555555555p-4
  label=8
aqfp-sorter len=100 seed=11 img=0 in=56e81286bb730f62
  stage0=0f05560263c226ad
  stage1=8f05c316be515ec0
  stage2=31181e994632f66c
  stage3=e51d64af6b7ef0e6
  scores 0x1.1eb851eb851e8p-3 0x1.c28f5c28f5c28p-3 -0x1.c28f5c28f5c28p-3 -0x1.eb851eb851ecp-5 0x1.5c28f5c28f5c4p-2 0x1.1eb851eb851e8p-3 0x1.eb851eb851ecp-5 -0x1.47ae147ae1478p-4 -0x1.70a3d70a3d70cp-3 0x1.47ae147ae148p-4
  label=4
aqfp-sorter len=100 seed=11 img=1 in=276f0a51f2c09109
  stage0=e3eb41f2d5cd45ad
  stage1=ae4c0c7f9b8f349f
  stage2=643c5ad67790e33d
  stage3=b3a0ad9dd294952a
  scores -0x1.47ae147ae148p-6 0x1.1eb851eb851ecp-2 -0x1.47ae147ae1478p-4 0x1.47ae147ae1478p-3 -0x1.47ae147ae1478p-4 0x1.9999999999998p-3 -0x1.47ae147ae1478p-4 -0x1.9999999999998p-4 -0x1.851eb851eb852p-2 0x1.eb851eb851ecp-5
  label=1
aqfp-sorter len=100 seed=11 img=2 in=c6c21909957da863
  stage0=78521c0cd895e526
  stage1=767a7fbad34b3bde
  stage2=0a130e8c18c1a8d3
  stage3=55fa32d6e929a570
  scores 0x0p+0 0x1.47ae147ae148p-4 -0x1.47ae147ae147ap-2 0x0p+0 0x1.9999999999998p-3 0x1.9999999999998p-3 0x1.47ae147ae1478p-3 0x1.47ae147ae148p-4 -0x1.47ae147ae1478p-4 0x1.47ae147ae147cp-2
  label=9
cmos-apc len=192 seed=7 img=0 in=463d3e84a8f3ce15
  stage0=f90ac267b7d757b4
  stage1=e6337de366c4c912
  stage2=35c106eeef97e9c1
  stage3=859a78d0b73bdd3b
  scores 0x1.8e5p+12 0x1.993p+12 0x1.84dp+12 0x1.898p+12 0x1.8d4p+12 0x1.872p+12 0x1.852p+12 0x1.782p+12 0x1.81cp+12 0x1.7c4p+12
  label=1
cmos-apc len=192 seed=7 img=1 in=ae495ece0feac99e
  stage0=5753dd22f8c070a8
  stage1=30a78dacd9618699
  stage2=b7eaf545113e889f
  stage3=cc166ae042c17f91
  scores 0x1.96ap+12 0x1.8aep+12 0x1.96ap+12 0x1.813p+12 0x1.811p+12 0x1.8c1p+12 0x1.885p+12 0x1.90fp+12 0x1.813p+12 0x1.86fp+12
  label=0
cmos-apc len=192 seed=7 img=2 in=9ac1c47a1daf360f
  stage0=86af4de12db38498
  stage1=a92cf5c9d5a2f97e
  stage2=d8efb90e93d7e6c2
  stage3=bebb4f9fc7885141
  scores 0x1.8d7p+12 0x1.97fp+12 0x1.7cdp+12 0x1.87cp+12 0x1.8bp+12 0x1.8fp+12 0x1.8f6p+12 0x1.7e4p+12 0x1.8ep+12 0x1.946p+12
  label=1
cmos-apc len=100 seed=11 img=0 in=56e81286bb730f62
  stage0=48cd4e004ab92264
  stage1=1a442d195c64a110
  stage2=c6ba26b741f40ba5
  stage3=60d4e70ba31e4062
  scores 0x1.8ap+11 0x1.988p+11 0x1.afp+11 0x1.9c8p+11 0x1.9ccp+11 0x1.946p+11 0x1.906p+11 0x1.97p+11 0x1.8d2p+11 0x1.9aap+11
  label=2
cmos-apc len=100 seed=11 img=1 in=276f0a51f2c09109
  stage0=bfdf6dc0d4f889ea
  stage1=3dc74ba8f7d4628d
  stage2=8f8972ccf4b850c6
  stage3=81b679f496df2536
  scores 0x1.94ap+11 0x1.85ep+11 0x1.aa2p+11 0x1.90ep+11 0x1.a16p+11 0x1.97cp+11 0x1.a18p+11 0x1.922p+11 0x1.958p+11 0x1.9dcp+11
  label=2
cmos-apc len=100 seed=11 img=2 in=c6c21909957da863
  stage0=831b12e89a2673ce
  stage1=df44521905be0357
  stage2=e17817f45a4c5012
  stage3=c185e1ef559a606c
  scores 0x1.9a8p+11 0x1.844p+11 0x1.a5cp+11 0x1.ab4p+11 0x1.974p+11 0x1.9bap+11 0x1.8aap+11 0x1.8b4p+11 0x1.986p+11 0x1.836p+11
  label=3
float-ref len=192 seed=7 img=0 in=cbf29ce484222325
  stage0=cbf29ce484222325
  stage1=cbf29ce484222325
  stage2=cbf29ce484222325
  stage3=cbf29ce484222325
  scores 0x1.0cb1fp-4 -0x1.b2ed68p-4 0x1.21466ap-6 -0x1.067f1p-4 0x1.c55b9p-5 0x1.4b0e8cp-3 0x1.6a4c7p-3 0x1.78df2p-4 0x1.56127p-3 0x1.4b76ap-4
  label=6
float-ref len=192 seed=7 img=1 in=cbf29ce484222325
  stage0=cbf29ce484222325
  stage1=cbf29ce484222325
  stage2=cbf29ce484222325
  stage3=cbf29ce484222325
  scores -0x1.9da88p-3 -0x1.85827ap-3 0x1.45e348p-4 0x1.64c7c2p-5 -0x1.088f3ep-3 -0x1.029ab4p-5 -0x1.9a9b4cp-4 0x1.0d7638p-2 0x1.7f5654p-4 0x1.58b668p-5
  label=7
float-ref len=192 seed=7 img=2 in=cbf29ce484222325
  stage0=cbf29ce484222325
  stage1=cbf29ce484222325
  stage2=cbf29ce484222325
  stage3=cbf29ce484222325
  scores -0x1.adc9a2p-6 -0x1.5337dap-3 -0x1.80a238p-9 -0x1.c1e9fcp-6 0x1.64b7p-11 0x1.bea8ep-3 0x1.7c5ed6p-3 0x1.08dfaap-3 0x1.ad9084p-3 0x1.f0d4f4p-4
  label=5
)";

TEST(FusedKernels, GoldenEndToEndBitExactAcrossBackends)
{
    const std::vector<nn::Sample> samples = data::generateDigits(3, 42);
    std::string all;
    all += dumpConfig("aqfp-sorter", 192, 7, samples);
    all += dumpConfig("aqfp-sorter", 100, 11, samples);
    all += dumpConfig("cmos-apc", 192, 7, samples);
    all += dumpConfig("cmos-apc", 100, 11, samples);
    all += dumpConfig("float-ref", 192, 7, samples);
    EXPECT_EQ(all, kGoldenDump)
        << "fused kernels drifted from the pre-fusion reference";
}

// ------------------------------------------------------------------------
// Workspace behaviour
// ------------------------------------------------------------------------

TEST(StageWorkspace, ReuseIsBitIdentical)
{
    const std::vector<nn::Sample> samples = data::generateDigits(3, 42);
    core::EngineOptions cfg;
    cfg.backend = "aqfp-sorter";
    cfg.streamLen = 96;
    cfg.seed = 5;
    const core::ScNetworkEngine engine(core::buildModel("tiny", 2), cfg);

    // Transient-workspace results are the reference.
    std::vector<core::ScPrediction> ref;
    for (std::size_t i = 0; i < samples.size(); ++i)
        ref.push_back(engine.inferIndexed(samples[i].image, i));

    // One reused workspace, images visited twice in scrambled order:
    // stale buffer contents must never leak into results.
    core::StageWorkspace ws(engine);
    for (const std::size_t i : {2u, 0u, 1u, 0u, 2u, 1u}) {
        const core::ScPrediction p =
            engine.inferIndexed(samples[i].image, i, ws);
        EXPECT_EQ(p.label, ref[i].label) << "img=" << i;
        EXPECT_EQ(p.scores, ref[i].scores) << "img=" << i;
    }
}

TEST(StageWorkspace, SteadyStateInferenceDoesNotAllocate)
{
    const std::vector<nn::Sample> samples = data::generateDigits(2, 7);
    for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
        core::EngineOptions cfg;
        cfg.backend = backend;
        cfg.streamLen = 64;
        const core::ScNetworkEngine engine(core::buildModel("tiny", 2),
                                           cfg);
        core::StageWorkspace ws(engine);
        // Warm to high-water: buffers, scratch and context reach their
        // steady-state sizes.
        engine.inferIndexed(samples[0].image, 0, ws);
        engine.inferIndexed(samples[1].image, 1, ws);

        const std::size_t before =
            g_allocations.load(std::memory_order_relaxed);
        const core::ScPrediction p =
            engine.inferIndexed(samples[0].image, 2, ws);
        const std::size_t after =
            g_allocations.load(std::memory_order_relaxed);

        // The stage pipeline itself must not allocate; the only heap
        // traffic allowed is the returned prediction's score vector.
        EXPECT_LE(after - before, 2u) << backend;
        EXPECT_EQ(p.scores.size(), 10u);

        // Cohorts through one CohortWorkspace: four images at once (the
        // lane-parallel SNG fill and MUX draws), then an adaptive cohort
        // that runs 64-cycle checkpoint blocks and exits at 128 cycles.
        cfg.streamLen = 192;
        const core::ScNetworkEngine long_engine(core::buildModel("tiny", 2),
                                                cfg);
        core::CohortWorkspace cohort_ws(long_engine, 4);
        const nn::Tensor *images[4];
        std::size_t indices[4];
        for (std::size_t c = 0; c < 4; ++c) {
            images[c] = &samples[c % 2].image;
            indices[c] = c;
        }
        core::AdaptivePolicy checkpointed;
        checkpointed.checkpointCycles = 64;
        checkpointed.exitMargin = 0.0;
        checkpointed.minCycles = 128;
        core::ScPrediction preds[4];
        core::AdaptivePrediction adaptive[4];
        const auto runBoth = [&] {
            long_engine.inferCohort(images, indices, 4, cohort_ws, preds);
            long_engine.inferAdaptiveCohort(images, indices, 4, cohort_ws,
                                            checkpointed, adaptive);
        };
        runBoth();
        runBoth();
        const std::size_t cohort_before =
            g_allocations.load(std::memory_order_relaxed);
        runBoth();
        const std::size_t cohort_after =
            g_allocations.load(std::memory_order_relaxed);
        // Again only the returned score vectors: one per image and call.
        EXPECT_LE(cohort_after - cohort_before, 8u) << backend;
        for (std::size_t c = 0; c < 4; ++c) {
            EXPECT_EQ(preds[c].scores.size(), 10u);
            EXPECT_EQ(adaptive[c].consumedCycles, 128u);
        }

        // Batched predict() reuses its workers' workspaces across calls:
        // a second call of the same size allocates only its results, the
        // prediction vector and one score vector per image.
        const std::vector<nn::Sample> batch = data::generateDigits(8, 9);
        core::EvalOptions eval;
        eval.threads = 1;
        eval.cohort = 4;
        const std::vector<core::ScPrediction> first =
            long_engine.predict(batch, eval);
        const std::size_t predict_before =
            g_allocations.load(std::memory_order_relaxed);
        const std::vector<core::ScPrediction> second =
            long_engine.predict(batch, eval);
        const std::size_t predict_after =
            g_allocations.load(std::memory_order_relaxed);
        EXPECT_LE(predict_after - predict_before, 1 + batch.size())
            << backend;
        ASSERT_EQ(second.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i)
            EXPECT_EQ(second[i].scores, first[i].scores) << "image " << i;
    }
}

} // namespace
