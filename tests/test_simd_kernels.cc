/**
 * @file
 * Differential tests of the runtime-dispatched SIMD kernels
 * (src/sc/simd/) against the scalar reference loops.
 *
 * The dispatch contract is bit-identity: the carry-save planes hold
 * exact binary counts (independent of addition grouping), so every
 * tier's row kernel and threshold-pack kernel must reproduce the scalar
 * reference exactly on every input.  Coverage:
 *
 *  - the row kernel of every tier this host can run (not only the
 *    detected one), swept over plane counts 1-12, word counts
 *    {1,2,3,4,5,8,9,16,17} and product counts {0,1,15,16,17,31,33,max}
 *    (max also with all-ones products) against the one-ripple-per-
 *    product reference, on planes that already hold counts and whose
 *    stride is wider than the words added (the words past them must
 *    stay untouched);
 *  - SNG threshold fill (fillBipolar) forced-scalar vs dispatched
 *    across values (incl. the all-ones special case), code widths and
 *    lengths, plus a direct kernel unit sweep over n in [1, 64];
 *  - dispatch-layer invariants (level ordering, env-override policy,
 *    the kernel list variantSummary() stamps);
 *  - end-to-end golden score hashes equal on every tier: tiny on all
 *    stream backends, snn's wide fan-in layers on cmos-apc at N = 256
 *    (2 images), and an adaptive run with 64-cycle checkpoints.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "core/session.h"
#include "data/digits.h"
#include "sc/rng.h"
#include "sc/simd/kernels_scalar.h"
#include "sc/simd/simd.h"
#include "sc/stream_matrix.h"

namespace aqfpsc {
namespace {

using sc::simd::Level;

/** RAII: pin the active kernel table, restore on scope exit. */
class LevelGuard
{
  public:
    explicit LevelGuard(Level level) : prev_(sc::simd::activeLevel())
    {
        EXPECT_TRUE(sc::simd::setActiveLevel(level));
    }
    ~LevelGuard() { sc::simd::setActiveLevel(prev_); }

  private:
    Level prev_;
};

/** Every tier up to the detected one, scalar first. */
std::vector<Level>
runnableLevels()
{
    std::vector<Level> levels;
    for (const Level level : {Level::Scalar, Level::Avx2, Level::Avx512})
        if (static_cast<int>(level) <=
            static_cast<int>(sc::simd::detectedLevel()))
            levels.push_back(level);
    return levels;
}

const sc::simd::KernelTable &
tableOf(Level level)
{
    switch (level) {
    case Level::Avx512:
        return *sc::simd::avx512Kernels();
    case Level::Avx2:
        return *sc::simd::avx2Kernels();
    case Level::Scalar:
        break;
    }
    return *sc::simd::scalarKernels();
}

TEST(SimdKernels, RowKernelMatchesRippleReferenceOnEveryTier)
{
    constexpr std::size_t kMaxWords = 17;
    constexpr std::size_t kPool = 4096; // >= the largest product count
    constexpr std::size_t kPad = 2;     // plane words past the span
    constexpr std::uint64_t kSentinel = 0x5A5A5A5A5A5A5A5AULL;
    sc::Xoshiro256StarStar rng(20261017);
    std::vector<std::uint64_t> xpool(kPool * kMaxWords);
    std::vector<std::uint64_t> wpool(kPool * kMaxWords);
    rng.nextWords(xpool.data(), xpool.size());
    rng.nextWords(wpool.data(), wpool.size());

    const std::size_t word_counts[] = {1, 2, 3, 4, 5, 8, 9, 16, 17};
    const std::vector<Level> levels = runnableLevels();
    std::size_t salt = 0;
    for (int planes = 1; planes <= 12; ++planes) {
        const std::size_t max = (std::size_t{1} << planes) - 1;
        // (products, x == w): with x == w every product is all ones, so
        // every column counts up to max exactly.
        const std::pair<std::size_t, bool> cases[] = {
            {0, false},  {1, false},  {15, false},  {16, false}, {17, false},
            {31, false}, {33, false}, {max, false}, {max, true}};
        for (const std::size_t words : word_counts) {
            for (const auto &[n, saturate] : cases) {
                if (n > max)
                    continue;
                SCOPED_TRACE("planes=" + std::to_string(planes) +
                             " words=" + std::to_string(words) +
                             " products=" + std::to_string(n) +
                             (saturate ? " all-ones" : ""));
                // Operands: rows of the pools, shifted per case.
                ++salt;
                std::vector<const std::uint64_t *> xs, ws;
                for (std::size_t p = 0; p < n; ++p) {
                    xs.push_back(&xpool[(p + salt) % kPool * kMaxWords]);
                    ws.push_back(saturate ? xs.back()
                                          : &wpool[(p * 7 + salt) % kPool *
                                                   kMaxWords]);
                }
                // Planes that already hold counts (up to two streams,
                // within the capacity) and sentinels past the span.
                const std::size_t stride = words + kPad;
                std::vector<std::uint64_t> start(
                    static_cast<std::size_t>(planes) * stride, kSentinel);
                for (std::size_t k = 0; k < static_cast<std::size_t>(planes);
                     ++k)
                    std::fill_n(&start[k * stride], words, 0);
                const std::uint64_t *const pre_xs[] = {&xpool[0],
                                                       &xpool[kMaxWords]};
                const std::uint64_t *const pre_ws[] = {&wpool[0],
                                                       &wpool[kMaxWords]};
                sc::simd::detail::addXnorRowRipple(
                    {start.data(), stride, planes}, pre_xs, pre_ws,
                    std::min<std::size_t>(2, max - n), words);

                std::vector<std::uint64_t> ref = start;
                sc::simd::detail::addXnorRowRipple(
                    {ref.data(), stride, planes}, xs.data(), ws.data(), n,
                    words);
                for (const Level level : levels) {
                    SCOPED_TRACE(sc::simd::levelName(level));
                    std::vector<std::uint64_t> got = start;
                    tableOf(level).addXnorRow({got.data(), stride, planes},
                                              xs.data(), ws.data(), n,
                                              words);
                    ASSERT_EQ(got, ref);
                }
            }
        }
    }
}

TEST(SimdKernels, ThresholdPackKernelSweepsAllLengths)
{
    sc::Xoshiro256StarStar rng(42);
    std::uint64_t rnd[64];
    rng.nextWords(rnd, 64);
    const std::uint64_t thresholds[] = {
        0ULL, 1ULL, 0x8000000000000000ULL, 0xFFFFFFFFFFFFFFFFULL,
        rng.nextWord()};
    for (const Level level : runnableLevels()) {
        const sc::simd::KernelTable &table = tableOf(level);
        for (const std::uint64_t threshold : thresholds) {
            for (std::size_t n = 1; n <= 64; ++n) {
                EXPECT_EQ(table.thresholdPack(rnd, n, threshold),
                          sc::simd::detail::thresholdPackBits(rnd, 0, n,
                                                              threshold))
                    << sc::simd::levelName(level) << " n=" << n
                    << " threshold=" << threshold;
            }
        }
    }
}

TEST(SimdKernels, FillBipolarMatchesScalarAcrossValues)
{
    const Level vector_level = sc::simd::detectedLevel();
    const double values[] = {-1.0, -0.731, -0.5, 0.0,
                             0.25, 0.731,  1.0}; // 1.0 = all-ones path
    const int bit_widths[] = {1, 8, 10, 20}; // quantizer supports 1..20
    const std::size_t lens[] = {64, 100, 192, 1000, 1024};
    for (const std::size_t len : lens) {
        for (const int bits : bit_widths) {
            for (const double value : values) {
                SCOPED_TRACE("len=" + std::to_string(len) +
                             " bits=" + std::to_string(bits) +
                             " value=" + std::to_string(value));
                sc::StreamMatrix scalar_m(1, len), vector_m(1, len);
                {
                    LevelGuard guard(Level::Scalar);
                    sc::Xoshiro256StarStar rng(7777);
                    scalar_m.fillBipolar(0, value, bits, rng);
                }
                {
                    LevelGuard guard(vector_level);
                    sc::Xoshiro256StarStar rng(7777);
                    vector_m.fillBipolar(0, value, bits, rng);
                }
                for (std::size_t w = 0; w < scalar_m.wordsPerRow(); ++w)
                    EXPECT_EQ(scalar_m.row(0)[w], vector_m.row(0)[w])
                        << "word " << w;
            }
        }
    }
}

TEST(SimdKernels, DispatchInvariants)
{
    const Level detected = sc::simd::detectedLevel();
    const Level before = sc::simd::activeLevel();
    EXPECT_LE(static_cast<int>(before), static_cast<int>(detected));

    // Every tier up to the detected one is selectable; beyond it fails
    // without changing the active table.
    for (const Level level : {Level::Scalar, Level::Avx2, Level::Avx512}) {
        if (static_cast<int>(level) <= static_cast<int>(detected)) {
            EXPECT_TRUE(sc::simd::setActiveLevel(level));
            EXPECT_EQ(sc::simd::activeLevel(), level);
            EXPECT_STREQ(sc::simd::kernels().name,
                         sc::simd::levelName(level));
        } else {
            const Level held = sc::simd::activeLevel();
            EXPECT_FALSE(sc::simd::setActiveLevel(level));
            EXPECT_EQ(sc::simd::activeLevel(), held);
        }
    }
    EXPECT_TRUE(sc::simd::setActiveLevel(before));

    // AQFPSC_FORCE_SCALAR policy: unset/empty/"0" keep the detected
    // tier, anything else forces scalar.
    EXPECT_EQ(sc::simd::resolveLevel(detected, nullptr), detected);
    EXPECT_EQ(sc::simd::resolveLevel(detected, ""), detected);
    EXPECT_EQ(sc::simd::resolveLevel(detected, "0"), detected);
    EXPECT_EQ(sc::simd::resolveLevel(detected, "1"), Level::Scalar);
    EXPECT_EQ(sc::simd::resolveLevel(detected, "yes"), Level::Scalar);
    EXPECT_EQ(sc::simd::resolveLevel(detected, "00"), Level::Scalar);

    // The report stamp names every table kernel once, as the active tier.
    const std::string tier = sc::simd::kernels().name;
    EXPECT_EQ(sc::simd::variantSummary(),
              "addXnorRow=" + tier + " thresholdPack=" + tier);
}

/** FNV-1a step over a string (the test_cohort golden-hash pattern). */
void
fnvMix(std::uint64_t &h, const char *text)
{
    for (const char *c = text; *c; ++c) {
        h ^= static_cast<unsigned char>(*c);
        h *= 0x100000001B3ULL;
    }
}

/** FNV-1a over the hexfloat rendering of every score: any bit drift
 *  anywhere changes the hash. */
std::uint64_t
scoreHash(const std::vector<core::ScPrediction> &preds)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    char buf[64];
    for (const core::ScPrediction &p : preds) {
        for (const double v : p.scores) {
            std::snprintf(buf, sizeof(buf), "%a;", v);
            fnvMix(h, buf);
        }
    }
    return h;
}

/**
 * Run @p hash_of_run with each runnable tier pinned and expect every
 * tier's hash to equal the scalar tier's.  Sessions must be built inside
 * the run, so stream generation (weights at compile, inputs at predict)
 * uses the pinned table too.
 */
template <typename Run>
void
expectSameHashOnEveryTier(Run &&hash_of_run)
{
    std::uint64_t scalar_hash = 0;
    for (const Level level : runnableLevels()) {
        SCOPED_TRACE(sc::simd::levelName(level));
        const LevelGuard guard(level);
        const std::uint64_t h = hash_of_run();
        if (level == Level::Scalar)
            scalar_hash = h;
        else
            EXPECT_EQ(h, scalar_hash);
    }
}

TEST(SimdKernels, ForcedScalarAndVectorEndToEndHashesMatch)
{
    if (sc::simd::detectedLevel() == Level::Scalar)
        GTEST_SKIP() << "no vector ISA available on this host/build";

    struct Case
    {
        const char *model;
        const char *backend;
        std::size_t len;
        bool approx;
        std::size_t images;
    };
    // tiny at len 576 = 9 words: full lane groups and a 1-word masked
    // group; len 100 = 2 words: a row that is one masked group.  snn at
    // N = 256: 4-word rows, and Conv2/FC1/FC2 sum 290/1570/502 products
    // into 9/11/9 planes (16-product blocks plus every shorter block).
    const Case cases[] = {
        {"tiny", "aqfp-sorter", 576, false, 8},
        {"tiny", "aqfp-sorter", 100, false, 8},
        {"tiny", "cmos-apc", 576, false, 8},
        {"tiny", "cmos-apc", 576, true, 8}, // OR-pair overcount path
        {"snn", "cmos-apc", 256, false, 2},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.model) + " " + c.backend + " len=" +
                     std::to_string(c.len) + " approx=" +
                     std::to_string(c.approx));
        const auto samples = data::generateDigits(c.images, 77);
        core::EngineOptions opts;
        opts.backend = c.backend;
        opts.streamLen = c.len;
        opts.approximateApc = c.approx;
        core::EvalOptions eval;
        eval.cohort = 4;
        expectSameHashOnEveryTier([&] {
            const core::InferenceSession session(
                core::buildModel(c.model, 3), opts);
            return scoreHash(session.predict(samples, eval));
        });
    }
}

TEST(SimdKernels, AdaptiveCheckpointSpansHashMatchOnEveryTier)
{
    if (sc::simd::detectedLevel() == Level::Scalar)
        GTEST_SKIP() << "no vector ISA available on this host/build";

    // 64-cycle checkpoints make every span one word: each row kernel
    // call is a single masked (or one-word) lane group.
    const auto samples = data::generateDigits(6, 79);
    core::EngineOptions opts;
    opts.backend = "aqfp-sorter";
    opts.streamLen = 512;
    opts.adaptive.checkpointCycles = 64;
    opts.adaptive.minCycles = 0;
    expectSameHashOnEveryTier([&] {
        const core::InferenceSession session(core::buildTinyCnn(3), opts);
        std::vector<core::ScPrediction> preds;
        std::uint64_t h = 0xCBF29CE484222325ULL;
        for (const nn::Sample &s : samples) {
            const core::AdaptivePrediction a =
                session.inferAdaptive(s.image);
            preds.push_back(a.prediction);
            fnvMix(h, std::to_string(a.consumedCycles).c_str());
        }
        return h ^ scoreHash(preds);
    });
}

} // namespace
} // namespace aqfpsc
