/**
 * @file
 * Unit tests for SC operators (ops.h) and parallel counters (apc.h).
 */

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sc/apc.h"
#include "sc/ops.h"
#include "sc/rng.h"
#include "sc/simd/kernels_scalar.h"
#include "sc/simd/simd.h"
#include "sc/sng.h"
#include "sc/stream_matrix.h"

namespace aqfpsc::sc {
namespace {

TEST(Ops, UnipolarMultiply)
{
    Xoshiro256StarStar rng(1);
    const std::size_t len = 8192;
    const Bitstream a = encodeUnipolar(0.6, 10, len, rng);
    const Bitstream b = encodeUnipolar(0.5, 10, len, rng);
    EXPECT_NEAR(multiplyUnipolar(a, b).unipolarValue(), 0.3, 0.03);
}

class BipolarMultiplyTest
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(BipolarMultiplyTest, ValueProduct)
{
    const auto [x, y] = GetParam();
    Xoshiro256StarStar rng(2);
    const std::size_t len = 16384;
    const Bitstream a = encodeBipolar(x, 10, len, rng);
    const Bitstream b = encodeBipolar(y, 10, len, rng);
    EXPECT_NEAR(multiplyBipolar(a, b).bipolarValue(), x * y, 0.04);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, BipolarMultiplyTest,
    ::testing::Values(std::make_pair(0.5, 0.5), std::make_pair(-0.5, 0.5),
                      std::make_pair(-0.8, -0.6), std::make_pair(0.0, 0.9),
                      std::make_pair(1.0, -1.0), std::make_pair(0.3, 0.3)));

TEST(Ops, ScaledAddIsMean)
{
    Xoshiro256StarStar rng(3);
    const std::size_t len = 16384;
    std::vector<Bitstream> ins;
    const std::vector<double> vals = {0.8, -0.4, 0.2, -0.6};
    for (double v : vals)
        ins.push_back(encodeBipolar(v, 10, len, rng));
    const double mean = (0.8 - 0.4 + 0.2 - 0.6) / 4.0;
    EXPECT_NEAR(scaledAdd(ins, rng).bipolarValue(), mean, 0.05);
}

TEST(Ops, Majority3Truth)
{
    const Bitstream a = Bitstream::fromString("00001111");
    const Bitstream b = Bitstream::fromString("00110011");
    const Bitstream c = Bitstream::fromString("01010101");
    EXPECT_EQ(majority3(a, b, c).toString(), "00010111");
}

TEST(Ops, CorrelationIdenticalStreams)
{
    Xoshiro256StarStar rng(4);
    const Bitstream a = encodeUnipolar(0.5, 10, 4096, rng);
    EXPECT_NEAR(streamCorrelation(a, a), 1.0, 1e-9);
}

TEST(Ops, CorrelationComplementStreams)
{
    Xoshiro256StarStar rng(5);
    const Bitstream a = encodeUnipolar(0.5, 10, 4096, rng);
    EXPECT_NEAR(streamCorrelation(a, ~a), -1.0, 1e-9);
}

TEST(Ops, CorrelationIndependentNearZero)
{
    Xoshiro256StarStar rng(6);
    const Bitstream a = encodeUnipolar(0.5, 10, 16384, rng);
    const Bitstream b = encodeUnipolar(0.5, 10, 16384, rng);
    EXPECT_NEAR(streamCorrelation(a, b), 0.0, 0.05);
}

TEST(Ops, CorrelationConstantStreamIsZero)
{
    const Bitstream a(128, true);
    const Bitstream b = Bitstream::neutral(128);
    EXPECT_DOUBLE_EQ(streamCorrelation(a, b), 0.0);
}

// ------------------------------------------------------------- counters

TEST(Apc, ExactCount)
{
    EXPECT_EQ(exactColumnCount({true, false, true, true}), 3);
    EXPECT_EQ(exactColumnCount({}), 0);
    EXPECT_EQ(exactColumnCount({false, false}), 0);
}

TEST(Apc, ApproximateOvercountsOnPairsOfOnes)
{
    // a + b ~ 2(a AND b) + (a OR b): exact unless both are 1.
    ApproximateParallelCounter apc(4);
    EXPECT_EQ(apc.count({false, false, false, false}), 0);
    EXPECT_EQ(apc.count({true, false, false, true}), 2);
    EXPECT_EQ(apc.count({true, true, false, false}), 3);  // (1,1) pair -> +1
    EXPECT_EQ(apc.count({true, true, true, true}), 6);    // two pairs -> +2
}

TEST(Apc, OddInputPassthrough)
{
    ApproximateParallelCounter apc(3);
    EXPECT_EQ(apc.count({false, false, true}), 1);
    EXPECT_EQ(apc.count({true, true, true}), 4);
}

TEST(Apc, ApproximationProperty)
{
    // approx = exact + number of (1,1) pairs, for all 6-bit patterns.
    ApproximateParallelCounter apc(6);
    for (int pattern = 0; pattern < 64; ++pattern) {
        std::vector<bool> bits(6);
        int pairs11 = 0;
        for (int i = 0; i < 6; ++i)
            bits[static_cast<std::size_t>(i)] = (pattern >> i) & 1;
        for (int i = 0; i + 1 < 6; i += 2)
            pairs11 += (bits[static_cast<std::size_t>(i)] &&
                        bits[static_cast<std::size_t>(i) + 1])
                           ? 1 : 0;
        EXPECT_EQ(apc.count(bits), exactColumnCount(bits) + pairs11);
    }
}

TEST(Apc, GateCountGrowsWithWidth)
{
    int prev = 0;
    for (int m : {8, 16, 32, 64, 128}) {
        const int g = ApproximateParallelCounter(m).gateCount();
        EXPECT_GT(g, prev);
        prev = g;
    }
}

class ColumnCountsTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ColumnCountsTest, MatchesNaiveCounting)
{
    const std::size_t len = GetParam();
    const int m = 37;
    Xoshiro256StarStar rng(100 + len);
    std::vector<Bitstream> streams;
    for (int j = 0; j < m; ++j)
        streams.push_back(encodeUnipolar(rng.nextDouble(), 10, len, rng));

    ColumnCounts counts(len, m);
    for (const auto &s : streams)
        counts.add(s);
    EXPECT_EQ(counts.added(), m);

    std::vector<int> extracted;
    counts.extract(extracted);
    ASSERT_EQ(extracted.size(), len);
    for (std::size_t i = 0; i < len; ++i) {
        int naive = 0;
        for (const auto &s : streams)
            naive += s.get(i) ? 1 : 0;
        ASSERT_EQ(extracted[i], naive) << "cycle " << i;
        ASSERT_EQ(counts.count(i), naive) << "cycle " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ColumnCountsTest,
                         ::testing::Values(1, 64, 65, 100, 256, 1024));

TEST(ColumnCounts, ClearResets)
{
    ColumnCounts counts(64, 4);
    counts.add(Bitstream(64, true));
    counts.clear();
    EXPECT_EQ(counts.added(), 0);
    EXPECT_EQ(counts.count(0), 0);
    counts.add(Bitstream(64, true));
    EXPECT_EQ(counts.count(63), 1);
}

TEST(ColumnCounts, AddWordsMatchesAdd)
{
    const std::size_t len = 200;
    Xoshiro256StarStar rng(55);
    Bitstream s = encodeUnipolar(0.5, 10, len, rng);
    ColumnCounts a(len, 2), b(len, 2);
    a.add(s);
    std::vector<std::uint64_t> words(s.wordCount());
    for (std::size_t w = 0; w < s.wordCount(); ++w)
        words[w] = s.word(w);
    b.addWords(words.data(), words.size());
    for (std::size_t i = 0; i < len; ++i)
        EXPECT_EQ(a.count(i), b.count(i));
}

TEST(ColumnCounts, MaxCapacity)
{
    // Exactly max_count streams of all ones must be representable.
    const int m = 7;
    ColumnCounts counts(64, m);
    for (int j = 0; j < m; ++j)
        counts.add(Bitstream(64, true));
    EXPECT_EQ(counts.count(10), m);
}

/**
 * The lazy clear() boundary: clear() re-zeros only the planes the
 * streams added since the last clear can have dirtied (tracked through
 * bit_width of the stream count).  Reusing one counter with alternating
 * long -> short span lengths AND high -> low stream counts is exactly
 * the cohort/checkpoint hot-loop pattern: a stale plane (or a stale
 * word beyond a short span) surviving a clear would corrupt the next
 * use's counts.  Verified against naive counting at every cycle across
 * several alternations.
 */
TEST(ColumnCounts, LazyClearHighWaterAcrossAlternatingReuses)
{
    const std::size_t len = 200; // 4 words, non-multiple-of-64 tail
    const std::size_t words = (len + 63) / 64;
    Xoshiro256StarStar rng(321);
    ColumnCounts counts(len, 32);

    // (stream count, words covered by the add): high plane counts with
    // full-length adds alternate with low plane counts over short spans.
    const std::pair<int, std::size_t> rounds[] = {
        {20, words}, {3, 1}, {25, words}, {1, 1}, {31, words}, {2, 2},
    };
    for (const auto &[m, span_words] : rounds) {
        SCOPED_TRACE("m=" + std::to_string(m) +
                     " span_words=" + std::to_string(span_words));
        std::vector<std::vector<std::uint64_t>> streams;
        for (int j = 0; j < m; ++j) {
            std::vector<std::uint64_t> s(words, 0);
            for (std::size_t w = 0; w < span_words; ++w)
                s[w] = rng.nextWord();
            if (span_words == words && len % 64 != 0)
                s[words - 1] &= (1ULL << (len % 64)) - 1;
            streams.push_back(std::move(s));
            counts.addWords(streams.back().data(), span_words);
        }
        EXPECT_EQ(counts.added(), m);
        // Every cycle — including those beyond the short span, which
        // must read 0 even though earlier rounds dirtied their words —
        // matches naive counting of this round alone.
        for (std::size_t i = 0; i < len; ++i) {
            int naive = 0;
            for (const auto &s : streams)
                naive += static_cast<int>((s[i / 64] >> (i % 64)) & 1ULL);
            if (i / 64 >= span_words)
                naive = 0;
            ASSERT_EQ(counts.count(i), naive) << "cycle " << i;
        }
        counts.clear();
        EXPECT_EQ(counts.added(), 0);
    }
    // After the final clear the counter is pristine at every plane.
    for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(counts.count(i), 0);
}

/**
 * A one-row tile of the dispatched tile kernel, stored into the
 * counter's planes, reads back the same counts as one single-stream add
 * per product: 31 products (every Harley-Seal block size), the bias
 * and, for a padded row (m = 32 is even), the neutral row, over a
 * ragged tail.  So does the ripple reference (addXnorTileRipple) into a
 * counter wider than the tile kernel's planes.
 */
TEST(ColumnCounts, OneRowTileMatchesSingleStreamForms)
{
    const std::size_t len = 130; // ragged tail
    const std::size_t products = 31; // 16 + 8 + 4 + 2 + 1
    Xoshiro256StarStar rng(99);
    auto randomMatrix = [&](std::size_t rows) {
        StreamMatrix m(rows, len);
        for (std::size_t r = 0; r < rows; ++r)
            rng.nextWords(m.row(r), m.wordsPerRow());
        return m;
    };
    const StreamMatrix x = randomMatrix(products);
    const StreamMatrix w = randomMatrix(products);
    const StreamMatrix bias = randomMatrix(1);
    const StreamMatrix neutral = randomMatrix(1);
    const std::size_t words = x.wordsPerRow();
    const std::uint32_t first[] = {0, static_cast<std::uint32_t>(products)};
    const std::uint8_t run[] = {1};
    std::vector<std::uint32_t> rows(products);
    for (std::size_t p = 0; p < products; ++p)
        rows[p] = static_cast<std::uint32_t>(p);

    for (const int max_count : {40, 70000}) {
        for (const bool pad : {false, true}) {
            SCOPED_TRACE("max_count=" + std::to_string(max_count) +
                         (pad ? " padded" : ""));
            ColumnCounts single(len, max_count);
            single.addWords(bias.row(0), words);
            if (pad)
                single.addWords(neutral.row(0), words);
            for (std::size_t p = 0; p < products; ++p)
                single.addXnor(x.row(p), w.row(p), words);

            ColumnCounts row(len, max_count);
            row.addWords(x.row(0), words); // overwritten, not added to
            const std::uint64_t *const inputs[] = {x.row(0)};
            std::uint64_t *const planes[] = {row.overwritePlanes()};
            const simd::AddXnorTileFn add =
                row.planeCount() <= simd::kMaxFeedbackPlanes
                    ? simd::kernels().addXnorTile
                    : simd::detail::addXnorTileRipple;
            add(
                {{first, rows.data(), rows.data(), run, 1, products},
                 0,
                 1,
                 pad,
                 w.row(0),
                 bias.row(0),
                 neutral.row(0),
                 words,
                 inputs,
                 words,
                 planes,
                 0,
                 row.wordCount(),
                 1,
                 words,
                 row.planeCount()});
            for (std::size_t i = 0; i < len; ++i)
                ASSERT_EQ(row.count(i), single.count(i)) << "cycle " << i;
        }
    }
}

} // namespace
} // namespace aqfpsc::sc
