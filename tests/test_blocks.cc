/**
 * @file
 * Unit tests for the paper's SC-DNN blocks: feedback-unit equivalences,
 * value properties, literal-vs-counter equivalence and statistical
 * accuracy bands (Algorithm 1, Algorithm 2, the majority chain).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/avg_pooling.h"
#include "blocks/categorization.h"
#include "blocks/feature_extraction.h"
#include "blocks/feedback_unit.h"
#include "sc/sng.h"

namespace aqfpsc::blocks {
namespace {

/**
 * Brute-force reference for one feature-extraction step: literally sort
 * the [column | feedback] vector descending, read bit M-1, and take the
 * output-selected feedback slice (offset-accumulator semantics; see
 * feedback_unit.h).
 */
bool
referenceFeatureStep(int m, int column_ones, int &carry)
{
    std::vector<int> v;
    for (int i = 0; i < column_ones; ++i)
        v.push_back(1);
    for (int i = column_ones; i < m; ++i)
        v.push_back(0);
    for (int i = 0; i < carry; ++i)
        v.push_back(1);
    for (int i = carry; i < m; ++i)
        v.push_back(0);
    std::sort(v.rbegin(), v.rend());
    const bool out = v[static_cast<std::size_t>(m - 1)] != 0;
    const int lo = out ? (m + 1) / 2 : (m - 1) / 2;
    int ones = 0;
    for (int i = lo; i < lo + m; ++i)
        ones += v[static_cast<std::size_t>(i)];
    carry = ones;
    return out;
}

/** Brute-force reference for one step of Algorithm 2. */
bool
referencePoolingStep(int m, int column_ones, int &carry)
{
    std::vector<int> v;
    for (int i = 0; i < column_ones; ++i)
        v.push_back(1);
    for (int i = column_ones; i < m; ++i)
        v.push_back(0);
    for (int i = 0; i < carry; ++i)
        v.push_back(1);
    for (int i = carry; i < m; ++i)
        v.push_back(0);
    std::sort(v.rbegin(), v.rend());
    const bool out = v[static_cast<std::size_t>(m - 1)] != 0; // Ds[M]
    int ones = 0;
    if (out) {
        for (int i = m; i < 2 * m; ++i)
            ones += v[static_cast<std::size_t>(i)];
    } else {
        for (int i = 0; i < m; ++i)
            ones += v[static_cast<std::size_t>(i)];
    }
    carry = ones;
    return out;
}

class FeedbackUnitTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FeedbackUnitTest, FeatureCounterMatchesSortedVector)
{
    const int m = GetParam();
    if (m % 2 == 0)
        GTEST_SKIP() << "feature unit requires odd m";
    FeatureFeedbackUnit unit(m);
    int ref_carry = (m - 1) / 2; // operating-point initialization
    sc::Xoshiro256StarStar rng(m);
    for (int t = 0; t < 2000; ++t) {
        const int col = static_cast<int>(rng.nextWord() %
                                         static_cast<std::uint64_t>(m + 1));
        const bool expect = referenceFeatureStep(m, col, ref_carry);
        ASSERT_EQ(unit.step(col), expect) << "t=" << t;
        ASSERT_EQ(unit.carry(), ref_carry) << "t=" << t;
    }
}

TEST_P(FeedbackUnitTest, PoolingCounterMatchesSortedVector)
{
    const int m = GetParam();
    PoolingFeedbackUnit unit(m);
    int ref_carry = 0;
    sc::Xoshiro256StarStar rng(m * 3 + 1);
    for (int t = 0; t < 2000; ++t) {
        const int col = static_cast<int>(rng.nextWord() %
                                         static_cast<std::uint64_t>(m + 1));
        const bool expect = referencePoolingStep(m, col, ref_carry);
        ASSERT_EQ(unit.step(col), expect) << "t=" << t;
        ASSERT_EQ(unit.carry(), ref_carry) << "t=" << t;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FeedbackUnitTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 9, 16, 25));

TEST(FeedbackUnit, Reset)
{
    FeatureFeedbackUnit f(5);
    EXPECT_EQ(f.carry(), 2); // operating point (M-1)/2
    f.step(5);
    f.step(5);
    EXPECT_NE(f.carry(), 2);
    f.reset();
    EXPECT_EQ(f.carry(), 2);
}

TEST(FeedbackUnit, ClosedFormPoolMatchesPoolingUnit)
{
    // poolWord4 against PoolingFeedbackUnit(4): every start carry, spans
    // of 1, 2 and 5 words each resumed from the carry the previous one
    // left, and a last word of every partial length.  Each window word
    // is empty, full, or 1/4, 1/2 or 3/4 dense, so columns reach every
    // count 0..4.
    sc::Xoshiro256StarStar rng(4);
    for (int start = 0; start < 4; ++start) {
        for (unsigned last = 1; last <= 64; ++last) {
            SCOPED_TRACE("start=" + std::to_string(start) +
                         " last=" + std::to_string(last));
            const std::size_t spans[] = {64, 128, 320, last};
            const std::size_t words = 9;
            std::uint64_t win[4][words];
            for (auto &stream : win) {
                for (std::uint64_t &w : stream) {
                    const std::uint64_t x = rng.nextWord();
                    const std::uint64_t y = rng.nextWord();
                    const std::uint64_t forms[] = {0, ~0ULL, x & y, x,
                                                   x | y};
                    w = forms[rng.nextWord() % 5];
                }
            }
            PoolingFeedbackUnit unit(4);
            unit.restore(4, start);
            int carry = start;
            std::size_t t = 0;
            for (const std::size_t span : spans) {
                for (std::size_t end = t + span; t < end; t += 64) {
                    const std::size_t w = t / 64;
                    const auto cycles = static_cast<unsigned>(
                        std::min<std::size_t>(64, end - t));
                    std::uint64_t expect = 0;
                    for (unsigned b = 0; b < cycles; ++b) {
                        int col = 0;
                        for (const auto &stream : win)
                            col += static_cast<int>((stream[w] >> b) & 1);
                        if (unit.step(col))
                            expect |= 1ULL << b;
                    }
                    ASSERT_EQ(poolWord4(win[0][w], win[1][w], win[2][w],
                                        win[3][w], carry, cycles),
                              expect)
                        << "word " << w;
                }
                ASSERT_EQ(carry, unit.carry()) << "cycle " << t;
            }
        }
    }
}

// --------------------------------------------------- feature extraction

/**
 * Exact expected output rate of the feature-extraction block when all m
 * product streams are iid Bernoulli(q): the feedback carry c is a Markov
 * chain on {0..m} with col ~ Binomial(m, q) and the offset-accumulator
 * dynamics of feedback_unit.h: out = [c + col >= m],
 * c' = clamp(c + col - (m-1)/2 - out, 0, m), started at the operating
 * point (m-1)/2.  Computed by power iteration.
 *
 * The block's response is a smooth version of clip(sum, -1, 1) -- the
 * bounded carry rounds the clip corners (the measured curve fits
 * tanh(0.8 z); see nn::SorterTanh).  This function is the exact spec the
 * implementation must meet.
 */
double
markovExpectedValue(int m, double q)
{
    if (q <= 0.0)
        return -1.0; // no ones ever enter the sorter
    if (q >= 1.0)
        return 1.0; // every column saturates the threshold
    // Binomial pmf.
    std::vector<double> pmf(static_cast<std::size_t>(m) + 1);
    for (int k = 0; k <= m; ++k) {
        double logp = 0.0;
        for (int i = 0; i < k; ++i)
            logp += std::log((m - i) / static_cast<double>(i + 1)) +
                    std::log(q);
        logp += (m - k) * std::log(1.0 - q);
        pmf[static_cast<std::size_t>(k)] = std::exp(logp);
    }
    std::vector<double> pi(static_cast<std::size_t>(m) + 1, 0.0);
    pi[static_cast<std::size_t>((m - 1) / 2)] = 1.0; // operating point
    for (int iter = 0; iter < 3000; ++iter) {
        std::vector<double> next(pi.size(), 0.0);
        for (int c = 0; c <= m; ++c) {
            if (pi[static_cast<std::size_t>(c)] == 0.0)
                continue;
            for (int col = 0; col <= m; ++col) {
                const int s = c + col;
                const bool out = s >= m;
                const int cp =
                    std::clamp(s - (m - 1) / 2 - (out ? 1 : 0), 0, m);
                next[static_cast<std::size_t>(cp)] +=
                    pi[static_cast<std::size_t>(c)] *
                    pmf[static_cast<std::size_t>(col)];
            }
        }
        pi.swap(next);
    }
    double p_out = 0.0;
    for (int c = 0; c <= m; ++c) {
        // P(col >= m - c)
        double tail = 0.0;
        for (int col = std::max(0, m - c); col <= m; ++col)
            tail += pmf[static_cast<std::size_t>(col)];
        p_out += pi[static_cast<std::size_t>(c)] * tail;
    }
    return 2.0 * p_out - 1.0;
}

class FeatureBlockTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FeatureBlockTest, LiteralEqualsCounterForm)
{
    const int m = GetParam();
    const FeatureExtractionBlock block(m);
    sc::Xoshiro256StarStar rng(m * 17);
    std::vector<sc::Bitstream> products;
    for (int j = 0; j < m; ++j) {
        products.push_back(sc::encodeBipolar(2.0 * rng.nextDouble() - 1.0,
                                             8, 256, rng));
    }
    EXPECT_EQ(block.run(products), block.runLiteral(products));
    EXPECT_EQ(block.run(products),
              block.runLiteral(products,
                               sorting::SortKind::ThreeSorterCells));
}

TEST_P(FeatureBlockTest, OutputValueMatchesMarkovSpec)
{
    const int m = GetParam();
    if (m % 2 == 0) {
        // Even m mixes in the deterministic neutral stream, which the
        // iid-Bernoulli Markov spec does not model.
        GTEST_SKIP() << "Markov spec covers odd m";
    }
    const FeatureExtractionBlock block(m);
    sc::Xoshiro256StarStar rng(m * 29 + 5);
    const std::size_t len = 16384;
    for (double target : {-1.5, -0.6, 0.0, 0.4, 1.7}) {
        std::vector<sc::Bitstream> products;
        const double per = std::clamp(target / m, -1.0, 1.0);
        const double quantized =
            sc::codeToBipolar(sc::quantizeBipolar(per, 10), 10);
        for (int j = 0; j < m; ++j)
            products.push_back(sc::encodeBipolar(per, 10, len, rng));
        const double expect =
            markovExpectedValue(m, (quantized + 1.0) / 2.0);
        const double got = block.run(products).bipolarValue();
        EXPECT_NEAR(got, expect, 0.05) << "m=" << m << " target=" << target;
    }
}

TEST_P(FeatureBlockTest, LargeSumsSaturate)
{
    // Deep saturation: all products at +1 give +1 exactly; all at -1
    // give -1 exactly (no ones ever enter the sorter).
    const int m = GetParam();
    const FeatureExtractionBlock block(m);
    const std::size_t len = 512;
    std::vector<sc::Bitstream> hi(static_cast<std::size_t>(m),
                                  sc::Bitstream(len, true));
    std::vector<sc::Bitstream> lo(static_cast<std::size_t>(m),
                                  sc::Bitstream(len, false));
    EXPECT_DOUBLE_EQ(block.run(hi).bipolarValue(), 1.0);
    EXPECT_DOUBLE_EQ(block.run(lo).bipolarValue(), -1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FeatureBlockTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 9, 16, 25));

TEST(FeatureBlock, EvenInputsPadded)
{
    const FeatureExtractionBlock block(4);
    EXPECT_EQ(block.m(), 4);
    EXPECT_EQ(block.effectiveM(), 5);
    const FeatureExtractionBlock odd(9);
    EXPECT_EQ(odd.effectiveM(), 9);
}

TEST(FeatureBlock, InnerProductMatchesManualXnor)
{
    const int m = 5;
    const FeatureExtractionBlock block(m);
    sc::Xoshiro256StarStar rng(77);
    std::vector<sc::Bitstream> x, w, products;
    for (int j = 0; j < m; ++j) {
        x.push_back(sc::encodeBipolar(0.3, 8, 128, rng));
        w.push_back(sc::encodeBipolar(-0.2, 8, 128, rng));
        products.push_back(x.back().xnorWith(w.back()));
    }
    EXPECT_EQ(block.runInnerProduct(x, w), block.run(products));
}

TEST(FeatureBlock, ActivationShapeIsShiftedClippedRelu)
{
    // Fig. 13: sweeping the true sum z, the mean output value is
    // monotone, tracks z in the linear region, saturates at +1 and
    // approaches -1 (with the soft negative knee inherent to the
    // surplus-only feedback) -- and matches the Markov spec throughout.
    const int m = 9;
    const FeatureExtractionBlock block(m);
    sc::Xoshiro256StarStar rng(99);
    const std::size_t len = 16384;
    double prev = -2.0;
    for (double z = -2.0; z <= 2.01; z += 0.5) {
        std::vector<sc::Bitstream> products;
        const double per = z / m;
        const double q =
            (sc::codeToBipolar(sc::quantizeBipolar(per, 10), 10) + 1.0) /
            2.0;
        for (int j = 0; j < m; ++j)
            products.push_back(sc::encodeBipolar(per, 10, len, rng));
        const double v = block.run(products).bipolarValue();
        EXPECT_GE(v, prev - 0.05); // monotone within noise
        EXPECT_NEAR(v, markovExpectedValue(m, q), 0.05) << "z=" << z;
        prev = v;
    }
    // Positive rail reached.
    std::vector<sc::Bitstream> hi(static_cast<std::size_t>(m),
                                  sc::Bitstream(len, true));
    EXPECT_DOUBLE_EQ(block.run(hi).bipolarValue(), 1.0);
}

// --------------------------------------------------------- avg pooling

class PoolingBlockTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PoolingBlockTest, LiteralEqualsCounterForm)
{
    const int m = GetParam();
    const AvgPoolingBlock block(m);
    sc::Xoshiro256StarStar rng(m * 13);
    std::vector<sc::Bitstream> ins;
    for (int j = 0; j < m; ++j) {
        ins.push_back(sc::encodeBipolar(2.0 * rng.nextDouble() - 1.0, 8,
                                        256, rng));
    }
    EXPECT_EQ(block.run(ins), block.runLiteral(ins));
}

TEST_P(PoolingBlockTest, ExactOnesConservation)
{
    // Algorithm 2 emits exactly floor-or-carry of total/M: the output
    // ones count can differ from total/M by at most 1.
    const int m = GetParam();
    const AvgPoolingBlock block(m);
    sc::Xoshiro256StarStar rng(m * 31);
    std::vector<sc::Bitstream> ins;
    std::size_t total = 0;
    for (int j = 0; j < m; ++j) {
        ins.push_back(sc::encodeBipolar(2.0 * rng.nextDouble() - 1.0, 10,
                                        1024, rng));
        total += ins.back().countOnes();
    }
    const double out_ones =
        static_cast<double>(block.run(ins).countOnes());
    EXPECT_NEAR(out_ones, static_cast<double>(total) / m, 1.0)
        << "m=" << m;
}

TEST_P(PoolingBlockTest, ValueIsMean)
{
    const int m = GetParam();
    const AvgPoolingBlock block(m);
    sc::Xoshiro256StarStar rng(m * 41);
    std::vector<sc::Bitstream> ins;
    double sum = 0.0;
    for (int j = 0; j < m; ++j) {
        const double v = 2.0 * rng.nextDouble() - 1.0;
        sum += sc::codeToBipolar(sc::quantizeBipolar(v, 10), 10);
        ins.push_back(sc::encodeBipolar(v, 10, 8192, rng));
    }
    EXPECT_NEAR(block.run(ins).bipolarValue(), sum / m, 0.06);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolingBlockTest,
                         ::testing::Values(1, 2, 4, 5, 9, 16, 25, 36));

// ------------------------------------------------------- categorization

TEST(CategorizationBlock, ChainLength)
{
    EXPECT_EQ(CategorizationBlock(1).chainLength(), 0);
    EXPECT_EQ(CategorizationBlock(3).chainLength(), 1);
    EXPECT_EQ(CategorizationBlock(5).chainLength(), 2);
    EXPECT_EQ(CategorizationBlock(101).chainLength(), 50);
    // Even K pads with one neutral stream first.
    EXPECT_EQ(CategorizationBlock(4).chainLength(), 2);
    EXPECT_EQ(CategorizationBlock(100).chainLength(), 50);
}

TEST(CategorizationBlock, SingleInputPassthrough)
{
    CategorizationBlock block(1);
    sc::Xoshiro256StarStar rng(5);
    const sc::Bitstream s = sc::encodeBipolar(0.3, 8, 128, rng);
    EXPECT_EQ(block.run({s}), s);
}

TEST(CategorizationBlock, MatchesExplicitFold)
{
    const int k = 7;
    CategorizationBlock block(k);
    sc::Xoshiro256StarStar rng(6);
    std::vector<sc::Bitstream> products;
    for (int j = 0; j < k; ++j)
        products.push_back(sc::encodeBipolar(2.0 * rng.nextDouble() - 1.0,
                                             8, 512, rng));
    const sc::Bitstream got = block.run(products);
    // Per-cycle explicit fold.
    for (std::size_t i = 0; i < 512; ++i) {
        auto maj = [](bool a, bool b, bool c) {
            return (a && b) || (a && c) || (b && c);
        };
        bool acc = maj(products[0].get(i), products[1].get(i),
                       products[2].get(i));
        acc = maj(acc, products[3].get(i), products[4].get(i));
        acc = maj(acc, products[5].get(i), products[6].get(i));
        ASSERT_EQ(got.get(i), acc) << "cycle " << i;
    }
}

TEST(CategorizationBlock, MonotoneInInputs)
{
    // Flipping any product bit 0 -> 1 can only raise the output: majority
    // chains are monotone, the property that preserves ranking.
    const int k = 9;
    CategorizationBlock block(k);
    sc::Xoshiro256StarStar rng(7);
    std::vector<sc::Bitstream> products;
    for (int j = 0; j < k; ++j)
        products.push_back(sc::encodeBipolar(0.0, 8, 64, rng));
    const std::size_t before = block.run(products).countOnes();
    // Raise one stream entirely to 1.
    products[4] = sc::Bitstream(64, true);
    const std::size_t after = block.run(products).countOnes();
    EXPECT_GE(after, before);
}

TEST(CategorizationBlock, PreservesRankingOfSeparatedScores)
{
    // Two output neurons sharing inputs, one with clearly larger inner
    // product: the majority-chain values must rank identically.
    const int k = 51;
    CategorizationBlock block(k);
    sc::Xoshiro256StarStar rng(8);
    const std::size_t len = 2048;
    std::vector<sc::Bitstream> x;
    std::vector<double> xv;
    for (int j = 0; j < k; ++j) {
        xv.push_back(2.0 * rng.nextDouble() - 1.0);
        x.push_back(sc::encodeBipolar(xv.back(), 10, len, rng));
    }
    // Weight set A correlates with x (large positive score), B is random.
    std::vector<sc::Bitstream> wa, wb;
    for (int j = 0; j < k; ++j) {
        wa.push_back(sc::encodeBipolar(std::clamp(xv[static_cast<std::size_t>(j)],
                                                  -1.0, 1.0),
                                       10, len, rng));
        wb.push_back(sc::encodeBipolar(2.0 * rng.nextDouble() - 1.0, 10,
                                       len, rng));
    }
    const double va = block.runInnerProduct(x, wa).bipolarValue();
    const double vb = block.runInnerProduct(x, wb).bipolarValue();
    EXPECT_GT(va, vb);
}

} // namespace
} // namespace aqfpsc::blocks
