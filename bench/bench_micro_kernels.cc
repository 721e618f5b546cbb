/**
 * @file
 * google-benchmark microbenchmarks of the simulation kernels: packed
 * XNOR multiply, column counting (unfused reference vs fused
 * XNOR+carry-save kernels), count extraction vs the fused feedback
 * drive, SNG stream generation (bit-serial vs word-batched), the
 * feedback kernel (AQFP sorter feedback and CMOS Btanh), a linear
 * stage's span at checkpoint-block widths, and the closed-form and
 * word-wide MUX pools against their per-cycle drives,
 * sorting-network application and netlist legalization.
 * These guard the performance of the whole-network SC engine (which
 * executes millions of block steps per image).
 *
 * Besides the google-benchmark console output, the binary ends by
 * measuring the fused-vs-unfused kernel pairs with a wall timer and
 * writing BENCH_micro_kernels.json, so the kernel-level speedup is
 * tracked machine-readably across PRs (set AQFPSC_BENCH_QUICK=1 to
 * shrink the measurement for CI smoke runs).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <memory>
#include <vector>

#include "aqfp/passes.h"
#include "baseline/sc_dcnn.h"
#include "bench_util.h"
#include "blocks/avg_pooling.h"
#include "blocks/feature_extraction.h"
#include "blocks/feedback_unit.h"
#include "core/stages/cmos_pool_stage.h"
#include "core/stages/stage_common.h"
#include "sc/apc.h"
#include "sc/simd/simd.h"
#include "sc/sng.h"
#include "sc/stream_matrix.h"
#include "sorting/bitonic.h"

namespace {

using namespace aqfpsc;

void
BM_XnorMultiply(benchmark::State &state)
{
    sc::Xoshiro256StarStar rng(1);
    const std::size_t len = static_cast<std::size_t>(state.range(0));
    const sc::Bitstream a = sc::encodeBipolar(0.3, 10, len, rng);
    const sc::Bitstream b = sc::encodeBipolar(-0.4, 10, len, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.xnorWith(b));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(len));
}
BENCHMARK(BM_XnorMultiply)->Arg(1024)->Arg(8192);

void
BM_ColumnCounts(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    const std::size_t len = 1024;
    sc::Xoshiro256StarStar rng(2);
    std::vector<sc::Bitstream> streams;
    for (int j = 0; j < m; ++j)
        streams.push_back(sc::encodeBipolar(0.0, 10, len, rng));
    std::vector<int> out;
    for (auto _ : state) {
        sc::ColumnCounts counts(len, m);
        for (const auto &s : streams)
            counts.add(s);
        counts.extract(out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * m *
                            static_cast<long>(len));
}
BENCHMARK(BM_ColumnCounts)->Arg(9)->Arg(121)->Arg(1569);

// ---------------------------------------------------------------------
// Fused vs unfused inference kernels.  Each *Unfused/*Fused pair
// computes the same per-neuron result (tests/test_fused_kernels.cc
// asserts bit-equality); the bench pair isolates the cost of the
// intermediate product buffer, the eager plane re-zeroing, and the
// materialized count array that the fused kernels eliminate.
// ---------------------------------------------------------------------

/** One neuron's operands: m products (x row j against w row j) plus
 *  a bias, and the neutral pad an even count takes. */
struct KernelInputs
{
    KernelInputs(int m, std::size_t len)
        : x(static_cast<std::size_t>(m), len),
          w(static_cast<std::size_t>(m), len), bias(1, len), neutral(1, len),
          first{0, static_cast<std::uint32_t>(m)}
    {
        sc::Xoshiro256StarStar rng(3);
        for (std::size_t j = 0; j < static_cast<std::size_t>(m); ++j) {
            x.fillBipolar(j, 0.1, 10, rng);
            w.fillBipolar(j, -0.2, 10, rng);
            rows.push_back(static_cast<std::uint32_t>(j));
        }
        bias.fillBipolar(0, 0.05, 10, rng);
        neutral.fillNeutral(0);
    }

    /** The bias, the pad and the products, as the sorter counts them. */
    int effM() const { return static_cast<int>(x.rows() + 1) | 1; }

    /** Store the neuron's counts into @p counts with one one-row call
     *  of the tile kernel. */
    void
    sumInto(sc::ColumnCounts &counts) const
    {
        const std::uint64_t *const inputs[] = {x.row(0)};
        std::uint64_t *const planes[] = {counts.overwritePlanes()};
        sc::simd::kernels().addXnorTile(
            {{first.data(), rows.data(), rows.data(), &run, 1, x.rows()},
             0,
             1,
             true,
             w.row(0),
             bias.row(0),
             neutral.row(0),
             w.wordsPerRow(),
             inputs,
             x.wordsPerRow(),
             planes,
             0,
             counts.wordCount(),
             1,
             x.wordsPerRow(),
             counts.planeCount()});
    }

    sc::StreamMatrix x, w, bias, neutral;
    /** The tile kernel's one-row operand lists. */
    std::vector<std::uint32_t> first, rows;
    std::uint8_t run = 1;
};

/** Reference path: XNOR into a product buffer, addWords, extract, step. */
void
runUnfusedNeuron(const KernelInputs &in, sc::ColumnCounts &counts,
                 std::vector<std::uint64_t> &prod, std::vector<int> &col,
                 std::uint64_t *dst)
{
    const std::size_t wpr = in.x.wordsPerRow();
    const int m = static_cast<int>(in.x.rows());
    counts.clear();
    for (int j = 0; j < m; ++j) {
        core::stages::xnorProduct(prod.data(),
                                  in.x.row(static_cast<std::size_t>(j)),
                                  in.w.row(static_cast<std::size_t>(j)),
                                  wpr);
        counts.addWords(prod.data(), wpr);
    }
    counts.addWords(in.bias.row(0), wpr);
    if (in.effM() != m + 1)
        counts.addWords(in.neutral.row(0), wpr);
    counts.extract(col);
    blocks::FeatureFeedbackUnit unit(in.effM());
    for (std::size_t i = 0; i < in.x.streamLen(); ++i) {
        if (unit.step(col[i]))
            core::stages::setStreamBit(dst, i);
    }
}

/** Fused path: one tile kernel call + drive, no intermediates. */
void
runFusedNeuron(const KernelInputs &in, sc::ColumnCounts &counts,
               blocks::FeatureFeedbackUnit &unit, std::uint64_t *dst)
{
    in.sumInto(counts);
    unit.reset(in.effM());
    counts.drive([&](int c) { return unit.step(c); }, dst);
}

void
BM_NeuronKernelUnfused(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    const std::size_t len = 1024;
    const KernelInputs in(m, len);
    sc::ColumnCounts counts(len, m + 2);
    std::vector<std::uint64_t> prod(in.x.wordsPerRow());
    std::vector<int> col;
    std::vector<std::uint64_t> dst(in.x.wordsPerRow());
    for (auto _ : state) {
        std::fill(dst.begin(), dst.end(), 0);
        runUnfusedNeuron(in, counts, prod, col, dst.data());
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * m *
                            static_cast<long>(len));
}
BENCHMARK(BM_NeuronKernelUnfused)->Arg(9)->Arg(121)->Arg(1569);

void
BM_NeuronKernelFused(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    const std::size_t len = 1024;
    const KernelInputs in(m, len);
    sc::ColumnCounts counts(len, m + 2);
    blocks::FeatureFeedbackUnit unit(1);
    std::vector<std::uint64_t> dst(in.x.wordsPerRow());
    for (auto _ : state) {
        runFusedNeuron(in, counts, unit, dst.data());
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * m *
                            static_cast<long>(len));
}
BENCHMARK(BM_NeuronKernelFused)->Arg(9)->Arg(121)->Arg(1569);

/** The pre-fusion StreamMatrix::fillBipolar loop: one virtual RNG draw
 *  and one compare per cycle.  Shared by the google-benchmark case and
 *  the JSON report so both measure the same reference kernel. */
void
runSngFillBitSerial(sc::StreamMatrix &m, sc::RandomSource &rng,
                    std::uint32_t code, int bits)
{
    const std::size_t len = m.streamLen();
    std::uint64_t *dst = m.row(0);
    for (std::size_t w = 0; w < m.wordsPerRow(); ++w) {
        std::uint64_t word = 0;
        const std::size_t hi = len - w * 64 < 64 ? len - w * 64 : 64;
        for (std::size_t b = 0; b < hi; ++b) {
            if (rng.nextBits(bits) < code)
                word |= 1ULL << b;
        }
        dst[w] = word;
    }
}

void
BM_SngFillBitSerial(benchmark::State &state)
{
    const std::size_t len = static_cast<std::size_t>(state.range(0));
    sc::Xoshiro256StarStar rng(4);
    sc::StreamMatrix m(1, len);
    const std::uint32_t code = sc::quantizeBipolar(0.25, 10);
    for (auto _ : state) {
        runSngFillBitSerial(m, rng, code, 10);
        benchmark::DoNotOptimize(m.row(0));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(len));
}
BENCHMARK(BM_SngFillBitSerial)->Arg(1024);

void
BM_SngFillWordBatched(benchmark::State &state)
{
    const std::size_t len = static_cast<std::size_t>(state.range(0));
    sc::Xoshiro256StarStar rng(4);
    sc::StreamMatrix m(1, len);
    for (auto _ : state) {
        m.fillBipolar(0, 0.25, 10, rng);
        benchmark::DoNotOptimize(m.row(0));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(len));
}
BENCHMARK(BM_SngFillWordBatched)->Arg(1024);

// ---------------------------------------------------------------------
// Carry-save tile kernel per dispatch tier, one row at a time: one
// output row's XNOR products and bias summed by a one-row
// KernelTable::addXnorTile call, at the stream lengths of the paper's
// sweep and the fan-ins of tiny Conv1 (9 + bias), snn Conv2 (288 +
// bias) and snn FC1 (1568 + bias).  tests/test_simd_kernels.cc asserts
// the tiers are bit-identical; these cases isolate their speed.
// ---------------------------------------------------------------------

constexpr sc::simd::Level kTiers[] = {sc::simd::Level::Scalar,
                                      sc::simd::Level::Avx2,
                                      sc::simd::Level::Avx512};

/** RAII level pin for the per-tier cases. */
struct BenchLevelGuard
{
    explicit BenchLevelGuard(sc::simd::Level level)
        : prev(sc::simd::activeLevel())
    {
        sc::simd::setActiveLevel(level);
    }
    ~BenchLevelGuard() { sc::simd::setActiveLevel(prev); }
    sc::simd::Level prev;
};

/** One output row's counts, stored over the counter's planes. */
void
runRowKernel(const KernelInputs &in, sc::ColumnCounts &counts)
{
    in.sumInto(counts);
}

void
BM_ColumnCountsRowKernel(benchmark::State &state)
{
    const sc::simd::Level tier =
        kTiers[static_cast<std::size_t>(state.range(0))];
    const std::size_t len = static_cast<std::size_t>(state.range(1));
    const int fan_in = static_cast<int>(state.range(2));
    if (static_cast<int>(tier) >
        static_cast<int>(sc::simd::detectedLevel())) {
        state.SkipWithError("tier not available on this host");
        return;
    }
    const KernelInputs in(fan_in, len);
    sc::ColumnCounts counts(len, fan_in + 2);
    const BenchLevelGuard guard(tier);
    for (auto _ : state) {
        runRowKernel(in, counts);
        benchmark::DoNotOptimize(counts);
        benchmark::ClobberMemory();
    }
    state.SetLabel(sc::simd::levelName(tier));
    state.SetItemsProcessed(state.iterations() * fan_in *
                            static_cast<long>(len));
}
BENCHMARK(BM_ColumnCountsRowKernel)
    ->ArgNames({"tier", "N", "fanin"})
    ->ArgsProduct({{0, 1, 2}, {64, 256, 1024}, {10, 289, 1569}});

// ---------------------------------------------------------------------
// Linear stage spans: an AQFP sorter stage's runCohortSpan over an
// N = 1024 stream cut into spans of 1, 2, 4, 8 or 16 words (the
// checkpoint blocks of 64 to 1024 cycles), one image.  Conv1-shaped is
// tiny's Conv1 (8 x 28 x 28 = 6272 rows, up to 11 products with bias
// and pad), FC1-shaped tiny's FC1 (64 rows of 394).  A span sums its
// tile with one tile kernel call and drives it through the feedback
// kernel, so ns per row-word should not grow as spans shrink.
// ---------------------------------------------------------------------

struct LinearSpanBench
{
    static constexpr std::size_t kLen = 1024;

    explicit LinearSpanBench(bool conv)
    {
        sc::Xoshiro256StarStar rng(8);
        const auto random = [&rng](std::size_t rows) {
            sc::StreamMatrix m(rows, kLen);
            for (std::size_t r = 0; r < rows; ++r)
                m.fillBipolar(r,
                              static_cast<double>(rng.nextBits(10)) / 512.0 -
                                  1.0,
                              10, rng);
            return m;
        };
        auto shared = std::make_shared<core::stages::StageShared>();
        if (conv) {
            const core::stages::ConvGeometry g{1, 28, 28, 8, 28, 28, 3};
            shared->plan = core::stages::compileOperandPlan(
                core::stages::ConvWindowGather{g});
            shared->streams.weights = random(8 * 9);
            shared->streams.biases = random(8);
            x = random(28 * 28);
            shared->streams.neutral = sc::StreamMatrix(1, kLen);
            shared->streams.neutral.fillNeutral(0);
            stage = std::make_unique<core::stages::AqfpConvStage>(
                g, std::move(shared));
        } else {
            const core::stages::DenseGeometry g{392, 64};
            shared->plan = core::stages::compileOperandPlan(
                core::stages::DenseGather{g});
            shared->streams.weights = random(392 * 64);
            shared->streams.biases = random(64);
            x = random(392);
            shared->streams.neutral = sc::StreamMatrix(1, kLen);
            shared->streams.neutral.fillNeutral(0);
            stage = std::make_unique<core::stages::AqfpDenseStage>(
                g, std::move(shared));
        }
        scratch = stage->makeScratch();
    }

    /** The whole stream, in spans of @p words words. */
    void
    run(std::size_t words)
    {
        const core::CohortSlot slot{&x, &out, &ctx, scratch.get()};
        for (std::size_t b = 0; b < kLen; b += 64 * words)
            stage->runCohortSpan(&slot, 1, b, std::min(kLen, b + 64 * words));
    }

    double
    rowWords() const
    {
        return static_cast<double>(stage->footprint().outputRows * kLen / 64);
    }

    std::unique_ptr<core::ScStage> stage;
    std::unique_ptr<core::StageScratch> scratch;
    sc::StreamMatrix x, out;
    core::StageContext ctx;
};

/** Args (shape: 0 = Conv1, 1 = FC1; span words). */
void
BM_LinearSpan(benchmark::State &state)
{
    LinearSpanBench bench(state.range(0) == 0);
    const auto words = static_cast<std::size_t>(state.range(1));
    for (auto _ : state) {
        bench.run(words);
        benchmark::DoNotOptimize(bench.out.row(0));
        benchmark::ClobberMemory();
    }
    // Items are row-words; the report rows give ns per row-word.
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(bench.rowWords()));
    state.SetLabel(state.range(0) == 0 ? "conv1" : "fc1");
}
BENCHMARK(BM_LinearSpan)
    ->ArgNames({"shape", "words"})
    ->ArgsProduct({{0, 1}, {1, 2, 4, 8, 16}});

// ---------------------------------------------------------------------
// Feedback recurrences: the rows-as-lanes feedback kernel per tier
// against the per-row drive it replaced (ColumnCounts::drivePrefix
// stepping one row's recurrence), on one tile of kFeedbackTileRows
// rows.  The AQFP sorter feedback runs at tiny Conv1's M = 11 and tiny
// FC1's M = 393, the CMOS Btanh counter at snn Conv1's m = 10 and snn
// Conv2's m = 289.  Then the closed-form 2x2 pool word against the
// PoolingFeedbackUnit drive, and the CMOS word-wide MUX pool against
// its per-cycle select draws.  tests/test_simd_kernels.cc and
// tests/test_blocks.cc assert the pairs are bit-identical; these cases
// isolate their speed.
// ---------------------------------------------------------------------

/** One tile of rows' column counts, as per-row counters and as the
 *  feedback kernel's plane buffer. */
struct FeedbackBenchTile
{
    FeedbackBenchTile(std::size_t len, int m,
                      sc::simd::FeedbackRecurrence recurrence)
        : len(len), m(m), recurrence(recurrence), words((len + 63) / 64),
          planes(std::bit_width(static_cast<unsigned>(m))),
          tile(kRows * static_cast<std::size_t>(planes) * words, 0),
          mBits(static_cast<std::size_t>(planes) * kSlice, 0),
          stateBits(mBits.size() + kSlice, 0), out(kRows * words, 0)
    {
        // Each row counts m random product streams.
        sc::Xoshiro256StarStar rng(6);
        std::vector<std::uint64_t> stream(words);
        for (std::size_t r = 0; r < kRows; ++r) {
            sc::ColumnCounts &counts = rows.emplace_back(len, m);
            for (int j = 0; j < m; ++j) {
                rng.nextWords(stream.data(), words);
                counts.addWords(stream.data(), words);
            }
            for (int k = 0; k < planes; ++k) {
                std::uint64_t *plane =
                    &tile[(r * static_cast<std::size_t>(planes) +
                           static_cast<std::size_t>(k)) *
                          words];
                for (std::size_t t = 0; t < len; ++t)
                    plane[t / 64] |=
                        static_cast<std::uint64_t>((counts.count(t) >> k) &
                                                   1)
                        << (t % 64);
                mBits[static_cast<std::size_t>(k) * kSlice + r / 64] |=
                    static_cast<std::uint64_t>((m >> k) & 1) << (r % 64);
            }
        }
    }

    bool
    btanh() const
    {
        return recurrence == sc::simd::FeedbackRecurrence::Btanh;
    }

    /** The per-row reference drive, from the operating point. */
    void
    runPerRow()
    {
        for (std::size_t r = 0; r < kRows; ++r) {
            if (btanh()) {
                int state = m;
                rows[r].drivePrefix(
                    len,
                    [&](int c) {
                        return baseline::ApcFeatureExtraction::btanhStep(
                            state, c, m, 2 * m);
                    },
                    &out[r * words]);
                continue;
            }
            unit.reset(m);
            rows[r].drivePrefix(len, [&](int c) { return unit.step(c); },
                                &out[r * words]);
        }
    }

    /** One feedback kernel call over the tile, from the operating point
     *  in every row: the sorter's carry H = M >> 1, Btanh's state m. */
    void
    runKernel()
    {
        const int shift = btanh() ? 0 : 1;
        for (int k = 0; k <= planes; ++k) {
            const std::size_t at = static_cast<std::size_t>(k) * kSlice;
            if (k + shift < planes)
                std::copy_n(&mBits[at + shift * kSlice], kSlice,
                            &stateBits[at]);
            else
                std::fill_n(&stateBits[at], kSlice, 0);
        }
        sc::simd::kernels().featureFeedback(
            {tile.data(), static_cast<std::size_t>(planes) * words, words,
             planes, kRows, mBits.data(), stateBits.data(), kSlice,
             out.data(), words, len, recurrence});
    }

    static constexpr std::size_t kRows = sc::simd::kFeedbackTileRows;
    static constexpr std::size_t kSlice = kRows / 64;
    std::size_t len;
    int m;
    sc::simd::FeedbackRecurrence recurrence;
    std::size_t words;
    int planes;
    std::vector<sc::ColumnCounts> rows;
    std::vector<std::uint64_t> tile, mBits, stateBits, out;
    blocks::FeatureFeedbackUnit unit{1};
};

/** Per-row drive of @p recurrence over one tile: args (N, m). */
void
runFeedbackPerRow(benchmark::State &state,
                  sc::simd::FeedbackRecurrence recurrence)
{
    FeedbackBenchTile tile(static_cast<std::size_t>(state.range(0)),
                           static_cast<int>(state.range(1)), recurrence);
    for (auto _ : state) {
        tile.runPerRow();
        benchmark::DoNotOptimize(tile.out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(tile.kRows * tile.len));
}

/** Feedback kernel of @p recurrence over one tile: args (tier, N, m). */
void
runFeedbackKernel(benchmark::State &state,
                  sc::simd::FeedbackRecurrence recurrence)
{
    const sc::simd::Level tier =
        kTiers[static_cast<std::size_t>(state.range(0))];
    if (static_cast<int>(tier) >
        static_cast<int>(sc::simd::detectedLevel())) {
        state.SkipWithError("tier not available on this host");
        return;
    }
    FeedbackBenchTile tile(static_cast<std::size_t>(state.range(1)),
                           static_cast<int>(state.range(2)), recurrence);
    const BenchLevelGuard guard(tier);
    for (auto _ : state) {
        tile.runKernel();
        benchmark::DoNotOptimize(tile.out.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(sc::simd::levelName(tier));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(tile.kRows * tile.len));
}

void
BM_FeatureFeedbackPerRow(benchmark::State &state)
{
    runFeedbackPerRow(state, sc::simd::FeedbackRecurrence::SorterMajority);
}
BENCHMARK(BM_FeatureFeedbackPerRow)
    ->ArgNames({"N", "M"})
    ->ArgsProduct({{64, 256, 1024}, {11, 393}});

void
BM_FeatureFeedbackKernel(benchmark::State &state)
{
    runFeedbackKernel(state, sc::simd::FeedbackRecurrence::SorterMajority);
}
BENCHMARK(BM_FeatureFeedbackKernel)
    ->ArgNames({"tier", "N", "M"})
    ->ArgsProduct({{0, 1, 2}, {64, 256, 1024}, {11, 393}});

void
BM_BtanhPerRow(benchmark::State &state)
{
    runFeedbackPerRow(state, sc::simd::FeedbackRecurrence::Btanh);
}
BENCHMARK(BM_BtanhPerRow)
    ->ArgNames({"N", "m"})
    ->ArgsProduct({{64, 256, 1024}, {10, 289}});

void
BM_BtanhKernel(benchmark::State &state)
{
    runFeedbackKernel(state, sc::simd::FeedbackRecurrence::Btanh);
}
BENCHMARK(BM_BtanhKernel)
    ->ArgNames({"tier", "N", "m"})
    ->ArgsProduct({{0, 1, 2}, {64, 256, 1024}, {10, 289}});

/** One 2x2 pooling window's four streams and its output row. */
struct PoolBenchWindow
{
    explicit PoolBenchWindow(std::size_t len)
        : len(len), words((len + 63) / 64), in(4, len), out(words),
          counts(len, 4)
    {
        sc::Xoshiro256StarStar rng(7);
        for (std::size_t j = 0; j < 4; ++j)
            in.fillBipolar(j, 0.3 - 0.2 * static_cast<double>(j), 10, rng);
    }

    /** The replaced drive: count the window, step the unit per cycle. */
    void
    runUnit()
    {
        counts.clear();
        for (std::size_t j = 0; j < 4; ++j)
            counts.addWords(in.row(j), words);
        unit.reset();
        counts.drivePrefix(len, [&](int c) { return unit.step(c); },
                           out.data());
    }

    void
    runClosedForm()
    {
        int carry = 0;
        for (std::size_t w = 0; w < words; ++w)
            out[w] = blocks::poolWord4(
                in.row(0)[w], in.row(1)[w], in.row(2)[w], in.row(3)[w],
                carry,
                static_cast<unsigned>(std::min<std::size_t>(64, len - 64 * w)));
    }

    std::size_t len;
    std::size_t words;
    sc::StreamMatrix in;
    std::vector<std::uint64_t> out;
    sc::ColumnCounts counts;
    blocks::PoolingFeedbackUnit unit{4};
};

void
BM_PoolWindowUnitDrive(benchmark::State &state)
{
    PoolBenchWindow win(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        win.runUnit();
        benchmark::DoNotOptimize(win.out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(win.len));
}
BENCHMARK(BM_PoolWindowUnitDrive)->Arg(1024);

void
BM_PoolWindowClosedForm(benchmark::State &state)
{
    PoolBenchWindow win(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        win.runClosedForm();
        benchmark::DoNotOptimize(win.out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(win.len));
}
BENCHMARK(BM_PoolWindowClosedForm)->Arg(1024);

/** Load @p rng's state into lane @p l of @p gen. */
void
loadLane(sc::simd::XoshiroLanes &gen, std::size_t l,
         const sc::Xoshiro256StarStar &rng)
{
    const std::array<std::uint64_t, 4> s = rng.state();
    for (std::size_t k = 0; k < 4; ++k)
        gen.s[k][l] = s[k];
}

/** Store lane @p l of @p gen into @p rng. */
void
storeLane(const sc::simd::XoshiroLanes &gen, std::size_t l,
          sc::Xoshiro256StarStar &rng)
{
    rng.setState({gen.s[0][l], gen.s[1][l], gen.s[2][l], gen.s[3][l]});
}

/** One CMOS MUX pooling window: four streams, the select generator and
 *  the output row. */
struct MuxBenchWindow
{
    explicit MuxBenchWindow(std::size_t len)
        : len(len), in(4, len), out((len + 63) / 64)
    {
        sc::Xoshiro256StarStar fill(8);
        for (std::size_t j = 0; j < 4; ++j) {
            in.fillBipolar(j, 0.3 - 0.2 * static_cast<double>(j), 10, fill);
            rows[j] = in.row(j);
        }
    }

    /** The replaced loop: one nextBits(2) select per cycle. */
    void
    runPerCycle()
    {
        std::uint64_t word = 0;
        for (std::size_t i = 0; i < len; ++i) {
            const std::uint64_t sel = rng.nextBits(2);
            word |= ((rows[sel][i / 64] >> (i % 64)) & 1ULL) << (i % 64);
            if (i % 64 == 63) {
                out[i / 64] = word;
                word = 0;
            }
        }
        if (len % 64 != 0)
            out[len / 64] = word;
    }

    /** The word-wide MUX on the lane kernel, one lane. */
    void
    runWordMux()
    {
        const std::uint64_t *const lane_rows[1][4] = {
            {rows[0], rows[1], rows[2], rows[3]}};
        std::uint64_t *const dst[1] = {out.data()};
        sc::simd::XoshiroLanes gen;
        gen.lanes = 1;
        loadLane(gen, 0, rng);
        core::stages::muxPoolLanes(lane_rows, gen, 0, len, dst);
        storeLane(gen, 0, rng);
    }

    std::size_t len;
    sc::StreamMatrix in;
    const std::uint64_t *rows[4];
    std::vector<std::uint64_t> out;
    sc::Xoshiro256StarStar rng{9};
};

void
BM_CmosPoolPerCycle(benchmark::State &state)
{
    MuxBenchWindow win(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        win.runPerCycle();
        benchmark::DoNotOptimize(win.out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(win.len));
}
BENCHMARK(BM_CmosPoolPerCycle)->Arg(256)->Arg(1024);

void
BM_CmosPoolWordMux(benchmark::State &state)
{
    MuxBenchWindow win(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        win.runWordMux();
        benchmark::DoNotOptimize(win.out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(win.len));
}
BENCHMARK(BM_CmosPoolWordMux)->Arg(256)->Arg(1024);

// ---------------------------------------------------------------------
// Lane-parallel xoshiro generators per tier: a cohort's input SNGs
// (sc::fillBipolarLanes) and a pool pixel's MUX selects for every image
// (core::stages::muxPoolLanes), each image's generator in its own lane,
// against the serial path they replaced (per image: nextWords, then the
// tier's thresholdPack).  tests/test_simd_kernels.cc asserts both draw
// bit-identical words; these cases isolate their speed.
// ---------------------------------------------------------------------

/** A cohort of @c lanes small images (kRows pixels) to encode. */
struct LaneSngBench
{
    LaneSngBench(std::size_t lanes, std::size_t len)
        : lanes(lanes), len(len), images(lanes, sc::StreamMatrix(kRows, len)),
          values(lanes, std::vector<float>(kRows))
    {
        for (std::size_t l = 0; l < lanes; ++l) {
            for (std::size_t i = 0; i < kRows; ++i)
                values[l][i] =
                    static_cast<float>((i * 37 + l * 11) % 201) / 100.0f -
                    1.0f;
            rngs.emplace_back(l + 1);
        }
    }

    /** One sc::fillBipolarLanes call over the cohort. */
    void
    runLanes()
    {
        sc::StreamMatrix *out[sc::simd::kXoshiroLanes];
        const float *vals[sc::simd::kXoshiroLanes];
        sc::Xoshiro256StarStar *rng[sc::simd::kXoshiroLanes];
        for (std::size_t l = 0; l < lanes; ++l) {
            out[l] = &images[l];
            vals[l] = values[l].data();
            rng[l] = &rngs[l];
        }
        sc::fillBipolarLanes(out, vals, rng, lanes, 10, 0, len);
    }

    /** The serial path: image by image, row by row through fillBipolar. */
    void
    runSerial()
    {
        for (std::size_t l = 0; l < lanes; ++l)
            for (std::size_t i = 0; i < kRows; ++i)
                images[l].fillBipolar(i, values[l][i], 10, rngs[l]);
    }

    double draws() const { return static_cast<double>(lanes * kRows * len); }

    static constexpr std::size_t kRows = 64;
    std::size_t lanes;
    std::size_t len;
    std::vector<sc::StreamMatrix> images;
    std::vector<std::vector<float>> values;
    std::vector<sc::Xoshiro256StarStar> rngs;
};

/** One pooling window per image of a cohort of @c lanes. */
struct LaneMuxBench
{
    LaneMuxBench(std::size_t lanes, std::size_t len)
        : lanes(lanes), len(len), in(4 * lanes, len),
          out(lanes, std::vector<std::uint64_t>((len + 63) / 64))
    {
        sc::Xoshiro256StarStar fill(8);
        for (std::size_t j = 0; j < 4 * lanes; ++j)
            in.fillBipolar(j, 0.3 - 0.1 * static_cast<double>(j % 7), 10,
                           fill);
        for (std::size_t l = 0; l < lanes; ++l) {
            for (std::size_t j = 0; j < 4; ++j)
                rows[l][j] = in.row(4 * l + j);
            dst[l] = out[l].data();
            rngs.emplace_back(l + 9);
        }
    }

    /** One muxPoolLanes call: every image's window at once. */
    void
    runLanes()
    {
        sc::simd::XoshiroLanes gen;
        gen.lanes = lanes;
        for (std::size_t l = 0; l < lanes; ++l)
            loadLane(gen, l, rngs[l]);
        core::stages::muxPoolLanes(rows, gen, 0, len, dst);
        for (std::size_t l = 0; l < lanes; ++l)
            storeLane(gen, l, rngs[l]);
    }

    /** The serial path, image by image: each word's 64 selects drawn
     *  with nextWords and turned into sel < 1, 2, 3 masks by the tier's
     *  thresholdPack, then a 4:1 word MUX. */
    void
    runSerial()
    {
        const sc::simd::ThresholdPackFn pack =
            sc::simd::kernels().thresholdPack;
        std::uint64_t draws[64];
        for (std::size_t l = 0; l < lanes; ++l) {
            const std::uint64_t *const *r = rows[l];
            for (std::size_t i = 0; i < len; i += 64) {
                const std::size_t n = std::min<std::size_t>(64, len - i);
                rngs[l].nextWords(draws, n);
                const std::uint64_t below1 = pack(draws, n, 1ULL << 62);
                const std::uint64_t below2 = pack(draws, n, 2ULL << 62);
                const std::uint64_t below3 = pack(draws, n, 3ULL << 62);
                const std::size_t w = i / 64;
                const std::uint64_t top =
                    (below1 & r[0][w]) | (~below1 & r[1][w]);
                const std::uint64_t bottom =
                    (below3 & r[2][w]) | (~below3 & r[3][w]);
                dst[l][w] = (below2 & top) | (~below2 & bottom);
            }
        }
    }

    double draws() const { return static_cast<double>(lanes * len); }

    std::size_t lanes;
    std::size_t len;
    sc::StreamMatrix in;
    std::vector<std::vector<std::uint64_t>> out;
    const std::uint64_t *rows[sc::simd::kXoshiroLanes][4] = {};
    std::uint64_t *dst[sc::simd::kXoshiroLanes] = {};
    std::vector<sc::Xoshiro256StarStar> rngs;
};

/** Run @p Bench's lane or serial path: args (tier, lanes, N). */
template <typename Bench>
void
runLaneBench(benchmark::State &state, bool lanes_path)
{
    const sc::simd::Level tier =
        kTiers[static_cast<std::size_t>(state.range(0))];
    if (static_cast<int>(tier) >
        static_cast<int>(sc::simd::detectedLevel())) {
        state.SkipWithError("tier not available on this host");
        return;
    }
    Bench bench(static_cast<std::size_t>(state.range(1)),
                static_cast<std::size_t>(state.range(2)));
    const BenchLevelGuard guard(tier);
    for (auto _ : state) {
        if (lanes_path)
            bench.runLanes();
        else
            bench.runSerial();
        benchmark::ClobberMemory();
    }
    state.SetLabel(sc::simd::levelName(tier));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(bench.draws()));
}

void
BM_SngFillLanes(benchmark::State &state)
{
    runLaneBench<LaneSngBench>(state, true);
}
BENCHMARK(BM_SngFillLanes)
    ->ArgNames({"tier", "lanes", "N"})
    ->ArgsProduct({{0, 1, 2}, {1, 4, 8}, {256, 1024}});

void
BM_SngFillSerial(benchmark::State &state)
{
    runLaneBench<LaneSngBench>(state, false);
}
BENCHMARK(BM_SngFillSerial)
    ->ArgNames({"tier", "lanes", "N"})
    ->ArgsProduct({{0, 1, 2}, {1, 4, 8}, {256, 1024}});

void
BM_CmosPoolLanes(benchmark::State &state)
{
    runLaneBench<LaneMuxBench>(state, true);
}
BENCHMARK(BM_CmosPoolLanes)
    ->ArgNames({"tier", "lanes", "N"})
    ->ArgsProduct({{0, 1, 2}, {1, 4, 8}, {256, 1024}});

void
BM_CmosPoolSerial(benchmark::State &state)
{
    runLaneBench<LaneMuxBench>(state, false);
}
BENCHMARK(BM_CmosPoolSerial)
    ->ArgNames({"tier", "lanes", "N"})
    ->ArgsProduct({{0, 1, 2}, {1, 4, 8}, {256, 1024}});

void
BM_FeatureBlockRun(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    const std::size_t len = 1024;
    sc::Xoshiro256StarStar rng(3);
    std::vector<sc::Bitstream> products;
    for (int j = 0; j < m; ++j)
        products.push_back(sc::encodeBipolar(0.1, 10, len, rng));
    const blocks::FeatureExtractionBlock block(m);
    for (auto _ : state)
        benchmark::DoNotOptimize(block.run(products));
    state.SetItemsProcessed(state.iterations() * m *
                            static_cast<long>(len));
}
BENCHMARK(BM_FeatureBlockRun)->Arg(9)->Arg(121);

void
BM_SngStreamGeneration(benchmark::State &state)
{
    sc::Xoshiro256StarStar rng(4);
    const std::size_t len = static_cast<std::size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(sc::encodeBipolar(0.25, 10, len, rng));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(len));
}
BENCHMARK(BM_SngStreamGeneration)->Arg(1024);

void
BM_BitonicApply(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const sorting::BitonicNetwork net = sorting::BitonicNetwork::sorter(n);
    sc::Xoshiro256StarStar rng(5);
    std::vector<int> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = static_cast<int>(rng.nextBits(16));
    for (auto _ : state) {
        std::vector<int> copy = v;
        net.apply(copy);
        benchmark::DoNotOptimize(copy.data());
    }
}
BENCHMARK(BM_BitonicApply)->Arg(32)->Arg(128);

void
BM_LegalizeFeatureBlock(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(aqfp::legalize(
            blocks::FeatureExtractionBlock::buildNetlist(m), false));
    }
}
BENCHMARK(BM_LegalizeFeatureBlock)->Arg(9)->Arg(49)->Unit(
    benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Machine-readable fused-vs-unfused report
// ---------------------------------------------------------------------

/** Seconds per pass of @p fn, adaptively iterated to ~target seconds. */
template <typename Fn>
double
secondsPerPass(Fn &&fn, double target)
{
    std::size_t iters = 0;
    bench::WallTimer timer;
    do {
        fn();
        ++iters;
    } while (timer.seconds() < target);
    return timer.seconds() / static_cast<double>(iters);
}

void
writeFusedKernelReport()
{
    const bool quick = std::getenv("AQFPSC_BENCH_QUICK") != nullptr;
    const double target = quick ? 0.02 : 0.3;
    const std::size_t len = 1024;

    bench::Json rows = bench::Json::array();
    for (const int m : {9, 121, 1569}) {
        const KernelInputs in(m, len);
        sc::ColumnCounts counts(len, m + 2);
        std::vector<std::uint64_t> prod(in.x.wordsPerRow());
        std::vector<int> col;
        std::vector<std::uint64_t> dst(in.x.wordsPerRow());
        blocks::FeatureFeedbackUnit unit(1);

        const double unfused = secondsPerPass(
            [&] {
                std::fill(dst.begin(), dst.end(), 0);
                runUnfusedNeuron(in, counts, prod, col, dst.data());
            },
            target);
        const double fused = secondsPerPass(
            [&] { runFusedNeuron(in, counts, unit, dst.data()); }, target);

        rows.push(bench::Json::object()
                      .set("kernel", "xnor_count_feedback_neuron")
                      .set("m", m)
                      .set("stream_len", len)
                      .set("unfused_sec_per_neuron", unfused)
                      .set("fused_sec_per_neuron", fused)
                      .set("speedup", unfused / fused));
    }

    // SNG fill: bit-serial reference vs word-batched fillBipolar.
    {
        sc::Xoshiro256StarStar rng(4);
        sc::StreamMatrix m(1, len);
        const std::uint32_t code = sc::quantizeBipolar(0.25, 10);
        const double serial = secondsPerPass(
            [&] { runSngFillBitSerial(m, rng, code, 10); }, target);
        const double batched = secondsPerPass(
            [&] { m.fillBipolar(0, 0.25, 10, rng); }, target);
        rows.push(bench::Json::object()
                      .set("kernel", "sng_fill_bipolar")
                      .set("stream_len", len)
                      .set("unfused_sec_per_stream", serial)
                      .set("fused_sec_per_stream", batched)
                      .set("speedup", serial / batched));
    }

    // Row kernel per tier.  Every tier runs the same addXnorTile call;
    // only the dispatch table differs, so the speedup over the scalar
    // tier is the vector lanes' (the outputs are bit-identical — see
    // tests/test_simd_kernels.cc).
    const sc::simd::Level vec = sc::simd::detectedLevel();
    const std::string vec_name = sc::simd::levelName(vec);
    for (const std::size_t n : {std::size_t{64}, std::size_t{256},
                                std::size_t{1024}}) {
        for (const int fan_in : {10, 289, 1569}) {
            const KernelInputs in(fan_in, n);
            sc::ColumnCounts counts(n, fan_in + 2);
            double scalar_sec = 0.0;
            for (const sc::simd::Level tier : kTiers) {
                if (static_cast<int>(tier) > static_cast<int>(vec))
                    break;
                const BenchLevelGuard guard(tier);
                const double sec = secondsPerPass(
                    [&] { runRowKernel(in, counts); }, target);
                if (tier == sc::simd::Level::Scalar)
                    scalar_sec = sec;
                rows.push(bench::Json::object()
                              .set("kernel", "carry_save_row")
                              .set("simd_level", sc::simd::levelName(tier))
                              .set("stream_len", n)
                              .set("fan_in", fan_in)
                              .set("sec_per_row", sec)
                              .set("speedup_vs_scalar", scalar_sec / sec));
            }
        }
    }
    // Feedback kernel per tier against the per-row drive, one tile of
    // kFeedbackTileRows rows per pass: the sorter feedback, then Btanh.
    struct FeedbackRows
    {
        sc::simd::FeedbackRecurrence recurrence;
        const char *perRow;
        const char *tile;
        int ms[2];
    };
    for (const FeedbackRows &kind :
         {FeedbackRows{sc::simd::FeedbackRecurrence::SorterMajority,
                       "feature_feedback_per_row", "feature_feedback_tile",
                       {11, 393}},
          FeedbackRows{sc::simd::FeedbackRecurrence::Btanh, "btanh_per_row",
                       "btanh_tile", {10, 289}}}) {
        for (const std::size_t n : {std::size_t{64}, std::size_t{256},
                                    std::size_t{1024}}) {
            for (const int m : kind.ms) {
                FeedbackBenchTile tile(n, m, kind.recurrence);
                const double row_cycles =
                    static_cast<double>(tile.kRows * tile.len);
                const double per_row =
                    secondsPerPass([&] { tile.runPerRow(); }, target);
                rows.push(bench::Json::object()
                              .set("kernel", kind.perRow)
                              .set("stream_len", n)
                              .set("m", m)
                              .set("ns_per_row_cycle",
                                   per_row / row_cycles * 1e9));
                for (const sc::simd::Level tier : kTiers) {
                    if (static_cast<int>(tier) > static_cast<int>(vec))
                        break;
                    const BenchLevelGuard guard(tier);
                    const double sec =
                        secondsPerPass([&] { tile.runKernel(); }, target);
                    rows.push(
                        bench::Json::object()
                            .set("kernel", kind.tile)
                            .set("simd_level", sc::simd::levelName(tier))
                            .set("stream_len", n)
                            .set("m", m)
                            .set("ns_per_row_cycle", sec / row_cycles * 1e9)
                            .set("speedup_vs_per_row", per_row / sec));
                }
            }
        }
    }
    // Linear stage spans on the detected tier, ns per row-word.
    for (const bool conv : {true, false}) {
        LinearSpanBench bench(conv);
        for (const std::size_t words :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
              std::size_t{16}}) {
            const double sec =
                secondsPerPass([&] { bench.run(words); }, target);
            rows.push(bench::Json::object()
                          .set("kernel", "linear_span")
                          .set("shape", conv ? "conv1" : "fc1")
                          .set("rows", bench.stage->footprint().outputRows)
                          .set("products", conv ? 11 : 394)
                          .set("simd_level", vec_name)
                          .set("stream_len", LinearSpanBench::kLen)
                          .set("span_words", words)
                          .set("ns_per_row_word",
                               sec / bench.rowWords() * 1e9));
        }
    }
    {
        PoolBenchWindow win(len);
        const double unit_sec =
            secondsPerPass([&] { win.runUnit(); }, target);
        const double closed_sec =
            secondsPerPass([&] { win.runClosedForm(); }, target);
        rows.push(bench::Json::object()
                      .set("kernel", "pool_window_closed_form")
                      .set("stream_len", len)
                      .set("unit_sec_per_window", unit_sec)
                      .set("closed_form_sec_per_window", closed_sec)
                      .set("speedup", unit_sec / closed_sec));
    }
    for (const std::size_t n : {std::size_t{256}, std::size_t{1024}}) {
        MuxBenchWindow win(n);
        const double per_cycle =
            secondsPerPass([&] { win.runPerCycle(); }, target);
        const double word_mux =
            secondsPerPass([&] { win.runWordMux(); }, target);
        rows.push(bench::Json::object()
                      .set("kernel", "cmos_pool_word_mux")
                      .set("stream_len", n)
                      .set("simd_level", vec_name)
                      .set("per_cycle_ns_per_cycle",
                           per_cycle / static_cast<double>(n) * 1e9)
                      .set("word_mux_ns_per_cycle",
                           word_mux / static_cast<double>(n) * 1e9)
                      .set("speedup", per_cycle / word_mux));
    }
    // Lane-parallel generators per tier against the serial path, per
    // draw: a cohort's input SNGs, then a pool pixel's MUX selects.
    const auto laneRows = [&](const char *kernel, auto make) {
        for (const sc::simd::Level tier : kTiers) {
            if (static_cast<int>(tier) > static_cast<int>(vec))
                break;
            const BenchLevelGuard guard(tier);
            for (const std::size_t lanes :
                 {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
                for (const std::size_t n :
                     {std::size_t{256}, std::size_t{1024}}) {
                    auto work = make(lanes, n);
                    const double lane_sec =
                        secondsPerPass([&] { work.runLanes(); }, target);
                    const double serial_sec =
                        secondsPerPass([&] { work.runSerial(); }, target);
                    rows.push(bench::Json::object()
                                  .set("kernel", kernel)
                                  .set("simd_level", sc::simd::levelName(tier))
                                  .set("lanes", lanes)
                                  .set("stream_len", n)
                                  .set("lane_ns_per_draw",
                                       lane_sec / work.draws() * 1e9)
                                  .set("serial_ns_per_draw",
                                       serial_sec / work.draws() * 1e9)
                                  .set("speedup", serial_sec / lane_sec));
                }
            }
        }
    };
    laneRows("sng_fill_lanes", [](std::size_t lanes, std::size_t n) {
        return LaneSngBench(lanes, n);
    });
    laneRows("cmos_pool_lanes", [](std::size_t lanes, std::size_t n) {
        return LaneMuxBench(lanes, n);
    });
    {
        sc::Xoshiro256StarStar rng(9);
        sc::StreamMatrix m(1, len);
        double scalar_sec = 0.0;
        double simd_sec = 0.0;
        {
            const BenchLevelGuard guard(sc::simd::Level::Scalar);
            scalar_sec = secondsPerPass(
                [&] { m.fillBipolar(0, 0.731, 10, rng); }, target);
        }
        {
            const BenchLevelGuard guard(vec);
            simd_sec = secondsPerPass(
                [&] { m.fillBipolar(0, 0.731, 10, rng); }, target);
        }
        rows.push(bench::Json::object()
                      .set("kernel", "sng_threshold_fill")
                      .set("stream_len", len)
                      .set("scalar_sec_per_stream", scalar_sec)
                      .set("simd_sec_per_stream", simd_sec)
                      .set("speedup", scalar_sec / simd_sec)
                      .set("simd_level", vec_name));
    }

    bench::writeBenchReport("micro_kernels", std::move(rows));
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    writeFusedKernelReport();
    return 0;
}
