/**
 * @file
 * Differential tests of the runtime-dispatched SIMD kernels
 * (src/sc/simd/) against the scalar reference loops.
 *
 * The dispatch contract is bit-identity: the carry-save planes hold
 * exact binary counts (independent of addition grouping) and the
 * feedback kernel computes the feedback unit's integer recurrence, so
 * every tier's kernels must reproduce the scalar references exactly on
 * every input.  Coverage:
 *
 *  - the tile kernel of every tier this host can run (not only the
 *    detected one) against the one-ripple-per-product reference:
 *    plane counts 1-12, spans {1,2,3,4,5,8,9,16} at a nonzero word
 *    offset, lists of 0 to 70 products, dense and run plans, tiles of
 *    1 to 512 rows, cohorts of 1-9 and conv border windows; every
 *    plane count at its full capacity (2^P - 1, all-ones and random
 *    operands), on word lanes and row lanes; every word around the span
 *    must keep its sentinel;
 *  - the feedback kernel of every tier against one FeatureFeedbackUnit
 *    per row (every odd M up to 63 and five wide ones) and one
 *    btanhStep per row (every m up to 64 and five wide ones): mixed m
 *    within a tile, tiles of 1 to 512 rows, states pinned at both
 *    rails, resumed spans and a partial last word; the sorter dense
 *    stage and the CMOS conv and dense stages against per-row
 *    references, and their refusal of a fan-in too wide for the
 *    kernels' planes; and the CMOS word-wide MUX pool against
 *    per-cycle nextBits(2) selects;
 *  - SNG threshold fill (fillBipolar) forced-scalar vs dispatched
 *    across values (incl. the all-ones special case), code widths and
 *    lengths, plus a direct kernel unit sweep over n in [1, 64];
 *  - the lane-parallel xoshiro kernels of every tier (the cohort SNG
 *    fill, directly and through sc::fillBipolarLanes, and the MUX
 *    select draws) against one serial generator per lane, over 1-8, 9
 *    and 12 lanes and resumed spans, final states included;
 *  - dispatch-layer invariants (level ordering, env-override policy,
 *    the kernel list variantSummary() stamps);
 *  - end-to-end golden score hashes equal on every tier: tiny on all
 *    stream backends, snn's wide fan-in layers on cmos-apc at N = 256
 *    (2 images), and an adaptive run with 64-cycle checkpoints.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/sc_dcnn.h"
#include "blocks/feedback_unit.h"
#include "core/model_zoo.h"
#include "core/sc_engine.h"
#include "core/session.h"
#include "core/workspace.h"
#include "core/stages/aqfp_dense_stage.h"
#include "core/stages/cmos_conv_stage.h"
#include "core/stages/cmos_dense_stage.h"
#include "core/stages/cmos_pool_stage.h"
#include "core/stages/stage_common.h"
#include "data/digits.h"
#include "nn/layers.h"
#include "nn/network.h"
#include "sc/apc.h"
#include "sc/rng.h"
#include "sc/simd/kernels_scalar.h"
#include "sc/simd/simd.h"
#include "sc/sng.h"
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

/** Operands of the tile kernel cases: per-image inputs, the weight,
 *  bias and neutral rows, all kTileWords words wide. */
struct TileOperands
{
    static constexpr std::size_t kTileWords = 20;

    std::vector<sc::StreamMatrix> inputs;
    sc::StreamMatrix weights, bias, neutral;

    /** Random rows; with @p saturate every row is all ones, so each
     *  column counts up to the row's m exactly. */
    TileOperands(std::size_t images, std::size_t in_rows,
                 std::size_t weight_rows, std::size_t groups, bool saturate,
                 sc::Xoshiro256StarStar &rng)
        : weights(make(weight_rows, saturate, rng)),
          bias(make(groups, saturate, rng)), neutral(make(1, saturate, rng))
    {
        for (std::size_t c = 0; c < images; ++c)
            inputs.push_back(make(in_rows, saturate, rng));
    }

    static sc::StreamMatrix
    make(std::size_t rows, bool saturate, sc::Xoshiro256StarStar &rng)
    {
        sc::StreamMatrix m(rows, 64 * kTileWords);
        for (std::size_t r = 0; r < rows; ++r) {
            if (saturate)
                std::fill_n(m.row(r), kTileWords, ~0ULL);
            else
                rng.nextWords(m.row(r), kTileWords);
        }
        return m;
    }
};

/**
 * Tile rows [row0, row0 + rows) of @p plan for the first @p images
 * images over @p span words starting at word 3, on every tier, against
 * one ripple per product (addXnorRowRipple) into zeroed planes.  The
 * planes are laid out with gaps (plane stride span + 2, row stride one
 * word more than the planes), and every word outside the span, pre-set
 * to a sentinel, must survive.
 */
void
expectTileMatchesRipple(const core::stages::OperandPlan &plan, bool pad,
                        int planes, std::size_t span, std::size_t row0,
                        std::size_t rows, std::size_t images,
                        const TileOperands &ops)
{
    SCOPED_TRACE("planes=" + std::to_string(planes) + " span=" +
                 std::to_string(span) + " rows=[" + std::to_string(row0) +
                 ", " + std::to_string(row0 + rows) + ") images=" +
                 std::to_string(images) + (pad ? " padded" : ""));
    constexpr std::size_t kW0 = 3;
    constexpr std::uint64_t kSentinel = 0x5A5A5A5A5A5A5A5AULL;
    const std::size_t plane_stride = span + 2;
    const std::size_t row_stride =
        static_cast<std::size_t>(planes) * plane_stride + 1;
    const std::vector<std::uint64_t> ones(span, ~0ULL);
    const std::size_t x_stride = TileOperands::kTileWords;

    std::vector<std::vector<std::uint64_t>> ref(
        images, std::vector<std::uint64_t>(rows * row_stride, kSentinel));
    for (std::size_t c = 0; c < images; ++c) {
        for (std::size_t t = 0; t < rows; ++t) {
            const std::size_t r = row0 + t;
            const sc::simd::PlaneSpan dst{&ref[c][t * row_stride],
                                          plane_stride, planes};
            for (int k = 0; k < planes; ++k)
                std::fill_n(dst.planes + static_cast<std::size_t>(k) *
                                             plane_stride,
                            span, 0);
            std::vector<const std::uint64_t *> xs{ones.data()};
            std::vector<const std::uint64_t *> ws{
                ops.bias.row(plan.biasRow(r)) + kW0};
            if (plan.effM(r, pad) != plan.m(r)) {
                xs.push_back(ones.data());
                ws.push_back(ops.neutral.row(0) + kW0);
            }
            for (std::size_t i = plan.begin(r); i < plan.end(r); ++i) {
                xs.push_back(ops.inputs[c].row(plan.xrow[i]) + kW0);
                ws.push_back(ops.weights.row(plan.weightRow(r, i)) + kW0);
            }
            sc::simd::detail::addXnorRowRipple(dst, xs.data(), ws.data(),
                                               xs.size(), span);
        }
    }

    const std::uint64_t *inputs[9];
    for (std::size_t c = 0; c < images; ++c)
        inputs[c] = ops.inputs[c].row(0) + kW0;
    for (const Level level : runnableLevels()) {
        SCOPED_TRACE(sc::simd::levelName(level));
        std::vector<std::vector<std::uint64_t>> got(
            images, std::vector<std::uint64_t>(rows * row_stride, kSentinel));
        std::uint64_t *dst[9];
        for (std::size_t c = 0; c < images; ++c)
            dst[c] = got[c].data();
        tableOf(level).addXnorTile({plan.view(),
                                    row0,
                                    rows,
                                    pad,
                                    ops.weights.row(0) + kW0,
                                    ops.bias.row(0) + kW0,
                                    ops.neutral.row(0) + kW0,
                                    ops.weights.wordsPerRow(),
                                    inputs,
                                    x_stride,
                                    dst,
                                    row_stride,
                                    plane_stride,
                                    images,
                                    span,
                                    planes});
        for (std::size_t c = 0; c < images; ++c)
            ASSERT_EQ(got[c], ref[c]) << "image " << c;
    }
}

/**
 * A plan of @p groups groups whose lists gather counts[l] products
 * each, over random input rows in [0, in_rows - 16) and random weight
 * rows in [0, group_stride) of the list's group.  A list of as many
 * products as the one before it is, three times in four, that list one
 * input row on, so the plan has runs of conv-like pixels; one time in
 * two of those it keeps the shift but draws its own weight rows, which
 * breaks the run.
 */
core::stages::OperandPlan
randomPlan(std::size_t groups, const std::vector<std::size_t> &counts,
           std::size_t in_rows, std::size_t group_stride,
           sc::Xoshiro256StarStar &rng)
{
    core::stages::OperandPlan plan;
    plan.groups = groups;
    plan.lists = counts.size();
    plan.groupStride = group_stride;
    plan.first.push_back(0);
    for (std::size_t l = 0; l < counts.size(); ++l) {
        const std::size_t n = counts[l];
        const bool shift = l > 0 && counts[l - 1] == n && rng.nextBits(2) != 0;
        const bool same_weights = shift && rng.nextBits(1) != 0;
        const std::size_t prev = plan.xrow.size() - (shift ? n : 0);
        for (std::size_t i = 0; i < n; ++i) {
            plan.xrow.push_back(
                shift ? plan.xrow[prev + i] + 1
                      : static_cast<std::uint32_t>(rng.nextWord() %
                                                   (in_rows - 16)));
            plan.wrow.push_back(
                same_weights ? plan.wrow[prev + i]
                             : static_cast<std::uint32_t>(rng.nextWord() %
                                                          group_stride));
        }
        plan.first.push_back(static_cast<std::uint32_t>(plan.xrow.size()));
    }
    plan.findRuns();
    return plan;
}

/**
 * @p lists lists of @p n random products, each list the one before it
 * one input row on with the same weight rows: one run of conv pixels
 * (lists <= 16, so the shifted input rows stay in [0, in_rows)).
 */
core::stages::OperandPlan
runPlan(std::size_t lists, std::size_t n, std::size_t in_rows,
        std::size_t group_stride, sc::Xoshiro256StarStar &rng)
{
    core::stages::OperandPlan plan =
        randomPlan(1, {n}, in_rows, group_stride, rng);
    plan.lists = lists;
    for (std::size_t l = 1; l < lists; ++l) {
        for (std::size_t i = 0; i < n; ++i) {
            plan.xrow.push_back(plan.xrow[i] + static_cast<std::uint32_t>(l));
            plan.wrow.push_back(plan.wrow[i]);
        }
        plan.first.push_back(static_cast<std::uint32_t>(plan.xrow.size()));
    }
    plan.findRuns();
    return plan;
}

/**
 * The tile kernel of every tier this host can run (not only the
 * detected one) against the one-ripple-per-product reference:
 *
 *  - every plane count the kernel takes (1-12), with lists of 0, 1, 2,
 *    3, 7, 15, 16, 17, 31, 33 and the
 *    most products the planes hold (bias and pad included) up to 70,
 *    also with all-ones operands so every column reaches that count,
 *    padded and not, over spans of 1, 2, 3, 4, 5, 8, 9 and 16 words at
 *    a nonzero word offset; each as a plan whose lists form runs (row
 *    lanes of conv pixels on narrow spans) and as a dense plan of 70
 *    groups of one list (row lanes of neurons, a partial last lane
 *    group);
 *  - tiles of 1, 63, 64, 65 and 512 rows for cohorts of 1-9 images;
 *  - a conv plan, whose border windows mix product counts and break
 *    the runs of a tile.
 *
 * The 70-product cap keeps these many-row plans cheap for the ripple
 * reference; TileKernelCarriesIntoEveryPlaneOnEveryTier fills every
 * plane count to its capacity.
 */
TEST(SimdKernels, TileKernelMatchesRippleReferenceOnEveryTier)
{
    sc::Xoshiro256StarStar rng(20261017);
    const std::size_t spans[] = {1, 2, 3, 4, 5, 8, 9, 16};
    constexpr std::size_t kInRows = 97;
    constexpr std::size_t kGroupStride = 61;

    for (int planes = 1; planes <= sc::simd::kMaxFeedbackPlanes; ++planes) {
        // Bias + pad + products fit the planes; lists stay small enough
        // for the ripple reference.
        const std::size_t max_n =
            planes == 1 ? 0
                        : std::min<std::size_t>((std::size_t{1} << planes) - 3,
                                                70);
        std::vector<std::size_t> counts;
        for (const std::size_t n : {0, 1, 2, 3, 7, 15, 16, 17, 31, 33})
            if (n <= max_n)
                counts.insert(counts.end(), 3, n);
        counts.insert(counts.end(), 3, max_n);
        for (const bool saturate : {false, true}) {
            const core::stages::OperandPlan plan =
                saturate ? randomPlan(3, counts, kInRows, kGroupStride, rng)
                         : randomPlan(7, counts, kInRows, kGroupStride, rng);
            const core::stages::OperandPlan dense =
                randomPlan(70, {max_n}, kInRows, kGroupStride, rng);
            const TileOperands ops(3, kInRows, 70 * kGroupStride, 70,
                                   saturate, rng);
            for (const std::size_t span : spans) {
                for (const bool pad : {false, true}) {
                    expectTileMatchesRipple(plan, pad, planes, span, 2,
                                            plan.rows() - 2, 3, ops);
                    expectTileMatchesRipple(dense, pad, planes, span, 1, 69,
                                            3, ops);
                }
                if (HasFatalFailure())
                    return;
            }
        }
    }

    // Tile sizes and cohorts at 5 planes.
    {
        const core::stages::OperandPlan plan = randomPlan(
            23, {3, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 0, 17, 12, 29, 29,
                 29, 1, 6, 20, 9},
            kInRows, kGroupStride, rng);
        const TileOperands ops(9, kInRows, 23 * kGroupStride, 23, false,
                               rng);
        for (const std::size_t rows : {1, 63, 64, 65, 512}) {
            for (std::size_t images = 1; images <= 9; ++images) {
                for (const std::size_t span : {1, 9})
                    expectTileMatchesRipple(plan, true, 5, span,
                                            plan.rows() - rows, rows,
                                            images, ops);
                if (HasFatalFailure())
                    return;
            }
        }
    }

    // Conv border windows: 3x3 over 2 x 12 x 12 gathers 8 to 18
    // products per row, the whole 576-row plan in two tiles.
    core::stages::ConvGeometry g;
    g.inC = 2;
    g.inH = g.inW = g.outH = g.outW = 12;
    g.outC = 4;
    g.kernel = 3;
    const core::stages::OperandPlan conv =
        core::stages::compileOperandPlan(core::stages::ConvWindowGather{g});
    const TileOperands ops(9, 2 * 144, 4 * 18, 4, false, rng);
    for (const std::size_t images : {1, 4, 9})
        for (const std::size_t span : spans)
            for (const bool pad : {false, true}) {
                expectTileMatchesRipple(conv, pad, 5, span, 0, 512, images,
                                        ops);
                expectTileMatchesRipple(conv, pad, 5, span, 512, 64, images,
                                        ops);
            }
}

/**
 * Every plane count the kernel takes (P = 1-12) at its capacity: rows
 * of 2^P - 1 counted products, the bias and (in the padded cases) the
 * neutral pad included, so with all-ones operands every column carries
 * into every plane; with random ones the high planes take the binomial
 * counts.  Each P runs a one-row plan over spans of 1, 3, 4, 9 and 16
 * words (word lanes, and general-purpose registers for a lone row), and
 * row-lane plans over spans of 1-3 words: 11 dense groups (a full lane
 * group and a partial one) and a run of 10 conv pixels.  Two images per
 * tile.
 */
TEST(SimdKernels, TileKernelCarriesIntoEveryPlaneOnEveryTier)
{
    sc::Xoshiro256StarStar rng(20261018);
    constexpr std::size_t kInRows = 97;
    constexpr std::size_t kGroupStride = 61;
    constexpr std::size_t kDenseGroups = 11;

    for (int planes = 1; planes <= sc::simd::kMaxFeedbackPlanes; ++planes) {
        const std::size_t capacity = (std::size_t{1} << planes) - 1;
        for (const bool saturate : {false, true}) {
            const TileOperands ops(2, kInRows, kDenseGroups * kGroupStride,
                                   kDenseGroups, saturate, rng);
            for (const bool pad : {false, true}) {
                // Unpadded: n = 2^P - 2, so m = n + 1 = 2^P - 1 is odd.
                // Padded: n = 2^P - 3 is odd, m is even and the pad adds
                // the last product.  A one-plane row holds the bias
                // alone.
                const std::size_t n =
                    planes == 1 ? 0 : capacity - (pad ? 2 : 1);
                const core::stages::OperandPlan one =
                    randomPlan(1, {n}, kInRows, kGroupStride, rng);
                ASSERT_EQ(one.effM(0, pad), static_cast<int>(capacity));
                for (const std::size_t span : {1, 3, 4, 9, 16})
                    expectTileMatchesRipple(one, pad, planes, span, 0, 1, 2,
                                            ops);
                const core::stages::OperandPlan dense = randomPlan(
                    kDenseGroups, {n}, kInRows, kGroupStride, rng);
                const core::stages::OperandPlan run =
                    runPlan(10, n, kInRows, kGroupStride, rng);
                for (const std::size_t span : {1, 2, 3}) {
                    expectTileMatchesRipple(dense, pad, planes, span, 0,
                                            dense.rows(), 2, ops);
                    expectTileMatchesRipple(run, pad, planes, span, 0,
                                            run.rows(), 2, ops);
                }
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

/** Algorithm 1's feedback unit as the feedback-kernel cases drive it. */
struct SorterRecurrence
{
    static constexpr auto kKind =
        sc::simd::FeedbackRecurrence::SorterMajority;
    static constexpr int kExtraStatePlanes = 0;
    static bool validM(int m) { return m % 2 == 1; }
    static int maxState(int m) { return m; }
    static bool
    step(int &state, int count, int m)
    {
        blocks::FeatureFeedbackUnit unit(m);
        unit.restore(m, state);
        const bool out = unit.step(count);
        state = unit.carry();
        return out;
    }
};

/** SC-DCNN's Btanh counter (s_max = 2m) as the feedback-kernel cases
 *  drive it. */
struct BtanhRecurrence
{
    static constexpr auto kKind = sc::simd::FeedbackRecurrence::Btanh;
    static constexpr int kExtraStatePlanes = 1;
    static bool validM(int m) { return m >= 1; }
    static int maxState(int m) { return 2 * m - 1; }
    static bool
    step(int &state, int count, int m)
    {
        return baseline::ApcFeatureExtraction::btanhStep(state, count, m,
                                                         2 * m);
    }
};

/**
 * One feedback-kernel differential case: @p rows rows with @p planes
 * count planes and m = m_of_row(r), driven through spans of @p spans
 * cycles (each resuming the states the previous one left), on every
 * runnable tier, against Recurrence::step per row stepped through all
 * the cycles in one pass.  The counts pin the states at both of their
 * rails, which the reference must reach.
 */
template <typename Recurrence, typename MOfRow>
void
expectFeedbackKernelMatchesSteps(std::size_t rows, int planes,
                                 MOfRow &&m_of_row,
                                 const std::vector<std::size_t> &spans,
                                 sc::Xoshiro256StarStar &rng)
{
    std::size_t total = 0;
    for (const std::size_t s : spans)
        total += s;
    const std::size_t words = (total + 63) / 64;
    const auto p = static_cast<std::size_t>(planes);
    const std::size_t state_planes = p + Recurrence::kExtraStatePlanes;

    // Per-row m, start state and counts.  Each 64-cycle block draws its
    // counts uniformly, pinned at 0 or m (driving the state into its
    // rails), or around the operating point.
    std::vector<int> ms(rows), start(rows);
    std::vector<std::vector<int>> counts(rows, std::vector<int>(total));
    for (std::size_t r = 0; r < rows; ++r) {
        const int m = m_of_row(r);
        ASSERT_TRUE(Recurrence::validM(m) && m < (1 << planes));
        ms[r] = m;
        start[r] = static_cast<int>(
            rng.nextWord() % (Recurrence::maxState(m) + 1U));
        for (std::size_t t = 0; t < total; ++t) {
            const std::uint64_t x = rng.nextWord();
            switch ((t / 64 + r) % 4) {
            case 0:
                counts[r][t] = static_cast<int>(x % (m + 1U));
                break;
            case 1:
                counts[r][t] = x % 8 == 0 ? 0 : m;
                break;
            case 2:
                counts[r][t] = x % 8 == 0 ? m : 0;
                break;
            default:
                counts[r][t] =
                    std::clamp(m / 2 + static_cast<int>(x % 3) - 1, 0, m);
            }
        }
    }

    // Reference: one recurrence per row, all cycles in one pass; the
    // state after each span.
    std::vector<std::uint64_t> ref_out(rows * words, 0);
    std::vector<std::vector<int>> ref_state(spans.size(),
                                            std::vector<int>(rows));
    bool low_rail = false, high_rail = false;
    for (std::size_t r = 0; r < rows; ++r) {
        int state = start[r];
        std::size_t t = 0;
        for (std::size_t si = 0; si < spans.size(); ++si) {
            for (const std::size_t e = t + spans[si]; t < e; ++t) {
                if (Recurrence::step(state, counts[r][t], ms[r]))
                    ref_out[r * words + t / 64] |= 1ULL << (t % 64);
                low_rail = low_rail || state == 0;
                high_rail = high_rail || state == Recurrence::maxState(ms[r]);
            }
            ref_state[si][r] = state;
        }
    }
    EXPECT_TRUE(low_rail && high_rail);

    // Bit-sliced per-row m (rows past the tile hold garbage) and the
    // starting states.
    constexpr std::size_t kSliceWords = sc::simd::kFeedbackTileRows / 64;
    const std::size_t slice_stride = kSliceWords + 1;
    std::vector<std::uint64_t> m_bits(p * slice_stride);
    rng.nextWords(m_bits.data(), m_bits.size());
    std::vector<std::uint64_t> state0(state_planes * slice_stride, 0);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t k = 0; k < p; ++k) {
            std::uint64_t &mw = m_bits[k * slice_stride + r / 64];
            mw = (mw & ~(1ULL << (r % 64))) |
                 (static_cast<std::uint64_t>((ms[r] >> k) & 1) << (r % 64));
        }
        for (std::size_t k = 0; k < state_planes; ++k)
            state0[k * slice_stride + r / 64] |=
                static_cast<std::uint64_t>((start[r] >> k) & 1) << (r % 64);
    }

    constexpr std::uint64_t kSentinel = 0xA5A5A5A5A5A5A5A5ULL;
    for (const Level level : runnableLevels()) {
        SCOPED_TRACE(sc::simd::levelName(level));
        std::vector<std::uint64_t> state = state0;
        const std::size_t out_stride = words + 2;
        std::vector<std::uint64_t> out(rows * out_stride, kSentinel);
        std::size_t begin = 0;
        for (std::size_t si = 0; si < spans.size(); ++si) {
            SCOPED_TRACE("span " + std::to_string(si));
            // The span's count planes at word offset 0, with padding
            // words between planes and rows.
            const std::size_t sw = (spans[si] + 63) / 64;
            const std::size_t plane_stride = sw + 1;
            const std::size_t row_stride = p * plane_stride + 3;
            std::vector<std::uint64_t> tile_planes(rows * row_stride,
                                                   kSentinel);
            for (std::size_t r = 0; r < rows; ++r) {
                for (std::size_t k = 0; k < p; ++k) {
                    std::uint64_t *plane =
                        &tile_planes[r * row_stride + k * plane_stride];
                    std::fill_n(plane, sw, 0);
                    for (std::size_t i = 0; i < spans[si]; ++i)
                        plane[i / 64] |= static_cast<std::uint64_t>(
                                             (counts[r][begin + i] >> k) & 1)
                                         << (i % 64);
                }
            }
            const sc::simd::FeedbackTile tile{
                tile_planes.data(),
                row_stride,
                plane_stride,
                planes,
                rows,
                m_bits.data(),
                state.data(),
                slice_stride,
                out.data() + begin / 64,
                out_stride,
                spans[si],
                Recurrence::kKind};
            tableOf(level).featureFeedback(tile);
            for (std::size_t r = 0; r < rows; ++r) {
                int got = 0;
                for (std::size_t k = 0; k < state_planes; ++k)
                    got |= static_cast<int>(
                               (state[k * slice_stride + r / 64] >> (r % 64)) &
                               1)
                           << k;
                ASSERT_EQ(got, ref_state[si][r]) << "row " << r;
            }
            begin += spans[si];
        }
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t w = 0; w < words; ++w)
                ASSERT_EQ(out[r * out_stride + w], ref_out[r * words + w])
                    << "row " << r << " word " << w;
            for (std::size_t w = words; w < out_stride; ++w)
                ASSERT_EQ(out[r * out_stride + w], kSentinel);
        }
    }
}

TEST(SimdKernels, FeedbackKernelMatchesFeatureFeedbackUnitOnEveryTier)
{
    sc::Xoshiro256StarStar rng(20261017);
    // 1, 2 and 16-word spans resumed from the carries the previous span
    // left, then a 100-cycle last span whose tail bits must stay zero.
    const std::vector<std::size_t> spans = {64, 128, 1024, 100};

    // Every odd M up to 63 and the wide ones, each at its narrowest
    // plane count (S = carry + count then fills planes + 1 bits).
    std::vector<int> ms;
    for (int m = 1; m <= 63; m += 2)
        ms.push_back(m);
    for (const int m : {65, 127, 129, 393, 1569})
        ms.push_back(m);
    for (const int m : ms) {
        SCOPED_TRACE("M=" + std::to_string(m));
        expectFeedbackKernelMatchesSteps<SorterRecurrence>(
            65, std::bit_width(static_cast<unsigned>(m)),
            [m](std::size_t) { return m; }, {64, 128, 100}, rng);
    }

    // Mixed M within one tile: conv border windows (5/7/11 at 4 planes)
    // and every odd M up to 63 at 6 planes; tiles of 1, 63, 64, 65 and
    // 512 rows (every tier's narrow, remainder and full groups).
    for (const std::size_t rows : {std::size_t{1}, std::size_t{63},
                                   std::size_t{64}, std::size_t{65},
                                   std::size_t{200}, std::size_t{300},
                                   sc::simd::kFeedbackTileRows}) {
        SCOPED_TRACE("rows=" + std::to_string(rows));
        expectFeedbackKernelMatchesSteps<SorterRecurrence>(
            rows, 4,
            [&](std::size_t) {
                const int border[] = {5, 7, 11};
                return border[rng.nextWord() % 3];
            },
            spans, rng);
        expectFeedbackKernelMatchesSteps<SorterRecurrence>(
            rows, 6,
            [&](std::size_t) {
                return static_cast<int>(2 * (rng.nextWord() % 32) + 1);
            },
            spans, rng);
    }
}

TEST(SimdKernels, FeedbackKernelMatchesBtanhStepOnEveryTier)
{
    sc::Xoshiro256StarStar rng(20261018);
    const std::vector<std::size_t> spans = {64, 128, 1024, 100};

    // Every m up to 64 (either parity) and snn's wide fan-ins, each at
    // its narrowest plane count (T = s + 2c then fills planes + 2 bits).
    std::vector<int> ms;
    for (int m = 1; m <= 64; ++m)
        ms.push_back(m);
    for (const int m : {129, 193, 289, 501, 1569})
        ms.push_back(m);
    for (const int m : ms) {
        SCOPED_TRACE("m=" + std::to_string(m));
        expectFeedbackKernelMatchesSteps<BtanhRecurrence>(
            65, std::bit_width(static_cast<unsigned>(m)),
            [m](std::size_t) { return m; }, {64, 128, 100}, rng);
    }

    // Mixed m within one tile: snn Conv1's border windows (5/7/10 at 4
    // planes) and every m up to 63 at 6 planes.
    for (const std::size_t rows : {std::size_t{1}, std::size_t{63},
                                   std::size_t{64}, std::size_t{65},
                                   std::size_t{200}, std::size_t{300},
                                   sc::simd::kFeedbackTileRows}) {
        SCOPED_TRACE("rows=" + std::to_string(rows));
        expectFeedbackKernelMatchesSteps<BtanhRecurrence>(
            rows, 4,
            [&](std::size_t) {
                const int border[] = {5, 7, 10};
                return border[rng.nextWord() % 3];
            },
            spans, rng);
        expectFeedbackKernelMatchesSteps<BtanhRecurrence>(
            rows, 6,
            [&](std::size_t) {
                return static_cast<int>(rng.nextWord() % 63 + 1);
            },
            spans, rng);
    }
}

/** Random bipolar streams of @p len cycles, one per row. */
sc::StreamMatrix
randomStreams(std::size_t rows, std::size_t len, sc::Xoshiro256StarStar &rng)
{
    sc::StreamMatrix m(rows, len);
    for (std::size_t r = 0; r < rows; ++r)
        m.fillBipolar(r, static_cast<double>(rng.nextBits(10)) / 512.0 - 1.0,
                      10, rng);
    return m;
}

/** The bit of cycle @p t of a packed stream row. */
bool
streamBit(const std::uint64_t *row, std::size_t t)
{
    return (row[t / 64] >> (t % 64) & 1) != 0;
}

/**
 * One output row of a CMOS SC-DCNN linear stage, one cycle at a time:
 * the column count of the XNOR products and the bias (m = products + 1)
 * drives btanhStep from s_max / 2 = m.
 */
void
cmosReferenceRow(
    const std::vector<std::pair<const std::uint64_t *, const std::uint64_t *>>
        &products,
    const std::uint64_t *bias, std::size_t len, std::uint64_t *out)
{
    const int m = static_cast<int>(products.size()) + 1;
    int state = m;
    for (std::size_t t = 0; t < len; ++t) {
        int c = streamBit(bias, t) ? 1 : 0;
        for (const auto &[x, w] : products)
            c += streamBit(x, t) == streamBit(w, t) ? 1 : 0;
        if (baseline::ApcFeatureExtraction::btanhStep(state, c, m, 2 * m))
            out[t / 64] |= 1ULL << (t % 64);
    }
}

/** Run @p stage on every tier through three resumed spans of a
 *  300-cycle stream and compare every output row with @p expect. */
void
expectStageMatches(const core::ScStage &stage, const sc::StreamMatrix &x,
                   const sc::StreamMatrix &expect)
{
    const std::size_t spans[][2] = {{0, 64}, {64, 192}, {192, 300}};
    for (const Level level : runnableLevels()) {
        SCOPED_TRACE(sc::simd::levelName(level));
        const LevelGuard guard(level);
        sc::StreamMatrix got;
        core::StageContext ctx;
        const std::unique_ptr<core::StageScratch> scratch =
            stage.makeScratch();
        const core::CohortSlot slot{&x, &got, &ctx, scratch.get()};
        for (const auto &[begin, end] : spans)
            stage.runCohortSpan(&slot, 1, begin, end);
        ASSERT_EQ(got.rows(), expect.rows());
        for (std::size_t r = 0; r < expect.rows(); ++r)
            ASSERT_TRUE(std::equal(expect.row(r),
                                   expect.row(r) + expect.wordsPerRow(),
                                   got.row(r)))
                << "row " << r;
    }
}

/** Parameter streams of a weighted stage (@p weights x @p biases rows)
 *  and the operand plan of @p gather. */
template <typename Gather>
std::shared_ptr<core::stages::StageShared>
randomShared(const Gather &gather, std::size_t weights, std::size_t biases,
             std::size_t len, sc::Xoshiro256StarStar &rng)
{
    auto shared = std::make_shared<core::stages::StageShared>();
    shared->plan = core::stages::compileOperandPlan(gather);
    shared->streams.weights = randomStreams(weights, len, rng);
    shared->streams.biases = randomStreams(biases, len, rng);
    shared->streams.neutral = sc::StreamMatrix(1, len);
    shared->streams.neutral.fillNeutral(0);
    return shared;
}

/**
 * The CMOS SC-DCNN linear stages, on every tier, against
 * cmosReferenceRow per output row: dense fan-ins 9 (513 rows: a full
 * 512-row tile plus a one-row tile) and 392 (70 rows), and a 3x3 conv
 * over 2 x 12 x 12 inputs (4 x 144 rows mixing m = 9/13/19 in a tile),
 * each in three resumed spans, the last one partial.  Fan-in 4100 needs
 * 13 count planes, more than the kernels' 12, and the stage refuses it.
 */
TEST(SimdKernels, CmosLinearStagesMatchPerRowBtanh)
{
    const std::size_t len = 300;
    sc::Xoshiro256StarStar rng(72);
    for (const auto &[in, out] : {std::pair{9, 513}, std::pair{392, 70}}) {
        SCOPED_TRACE("dense fan-in " + std::to_string(in));
        const auto in_rows = static_cast<std::size_t>(in);
        const auto out_rows = static_cast<std::size_t>(out);
        const auto shared =
            randomShared(core::stages::DenseGather{{in, out}},
                         out_rows * in_rows, out_rows, len, rng);
        const core::stages::FeatureStreams &fs = shared->streams;
        const sc::StreamMatrix x = randomStreams(in_rows, len, rng);
        sc::StreamMatrix expect(out_rows, len);
        for (std::size_t r = 0; r < out_rows; ++r) {
            std::vector<std::pair<const std::uint64_t *, const std::uint64_t *>>
                products;
            for (std::size_t j = 0; j < in_rows; ++j)
                products.emplace_back(x.row(j),
                                      fs.weights.row(r * in_rows + j));
            cmosReferenceRow(products, fs.biases.row(r), len, expect.row(r));
        }
        expectStageMatches(core::stages::CmosDenseStage({in, out}, shared), x,
                           expect);
    }
    const auto wide = randomShared(core::stages::DenseGather{{4100, 3}},
                                   3 * 4100, 3, len, rng);
    EXPECT_THROW((void)core::stages::CmosDenseStage({4100, 3}, wide),
                 std::invalid_argument);

    {
        SCOPED_TRACE("conv");
        core::stages::ConvGeometry g;
        g.inC = 2;
        g.inH = g.inW = g.outH = g.outW = 12;
        g.outC = 4;
        g.kernel = 3;
        const std::size_t plane = 12 * 12;
        const auto shared =
            randomShared(core::stages::ConvWindowGather{g},
                         static_cast<std::size_t>(g.outC * g.inC * 9), 4,
                         len, rng);
        const core::stages::FeatureStreams &fs = shared->streams;
        const sc::StreamMatrix x = randomStreams(2 * plane, len, rng);
        sc::StreamMatrix expect(4 * plane, len);
        for (std::size_t r = 0; r < 4 * plane; ++r) {
            const int oc = static_cast<int>(r / plane);
            const int y = static_cast<int>(r % plane) / 12;
            const int xx = static_cast<int>(r % plane) % 12;
            std::vector<std::pair<const std::uint64_t *, const std::uint64_t *>>
                products;
            for (int ic = 0; ic < 2; ++ic)
                for (int ky = 0; ky < 3; ++ky)
                    for (int kx = 0; kx < 3; ++kx) {
                        const int sy = y + ky - 1;
                        const int sx = xx + kx - 1;
                        if (sy < 0 || sy >= 12 || sx < 0 || sx >= 12)
                            continue;
                        products.emplace_back(
                            x.row(static_cast<std::size_t>(
                                (ic * 12 + sy) * 12 + sx)),
                            fs.weights.row(static_cast<std::size_t>(
                                ((oc * 2 + ic) * 3 + ky) * 3 + kx)));
                    }
            cmosReferenceRow(products,
                             fs.biases.row(static_cast<std::size_t>(oc)), len,
                             expect.row(r));
        }
        expectStageMatches(core::stages::CmosConvStage(g, shared), x, expect);
    }
}

/**
 * The CMOS MUX pool, on every tier, against a per-cycle reference that
 * draws nextBits(2) for each cycle's select, pixel-major from one
 * per-image generator, in one span and in 64-cycle spans.  The inputs
 * carry 64 more cycles than the stage reads, so bits past the stream's
 * end must be masked.
 */
TEST(SimdKernels, CmosPoolWordMuxMatchesPerCycleSelects)
{
    core::stages::PoolGeometry g;
    g.channels = 3;
    g.inH = 6;
    g.inW = 8;
    g.outH = 3;
    g.outW = 4;
    const std::uint64_t image_seed = 0xC0FFEE;
    sc::Xoshiro256StarStar rng(73);
    for (const std::size_t len : {std::size_t{100}, std::size_t{192},
                                  std::size_t{256}}) {
        const sc::StreamMatrix x = randomStreams(3 * 6 * 8, len + 64, rng);
        sc::StreamMatrix expect(3 * 3 * 4, len);
        sc::Xoshiro256StarStar sel_rng(image_seed ^ 0x9E3779B9ULL);
        for (std::size_t p = 0; p < expect.rows(); ++p) {
            const std::size_t c = p / 12, y = p % 12 / 4, xx = p % 4;
            const std::size_t top = (c * 6 + 2 * y) * 8 + 2 * xx;
            const std::size_t window[] = {top, top + 1, top + 8, top + 9};
            for (std::size_t t = 0; t < len; ++t)
                if (streamBit(x.row(window[sel_rng.nextBits(2)]), t))
                    expect.row(p)[t / 64] |= 1ULL << (t % 64);
        }

        std::vector<std::pair<std::size_t, std::size_t>> word_spans;
        for (std::size_t b = 0; b < len; b += 64)
            word_spans.emplace_back(b, std::min(len, b + 64));
        const core::stages::CmosPoolStage stage(g, len);
        for (const Level level : runnableLevels()) {
            for (const auto &spans :
                 {std::vector<std::pair<std::size_t, std::size_t>>{{0, len}},
                  word_spans}) {
                SCOPED_TRACE(std::string(sc::simd::levelName(level)) +
                             " N=" + std::to_string(len) + " spans=" +
                             std::to_string(spans.size()));
                const LevelGuard guard(level);
                sc::StreamMatrix got;
                core::StageContext ctx;
                ctx.imageSeed = image_seed;
                const std::unique_ptr<core::StageScratch> scratch =
                    stage.makeScratch();
                const core::CohortSlot slot{&x, &got, &ctx, scratch.get()};
                for (const auto &[begin, end] : spans)
                    stage.runCohortSpan(&slot, 1, begin, end);
                for (std::size_t r = 0; r < expect.rows(); ++r)
                    ASSERT_TRUE(std::equal(expect.row(r),
                                           expect.row(r) + expect.wordsPerRow(),
                                           got.row(r)))
                        << "pixel " << r;
            }
        }
    }
}

/**
 * The AQFP sorter dense stage, on every tier, against one
 * FeatureFeedbackUnit per output row stepped through the row's exact
 * column counts: fan-ins 9 (513 rows: a full 512-row tile plus a
 * one-row tile) and 392 (70 rows: one partial tile), in three spans,
 * each resuming the carries the previous one left, the last one
 * partial.  Fan-in 4100 needs 13 count planes, more than the kernels'
 * 12, and the stage refuses it.
 */
TEST(SimdKernels, SorterDenseStageMatchesPerRowUnits)
{
    const std::size_t len = 300;
    sc::Xoshiro256StarStar rng(71);
    for (const auto &[in, out] : {std::pair{9, 513}, std::pair{392, 70}}) {
        SCOPED_TRACE("fan-in " + std::to_string(in));
        const auto in_rows = static_cast<std::size_t>(in);
        const auto out_rows = static_cast<std::size_t>(out);
        const auto shared =
            randomShared(core::stages::DenseGather{{in, out}},
                         out_rows * in_rows, out_rows, len, rng);
        const core::stages::FeatureStreams &fs = shared->streams;
        const sc::StreamMatrix x = randomStreams(in_rows, len, rng);

        const int eff_m = (in + 1) | 1; // bias, then the odd pad
        sc::StreamMatrix expect(out_rows, len);
        for (std::size_t r = 0; r < out_rows; ++r) {
            sc::ColumnCounts counts(len, eff_m);
            for (std::size_t j = 0; j < in_rows; ++j)
                counts.addXnor(x.row(j), fs.weights.row(r * in_rows + j),
                               x.wordsPerRow());
            counts.addWords(fs.biases.row(r), x.wordsPerRow());
            if (eff_m != in + 1)
                counts.addWords(fs.neutral.row(0), x.wordsPerRow());
            blocks::FeatureFeedbackUnit unit(eff_m);
            counts.drive([&](int c) { return unit.step(c); }, expect.row(r));
        }
        expectStageMatches(core::stages::AqfpDenseStage({in, out}, shared),
                           x, expect);
    }
    const auto wide = randomShared(core::stages::DenseGather{{4100, 3}},
                                   3 * 4100, 3, len, rng);
    EXPECT_THROW((void)core::stages::AqfpDenseStage({4100, 3}, wide),
                 std::invalid_argument);
}

/**
 * Spans of @p len cycles resumed one after another: the first word
 * alone, then up to cycle 192, then the rest (each non-empty).
 */
std::vector<std::pair<std::size_t, std::size_t>>
resumedSpans(std::size_t len)
{
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    std::size_t begin = 0;
    for (const std::size_t cut : {std::size_t{64}, std::size_t{192}, len}) {
        const std::size_t end = std::min(cut, len);
        if (end > begin)
            spans.emplace_back(begin, end);
        begin = std::max(begin, end);
    }
    return spans;
}

/** One SNG word from @p n draws of @p rng: the per-row fillBipolar
 *  compare, all ones for the code 2^bits. */
std::uint64_t
serialSngWord(sc::Xoshiro256StarStar &rng, std::size_t n, std::uint32_t code,
              int bits)
{
    std::uint64_t draws[64];
    rng.nextWords(draws, n);
    if ((code >> bits) != 0)
        return ~0ULL >> (64 - n);
    return sc::simd::detail::thresholdPackBits(
        draws, 0, n, static_cast<std::uint64_t>(code) << (64 - bits));
}

/** Lane @p l of @p gen as a generator state. */
std::array<std::uint64_t, 4>
laneState(const sc::simd::XoshiroLanes &gen, std::size_t l)
{
    return {gen.s[0][l], gen.s[1][l], gen.s[2][l], gen.s[3][l]};
}

/**
 * The lane-parallel SNG fill, on every tier, against one
 * Xoshiro256StarStar per lane drawing through nextWords and the scalar
 * thresholdPackBits: the dispatched kernel for 1-8 lanes, one row per
 * call, and sc::fillBipolarLanes for 1-8, 9 and 12 images of six rows.
 * Lanes carry codes 0 and 2^bits (all ones, still one draw per cycle)
 * next to random ones; stream lengths 64, 100, 192 and 1024 run in
 * spans resumed from the states the previous span left, so partial
 * last words (tail bits zero) and every lane group width occur.  The
 * final states must equal the reference generators'.
 */
TEST(SimdKernels, LaneSngFillMatchesSerialGeneratorsOnEveryTier)
{
    sc::Xoshiro256StarStar pick(81);
    for (const Level level : runnableLevels()) {
        const sc::simd::KernelTable &table = tableOf(level);
        for (const int bits : {1, 10, 20}) {
            for (const std::size_t len :
                 {std::size_t{64}, std::size_t{100}, std::size_t{192},
                  std::size_t{1024}}) {
                const std::size_t words = (len + 63) / 64;
                for (std::size_t lanes = 1; lanes <= 8; ++lanes) {
                    SCOPED_TRACE(std::string(sc::simd::levelName(level)) +
                                 " kernel bits=" + std::to_string(bits) +
                                 " N=" + std::to_string(len) +
                                 " lanes=" + std::to_string(lanes));
                    sc::simd::XoshiroLanes gen;
                    gen.lanes = lanes;
                    std::vector<sc::Xoshiro256StarStar> ref;
                    std::uint64_t threshold[sc::simd::kXoshiroLanes] = {};
                    std::uint64_t ones[sc::simd::kXoshiroLanes] = {};
                    std::uint32_t codes[sc::simd::kXoshiroLanes] = {};
                    std::vector<std::vector<std::uint64_t>> out(
                        lanes, std::vector<std::uint64_t>(words + 1, 0));
                    std::uint64_t *dst[sc::simd::kXoshiroLanes];
                    for (std::size_t l = 0; l < lanes; ++l) {
                        ref.emplace_back(900 + l);
                        const std::array<std::uint64_t, 4> st =
                            ref[l].state();
                        for (std::size_t k = 0; k < 4; ++k)
                            gen.s[k][l] = st[k];
                        // Lane 0 code 0, lane 1 code 2^bits, then random.
                        codes[l] =
                            l == 0   ? 0
                            : l == 1 ? 1u << bits
                                     : static_cast<std::uint32_t>(
                                           pick.nextBits(bits));
                        const bool all_ones = (codes[l] >> bits) != 0;
                        threshold[l] = all_ones
                                           ? 0
                                           : static_cast<std::uint64_t>(
                                                 codes[l])
                                                 << (64 - bits);
                        ones[l] = all_ones ? ~0ULL : 0;
                        out[l][words] = 0x5EED;
                    }
                    for (const auto &[begin, end] : resumedSpans(len)) {
                        for (std::size_t l = 0; l < lanes; ++l)
                            dst[l] = out[l].data() + begin / 64;
                        table.laneSngFill(gen, threshold, ones, dst,
                                          end - begin);
                    }
                    for (std::size_t l = 0; l < lanes; ++l) {
                        for (const auto &[begin, end] : resumedSpans(len)) {
                            for (std::size_t c = begin; c < end; c += 64) {
                                const std::size_t n =
                                    std::min<std::size_t>(64, end - c);
                                ASSERT_EQ(out[l][c / 64],
                                          serialSngWord(ref[l], n, codes[l],
                                                        bits))
                                    << "lane " << l << " word " << c / 64;
                            }
                        }
                        EXPECT_EQ(out[l][words], 0x5EEDu) << "lane " << l;
                        EXPECT_EQ(laneState(gen, l), ref[l].state())
                            << "lane " << l;
                    }
                }

                // The cohort encoder, 9 and 12 lanes included.
                for (const std::size_t lanes :
                     {std::size_t{1}, std::size_t{2}, std::size_t{3},
                      std::size_t{4}, std::size_t{5}, std::size_t{6},
                      std::size_t{7}, std::size_t{8}, std::size_t{9},
                      std::size_t{12}}) {
                    SCOPED_TRACE(std::string(sc::simd::levelName(level)) +
                                 " fillBipolarLanes bits=" +
                                 std::to_string(bits) + " N=" +
                                 std::to_string(len) +
                                 " lanes=" + std::to_string(lanes));
                    const LevelGuard guard(level);
                    constexpr std::size_t kRows = 6;
                    std::vector<std::vector<float>> values(
                        lanes, std::vector<float>(kRows));
                    std::vector<sc::StreamMatrix> images(
                        lanes, sc::StreamMatrix(kRows, len));
                    std::vector<sc::Xoshiro256StarStar> rngs, ref;
                    std::vector<sc::StreamMatrix *> outs;
                    std::vector<const float *> vals;
                    std::vector<sc::Xoshiro256StarStar *> rng_of;
                    for (std::size_t l = 0; l < lanes; ++l) {
                        // Row 0 code 0, row 1 code 2^bits, then random.
                        values[l] = {-1.0f, 1.0f};
                        while (values[l].size() < kRows)
                            values[l].push_back(
                                static_cast<float>(pick.nextDouble()) * 2.0f -
                                1.0f);
                        rngs.emplace_back(700 + l);
                        ref.emplace_back(700 + l);
                    }
                    for (std::size_t l = 0; l < lanes; ++l) {
                        outs.push_back(&images[l]);
                        vals.push_back(values[l].data());
                        rng_of.push_back(&rngs[l]);
                    }
                    for (const auto &[begin, end] : resumedSpans(len))
                        sc::fillBipolarLanes(outs.data(), vals.data(),
                                             rng_of.data(), lanes, bits,
                                             begin, end);
                    for (std::size_t l = 0; l < lanes; ++l) {
                        for (const auto &[begin, end] : resumedSpans(len)) {
                            for (std::size_t i = 0; i < kRows; ++i) {
                                const std::uint32_t code =
                                    sc::quantizeBipolar(values[l][i], bits);
                                for (std::size_t c = begin; c < end;
                                     c += 64) {
                                    const std::size_t n =
                                        std::min<std::size_t>(64, end - c);
                                    ASSERT_EQ(images[l].row(i)[c / 64],
                                              serialSngWord(ref[l], n, code,
                                                            bits))
                                        << "lane " << l << " row " << i
                                        << " word " << c / 64;
                                }
                            }
                        }
                        EXPECT_EQ(rngs[l].state(), ref[l].state())
                            << "lane " << l;
                    }
                }
            }
        }
    }
}

/**
 * The lane SNG compare is strict: a draw equal to its lane's threshold
 * packs a 0, as in thresholdPackBits.  Random draws almost never hit a
 * threshold, so each lane's state is set to draw exactly its threshold
 * first (the output function rotl(s1 * 5, 7) * 9 is invertible: 5 and
 * 9 are odd), on every tier and register group width.
 */
TEST(SimdKernels, LaneSngFillDrawEqualToThresholdPacksZero)
{
    const auto rotateRight = [](std::uint64_t x, int k) {
        return (x >> k) | (x << (64 - k));
    };
    constexpr std::uint64_t kInverse5 = 0xCCCCCCCCCCCCCCCDULL;
    constexpr std::uint64_t kInverse9 = 0x8E38E38E38E38E39ULL;
    for (const Level level : runnableLevels()) {
        for (const std::size_t lanes :
             {std::size_t{1}, std::size_t{2}, std::size_t{4},
              std::size_t{5}, std::size_t{8}}) {
            SCOPED_TRACE(std::string(sc::simd::levelName(level)) +
                         " lanes=" + std::to_string(lanes));
            sc::simd::XoshiroLanes gen;
            gen.lanes = lanes;
            std::uint64_t threshold[sc::simd::kXoshiroLanes] = {};
            std::uint64_t ones[sc::simd::kXoshiroLanes] = {};
            std::uint64_t out[sc::simd::kXoshiroLanes] = {};
            std::uint64_t *dst[sc::simd::kXoshiroLanes];
            for (std::size_t l = 0; l < lanes; ++l) {
                threshold[l] = static_cast<std::uint64_t>(777 + l) << 54;
                gen.s[0][l] = 1;
                gen.s[1][l] =
                    rotateRight(threshold[l] * kInverse9, 7) * kInverse5;
                sc::Xoshiro256StarStar ref;
                ref.setState(laneState(gen, l));
                ASSERT_EQ(ref.nextWord(), threshold[l]);
                out[l] = ~0ULL;
                dst[l] = &out[l];
            }
            tableOf(level).laneSngFill(gen, threshold, ones, dst, 1);
            for (std::size_t l = 0; l < lanes; ++l)
                EXPECT_EQ(out[l], 0u) << "lane " << l;
        }
    }
}

/**
 * The lane-parallel MUX select draws, on every tier, against one
 * Xoshiro256StarStar per lane: bit b of a select word is bit 63 (high)
 * or 62 (low) of that lane's draw, nextBits(2)'s two bits.  1-8 lanes,
 * the same lengths and resumed spans as the SNG fill; the words past a
 * span stay untouched and the final states match.
 */
TEST(SimdKernels, LaneMuxSelectsMatchSerialDrawsOnEveryTier)
{
    for (const Level level : runnableLevels()) {
        const sc::simd::KernelTable &table = tableOf(level);
        for (const std::size_t len :
             {std::size_t{64}, std::size_t{100}, std::size_t{192},
              std::size_t{1024}}) {
            const std::size_t words = (len + 63) / 64;
            for (std::size_t lanes = 1; lanes <= 8; ++lanes) {
                SCOPED_TRACE(std::string(sc::simd::levelName(level)) +
                             " N=" + std::to_string(len) +
                             " lanes=" + std::to_string(lanes));
                sc::simd::XoshiroLanes gen;
                gen.lanes = lanes;
                std::vector<sc::Xoshiro256StarStar> ref;
                std::vector<std::vector<std::uint64_t>> high(
                    lanes, std::vector<std::uint64_t>(words + 1, 0x5EED));
                std::vector<std::vector<std::uint64_t>> low = high;
                std::uint64_t *highs[sc::simd::kXoshiroLanes];
                std::uint64_t *lows[sc::simd::kXoshiroLanes];
                for (std::size_t l = 0; l < lanes; ++l) {
                    ref.emplace_back(sc::deriveStreamSeed(0x9E3779B9ULL, l));
                    const std::array<std::uint64_t, 4> st = ref[l].state();
                    for (std::size_t k = 0; k < 4; ++k)
                        gen.s[k][l] = st[k];
                }
                for (const auto &[begin, end] : resumedSpans(len)) {
                    for (std::size_t l = 0; l < lanes; ++l) {
                        highs[l] = high[l].data() + begin / 64;
                        lows[l] = low[l].data() + begin / 64;
                    }
                    table.laneMuxSelects(gen, highs, lows, end - begin);
                }
                for (std::size_t l = 0; l < lanes; ++l) {
                    std::vector<std::uint64_t> want_high(words, 0);
                    std::vector<std::uint64_t> want_low(words, 0);
                    for (std::size_t t = 0; t < len; ++t) {
                        const std::uint64_t sel = ref[l].nextBits(2);
                        want_high[t / 64] |= (sel >> 1) << (t % 64);
                        want_low[t / 64] |= (sel & 1) << (t % 64);
                    }
                    for (std::size_t w = 0; w < words; ++w) {
                        ASSERT_EQ(high[l][w], want_high[w])
                            << "lane " << l << " word " << w;
                        ASSERT_EQ(low[l][w], want_low[w])
                            << "lane " << l << " word " << w;
                    }
                    EXPECT_EQ(high[l][words], 0x5EEDu) << "lane " << l;
                    EXPECT_EQ(low[l][words], 0x5EEDu) << "lane " << l;
                    EXPECT_EQ(laneState(gen, l), ref[l].state())
                        << "lane " << l;
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
              "addXnorTile=" + tier + " featureFeedback=" + tier +
                  " thresholdPack=" + tier + " laneSngFill=" + tier +
                  " laneMuxSelects=" + tier);
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
        std::size_t images;
    };
    // tiny at len 576 = 9 words: full lane groups and a 1-word masked
    // group; len 100 = 2 words: a row that is one masked group.  snn at
    // N = 256: 4-word rows, and Conv2/FC1/FC2 sum 290/1570/502 products
    // into 9/11/9 planes (16-product blocks plus every shorter block).
    const Case cases[] = {
        {"tiny", "aqfp-sorter", 576, 8},
        {"tiny", "aqfp-sorter", 100, 8},
        {"tiny", "cmos-apc", 576, 8},
        {"snn", "cmos-apc", 256, 2},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.model) + " " + c.backend + " len=" +
                     std::to_string(c.len));
        const auto samples = data::generateDigits(c.images, 77);
        core::EngineOptions opts;
        opts.backend = c.backend;
        opts.streamLen = c.len;
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

/**
 * Checkpoint blocks of any size are the one-block run, on every tier:
 * a narrow tiny under neverExit(C) for C in {64, 128, 192, 320} (a
 * block of one word, of two, of three, and one that ends mid-stream)
 * equals neverExit() (one block of N cycles) bit for bit, at N = 576 (a
 * 9-word stream) and N = 100 (a partial second word), for cohorts of 1,
 * 5 and 9, on aqfp-sorter and cmos-apc.  The one-block runs agree
 * across tiers too.
 */
TEST(SimdKernels, CheckpointBlocksMatchOneBlockOnEveryTier)
{
    const auto samples = data::generateDigits(9, 81);
    // tiny's layer pattern at a quarter of its width (2 conv channels,
    // FC16): the same stage kinds, tile shapes and border windows.
    nn::Network net;
    net.add(std::make_unique<nn::Conv2D>(1, 2, 3, 14));
    net.add(std::make_unique<nn::SorterTanh>());
    net.add(std::make_unique<nn::AvgPool2>());
    net.add(std::make_unique<nn::AvgPool2>());
    net.add(std::make_unique<nn::Dense>(7 * 7 * 2, 16, 25));
    net.add(std::make_unique<nn::SorterTanh>());
    net.add(std::make_unique<nn::MajorityChainDense>(16, 10, 36));
    const nn::Tensor *images[9];
    std::size_t indices[9];
    for (std::size_t c = 0; c < 9; ++c) {
        images[c] = &samples[c].image;
        indices[c] = c;
    }
    for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
        for (const std::size_t len : {std::size_t{576}, std::size_t{100}}) {
            SCOPED_TRACE(std::string(backend) + " N=" + std::to_string(len));
            std::vector<std::vector<double>> scalar_scores;
            for (const Level level : runnableLevels()) {
                SCOPED_TRACE(sc::simd::levelName(level));
                const LevelGuard guard(level);
                core::EngineOptions cfg;
                cfg.backend = backend;
                cfg.streamLen = len;
                const core::ScNetworkEngine engine(net, cfg);
                core::CohortWorkspace ws(engine, 9);
                for (const std::size_t cohort : {1, 5, 9}) {
                    core::AdaptivePrediction one[9];
                    engine.inferAdaptiveCohort(
                        images, indices, cohort, ws,
                        core::AdaptivePolicy::neverExit(), one);
                    for (std::size_t c = 0; c < cohort; ++c) {
                        ASSERT_EQ(one[c].checkpoints, 1u);
                        if (cohort != 9)
                            continue;
                        if (level == Level::Scalar) {
                            scalar_scores.push_back(one[c].prediction.scores);
                        } else {
                            ASSERT_EQ(one[c].prediction.scores,
                                      scalar_scores[c])
                                << "image " << c << " differs from scalar";
                        }
                    }
                    for (const std::size_t block : {64, 128, 192, 320}) {
                        core::AdaptivePrediction got[9];
                        engine.inferAdaptiveCohort(
                            images, indices, cohort, ws,
                            core::AdaptivePolicy::neverExit(block), got);
                        for (std::size_t c = 0; c < cohort; ++c) {
                            EXPECT_EQ(got[c].consumedCycles, len);
                            ASSERT_EQ(got[c].prediction.scores,
                                      one[c].prediction.scores)
                                << "block " << block << " cohort " << cohort
                                << " image " << c;
                        }
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace aqfpsc
