/**
 * @file
 * Shared geometry/parameter structs and the templated linear kernel
 * cores of the concrete ScStage implementations.
 *
 * Every weighted stage (Conv/Dense x backend) owns a FeatureStreams
 * bundle: pre-generated weight and bias streams plus the neutral 0101...
 * pad stream.  The four linear stage TUs (aqfp_conv, aqfp_dense,
 * cmos_conv, cmos_dense) are thin instantiations of one kernel core,
 * LinearScStage<Policy, Gather>:
 *
 *  - the Gather names each output row's (input row, weight row) product
 *    pairs — DenseGather walks the flat weight matrix, ConvWindowGather
 *    expresses conv as dense-with-window-gather in the canonical
 *    (ic, ky, kx) in-bounds order (part of the deterministic contract:
 *    the CMOS approximate counter pairs products in visit order);
 *  - the Policy supplies the activation — sorter-majority feedback
 *    (AQFP) or APC + Btanh (CMOS) — together with its resumable per-row
 *    scratch state.
 *
 * The core has exactly one kernel path, the stage-major cohort span: a
 * single image is a cohort of one, and a cohort of C images gathers each
 * output row's operands once and sums them into every image's
 * carry-save planes with one row-kernel call per image
 * (sc::simd::KernelTable::addXnorRow), then drives each image.  Both
 * policies drive a tile of rows at once through the feedback kernel
 * (LinearScratch); wide counters and the CMOS approximate counter
 * drive each row as it is summed.  Results are bit-identical at every
 * cohort size by construction.
 */

#ifndef AQFPSC_CORE_STAGES_STAGE_COMMON_H
#define AQFPSC_CORE_STAGES_STAGE_COMMON_H

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "baseline/sc_dcnn.h"
#include "blocks/feedback_unit.h"
#include "core/stages/stage.h"
#include "sc/apc.h"
#include "sc/simd/simd.h"
#include "sc/stream_matrix.h"

namespace aqfpsc::core::stages {

/** Spatial geometry of a conv stage (same padding, stride 1). */
struct ConvGeometry
{
    int inC = 0, inH = 0, inW = 0;
    int outC = 0, outH = 0, outW = 0;
    int kernel = 0;
};

/** Geometry of a 2x2 stride-2 pooling stage. */
struct PoolGeometry
{
    int channels = 0;
    int inH = 0, inW = 0;
    int outH = 0, outW = 0;
};

/** Flat geometry of a dense/output stage. */
struct DenseGeometry
{
    int inFeatures = 0;
    int outFeatures = 0;
};

/** Pre-generated parameter streams of one weighted stage. */
struct FeatureStreams
{
    sc::StreamMatrix weights; ///< rows follow the float layer's layout
    sc::StreamMatrix biases;  ///< one row per output neuron/channel
    sc::StreamMatrix neutral; ///< single neutral row for odd padding
};

/** Total packed payload bytes of a FeatureStreams bundle. */
inline std::size_t
featureStreamBytes(const FeatureStreams &fs)
{
    auto bytes = [](const sc::StreamMatrix &m) {
        return m.rows() * m.wordsPerRow() * sizeof(std::uint64_t);
    };
    return bytes(fs.weights) + bytes(fs.biases) + bytes(fs.neutral);
}

/**
 * Immutable per-stage compile product, shared across engines.
 *
 * Everything a weighted stage derives once at compile time and only ever
 * reads afterwards lives here: the parameter bit-streams (weight
 * bit-plane layout, bias rows, neutral pad row).  The plan cache interns
 * StageShared objects by spec so identical layers across engines,
 * sessions, and serving tenants reference one copy; mutable run state
 * stays in StageScratch / CohortWorkspace, which remain strictly
 * per-engine-invocation.
 *
 * rngStateAfter records the compiler RNG state immediately after the
 * streams were generated.  On a cache hit the compiler restores it so
 * the layers downstream of the hit see exactly the word sequence a cold
 * compile would have produced — the mechanism behind the cached ==
 * cold-compiled bit-identity guarantee.
 */
struct StageShared
{
    FeatureStreams streams;
    /** Compiler RNG state right after generating @ref streams. */
    std::array<std::uint64_t, 4> rngStateAfter{};
    /** Resident payload size (packed stream words), for cache stats. */
    std::size_t bytes = 0;
};

/** Bipolar SC multiply: XNOR the packed words of two streams. */
inline void
xnorProduct(std::uint64_t *prod, const std::uint64_t *x,
            const std::uint64_t *w, std::size_t wpr)
{
    for (std::size_t i = 0; i < wpr; ++i)
        prod[i] = ~(x[i] ^ w[i]);
}

/**
 * Row gather of a dense (fully-connected) linear stage: output row r
 * multiplies every input feature j against weight row r*inFeatures + j.
 */
struct DenseGather
{
    DenseGeometry g;

    std::size_t
    rows() const
    {
        return static_cast<std::size_t>(g.outFeatures);
    }

    /** Bias stream row of output row @p r. */
    std::size_t biasRow(std::size_t r) const { return r; }

    /** Largest product count any output row gathers. */
    int maxProducts() const { return g.inFeatures; }

    /** Invoke fn(input_row, weight_row) per product; returns the count. */
    template <typename Fn>
    int
    forEachProduct(std::size_t r, Fn &&fn) const
    {
        const std::size_t wbase =
            r * static_cast<std::size_t>(g.inFeatures);
        for (int j = 0; j < g.inFeatures; ++j)
            fn(static_cast<std::size_t>(j),
               wbase + static_cast<std::size_t>(j));
        return g.inFeatures;
    }
};

/**
 * Conv expressed as dense-with-window-gather: output row r decomposes to
 * (oc, y, x) and gathers that window's in-bounds products in the
 * canonical (input channel, kernel row, kernel column) order.  The order
 * is part of the deterministic contract: the CMOS approximate counter
 * pairs products in visit order, so both backends must share it.
 */
struct ConvWindowGather
{
    ConvGeometry g;

    std::size_t
    rows() const
    {
        return static_cast<std::size_t>(g.outC) * g.outH * g.outW;
    }

    /** Bias stream row (= output channel) of output row @p r. */
    std::size_t
    biasRow(std::size_t r) const
    {
        return r / (static_cast<std::size_t>(g.outH) * g.outW);
    }

    /** Interior window product count (border rows gather fewer). */
    int maxProducts() const { return g.inC * g.kernel * g.kernel; }

    template <typename Fn>
    int
    forEachProduct(std::size_t r, Fn &&fn) const
    {
        const std::size_t plane =
            static_cast<std::size_t>(g.outH) * g.outW;
        const int oc = static_cast<int>(r / plane);
        const int rem = static_cast<int>(r % plane);
        const int y = rem / g.outW;
        const int x = rem % g.outW;
        const int k = g.kernel;
        const int rr = k / 2;
        int m = 0;
        for (int ic = 0; ic < g.inC; ++ic) {
            for (int ky = 0; ky < k; ++ky) {
                const int sy = y + ky - rr;
                if (sy < 0 || sy >= g.inH)
                    continue;
                for (int kx = 0; kx < k; ++kx) {
                    const int sx = x + kx - rr;
                    if (sx < 0 || sx >= g.inW)
                        continue;
                    fn((static_cast<std::size_t>(ic) * g.inH + sy) *
                           g.inW +
                       sx,
                       ((static_cast<std::size_t>(oc) * g.inC + ic) * k +
                        ky) *
                           k +
                       kx);
                    ++m;
                }
            }
        }
        return m;
    }
};

/**
 * SC-DCNN first-layer OR-pair overcount model.
 *
 * The approximate parallel counter encodes product pairs as
 * (a AND b, a OR b), which overcounts by one exactly when both pair
 * members are 1.  Products are paired in arrival order; an unpaired
 * trailing product is exact.  observe()/observeXnor() every product,
 * then either addOvercount() folds the per-cycle overcounts into the
 * extracted column counts (reference path) or
 * ColumnCounts::driveWithOvercount reads counts() directly (fused
 * path); both saturate at @p cap (the counter cannot exceed its input
 * count).
 */
class ApproxPairOvercount
{
  public:
    ApproxPairOvercount(std::size_t len, int max_pairs)
        : over_(len, max_pairs), prev_((len + 63) / 64, 0)
    {
    }

    void
    reset()
    {
        over_.clear();
        havePrev_ = false;
    }

    /** Reference form: observe a materialized product buffer. */
    void
    observe(const std::vector<std::uint64_t> &prod, std::size_t wpr)
    {
        if (havePrev_) {
            for (std::size_t wi = 0; wi < wpr; ++wi)
                prev_[wi] &= prod[wi];
            over_.addWords(prev_.data(), wpr);
            havePrev_ = false;
        } else {
            for (std::size_t wi = 0; wi < wpr; ++wi)
                prev_[wi] = prod[wi];
            havePrev_ = true;
        }
    }

    /**
     * Fused form: observe the XNOR product of rows @p x and @p w with no
     * caller-side product buffer — bit-identical to observe() of
     * xnorProduct(x, w).
     */
    void
    observeXnor(const std::uint64_t *x, const std::uint64_t *w,
                std::size_t wpr)
    {
        if (havePrev_) {
            for (std::size_t wi = 0; wi < wpr; ++wi)
                prev_[wi] &= ~(x[wi] ^ w[wi]);
            over_.addWords(prev_.data(), wpr);
            havePrev_ = false;
        } else {
            for (std::size_t wi = 0; wi < wpr; ++wi)
                prev_[wi] = ~(x[wi] ^ w[wi]);
            havePrev_ = true;
        }
    }

    void
    addOvercount(std::vector<int> &col, int cap)
    {
        over_.extract(scratch_);
        for (std::size_t i = 0; i < col.size(); ++i) {
            col[i] += scratch_[i];
            if (col[i] > cap)
                col[i] = cap;
        }
    }

    /** The accumulated per-cycle overcounts (fused drive path). */
    const sc::ColumnCounts &counts() const { return over_; }

  private:
    sc::ColumnCounts over_;
    std::vector<std::uint64_t> prev_;
    std::vector<int> scratch_;
    bool havePrev_ = false;
};

/** Set bit @p i of a packed stream row. */
inline void
setStreamBit(std::uint64_t *dst, std::size_t i)
{
    dst[i / 64] |= 1ULL << (i % 64);
}

/** Mask selecting the valid bits of the last word of a @p len-cycle
 *  stream (all-ones when len is word-aligned). */
inline std::uint64_t
lastWordMask(std::size_t len)
{
    return len % 64 == 0 ? ~0ULL : (1ULL << (len % 64)) - 1;
}

/**
 * Per-class ones accumulators of a terminal (categorization) stage,
 * resumed across spans — the resumable state both output backends share
 * (the AQFP majority chain counts chain-output ones, the CMOS APC stage
 * counts product ones; only the count width differs).
 */
template <typename Count>
struct OnesScratch final : StageScratch
{
    explicit OnesScratch(std::size_t classes) : ones(classes, 0) {}

    /** begin-of-image re-arm (a span with begin == 0). */
    void rearm() { ones.assign(ones.size(), 0); }

    std::vector<Count> ones;
};

/**
 * Per-slot state every linear stage shares: the operands of the current
 * row's products, and the tile machinery of the rows-as-lanes feedback
 * kernel (src/sc/simd/feedback_kernel.h).  Rows are summed a tile of
 * sc::simd::kFeedbackTileRows at a time into one plane buffer; each
 * row's m and recurrence state are kept bit-sliced, the state resumed
 * across spans; and the tile's last row drives the whole tile.  A
 * scratch built untiled (counters wider than the kernel's
 * sc::simd::kMaxFeedbackPlanes planes, or a policy that opts out) sums
 * each row into @ref counts for the policy's per-row drive instead.
 */
struct LinearScratch : StageScratch
{
    LinearScratch(std::size_t len, int max_count, std::size_t rows,
                  sc::simd::FeedbackRecurrence recurrence, bool tile_wanted)
        : counts(len, max_count),
          xrows(static_cast<std::size_t>(max_count)),
          wrows(static_cast<std::size_t>(max_count)),
          ones((len + 63) / 64, ~0ULL), rows(rows), words((len + 63) / 64),
          planes(counts.planeCount()), recurrence(recurrence)
    {
        if (!tile_wanted || planes > sc::simd::kMaxFeedbackPlanes)
            return;
        // Whole registers of rows for every tile (FeedbackTile).
        constexpr std::size_t kTileWords = sc::simd::kFeedbackTileRows / 64;
        sliceStride = (rows + sc::simd::kFeedbackTileRows - 1) /
                      sc::simd::kFeedbackTileRows * kTileWords;
        tile.assign(std::min(rows, sc::simd::kFeedbackTileRows) * rowStride(),
                    0);
        mBits.assign(static_cast<std::size_t>(planes) * sliceStride, 0);
        stateBits.assign(static_cast<std::size_t>(statePlanes()) *
                             sliceStride,
                         0);
    }

    bool tiled() const { return !mBits.empty(); }

    /** Sum row @p r's @p n products (weight side @p weights) over the
     *  span's @p sw words: into its tile slot, or into counts. */
    void
    sumRow(std::size_t r, const std::uint64_t *const weights[],
           std::size_t n, std::size_t sw)
    {
        if (!tiled()) {
            counts.clear();
            counts.addXnorRow(xrows.data(), weights, n, sw);
            return;
        }
        std::uint64_t *const p =
            tile.data() + r % sc::simd::kFeedbackTileRows * rowStride();
        for (int k = 0; k < planes; ++k)
            std::fill_n(p + static_cast<std::size_t>(k) * words, sw, 0);
        sc::simd::kernels().addXnorRow({p, words, planes}, xrows.data(),
                                       weights, n, sw);
    }

    /** Tile path: set row @p r's bit-sliced m and recurrence state. */
    void
    armRow(std::size_t r, int m, int state)
    {
        const std::uint64_t bit = 1ULL << (r % 64);
        const auto set = [&](std::vector<std::uint64_t> &bits, int value,
                             int count) {
            for (int k = 0; k < count; ++k) {
                std::uint64_t &w =
                    bits[static_cast<std::size_t>(k) * sliceStride + r / 64];
                w = (value >> k & 1) != 0 ? w | bit : w & ~bit;
            }
        };
        set(mBits, m, planes);
        set(stateBits, state, statePlanes());
    }

    /** Tile path: when row @p r is the last of its tile, drive the
     *  tile through the span [begin, end). */
    void
    driveTileAt(std::size_t r, std::size_t begin, std::size_t end,
                sc::StreamMatrix &out)
    {
        const std::size_t t = r % sc::simd::kFeedbackTileRows;
        if (t + 1 != sc::simd::kFeedbackTileRows && r + 1 != rows)
            return;
        const std::size_t r0 = r - t;
        sc::simd::kernels().featureFeedback(
            {tile.data(), rowStride(), words, planes, t + 1,
             mBits.data() + r0 / 64, stateBits.data() + r0 / 64,
             sliceStride, out.row(r0) + begin / 64, out.wordsPerRow(),
             end - begin, recurrence});
    }

    /** Per-row path: the current row's column counts. */
    sc::ColumnCounts counts;
    /** Input-side operand of each product of the current row. */
    std::vector<const std::uint64_t *> xrows;
    /** Weight-side operands; the cohort shares slot 0's. */
    std::vector<const std::uint64_t *> wrows;
    /** The constant +1 input stream: the bias and the neutral pad enter
     *  the sum as products with it (XNOR with all ones is identity). */
    std::vector<std::uint64_t> ones;

  private:
    std::size_t
    rowStride() const
    {
        return static_cast<std::size_t>(planes) * words;
    }
    int
    statePlanes() const
    {
        return recurrence == sc::simd::FeedbackRecurrence::Btanh ? planes + 1
                                                                 : planes;
    }

    std::size_t rows;
    std::size_t words;
    int planes;
    sc::simd::FeedbackRecurrence recurrence;
    /** Tile path: each tile row's count planes. */
    std::vector<std::uint64_t> tile;
    /** Tile path: bit-sliced m of every row. */
    std::vector<std::uint64_t> mBits;
    /** Tile path: bit-sliced recurrence state, resumed across spans. */
    std::vector<std::uint64_t> stateBits;
    std::size_t sliceStride = 0;
};

/**
 * Accumulation policy of the AQFP sorter-majority linear stages: exact
 * column counts drive the sorter + feedback unit (Algorithm 1, counter
 * form).  The sorter needs an odd input count, so even rows are padded
 * with the neutral stream; the feedback carry is the per-row resumable
 * state.
 *
 * The feedback kernel drives each tile of rows (LinearScratch).
 * Counters wider than its sc::simd::kMaxFeedbackPlanes planes step a
 * blocks::FeatureFeedbackUnit through each row's counts instead; both
 * paths compute the unit's recurrence exactly.
 */
class SorterMajorityPolicy
{
  public:
    /** Sorter stages never model the SC-DCNN approximate counter. */
    static constexpr bool kApproxCapable = false;
    /** Pad even product counts to odd with the neutral stream. */
    static constexpr bool kPadToOdd = true;

    struct Scratch final : LinearScratch
    {
        Scratch(std::size_t len, int max_count, std::size_t rows,
                const SorterMajorityPolicy & /*policy*/)
            : LinearScratch(len, max_count, rows,
                            sc::simd::FeedbackRecurrence::SorterMajority,
                            true),
              unit(1)
        {
            if (!tiled())
                carries.assign(rows, 0);
        }

        /** Per-row path: the unit and each row's resumed feedback count. */
        blocks::FeatureFeedbackUnit unit;
        std::vector<int> carries;
    };

    /** Interior window + bias + possible neutral pad bounds the counts. */
    static int maxCount(int max_products) { return max_products + 2; }

    void
    drive(Scratch &ws, std::size_t r, int /*m*/, int eff_m,
          std::size_t begin, std::size_t end, sc::StreamMatrix &out) const
    {
        if (!ws.tiled()) {
            if (begin == 0)
                ws.unit.reset(eff_m);
            else
                ws.unit.restore(eff_m, ws.carries[r]);
            ws.counts.drivePrefix(end - begin,
                                  [&](int c) { return ws.unit.step(c); },
                                  out.row(r) + begin / 64);
            ws.carries[r] = ws.unit.carry();
            return;
        }
        // Re-arm the carry at the operating point (M - 1) / 2.
        if (begin == 0)
            ws.armRow(r, eff_m, (eff_m - 1) / 2);
        ws.driveTileAt(r, begin, end, out);
    }
};

/**
 * Accumulation policy of the CMOS SC-DCNN linear stages: (approximate)
 * APC column counts drive the Btanh activation counter, whose state is
 * the per-row resumable state.
 *
 * The feedback kernel drives each tile of rows (LinearScratch)
 * with the Btanh recurrence.  Two cases keep the per-row drive of
 * baseline::ApcFeatureExtraction::btanhStep: counters wider than the
 * kernel's planes, and @ref approx, where the OR-pair overcount model
 * rides along (ApproxPairOvercount), folded into the drive.
 */
class ApcBtanhPolicy
{
  public:
    static constexpr bool kApproxCapable = true;
    static constexpr bool kPadToOdd = false;

    /** Model the SC-DCNN first-layer OR-pair approximate counter. */
    bool approx = false;

    struct Scratch final : LinearScratch
    {
        Scratch(std::size_t len, int max_count, std::size_t rows,
                const ApcBtanhPolicy &policy)
            : LinearScratch(len, max_count, rows,
                            sc::simd::FeedbackRecurrence::Btanh,
                            !policy.approx),
              over(len, max_count / 2 + 1)
        {
            if (!tiled())
                states.assign(rows, 0);
        }

        ApproxPairOvercount over;
        /** Per-row path: each row's Btanh counter state, resumed across
         *  spans. */
        std::vector<int> states;
    };

    static int maxCount(int max_products) { return max_products + 2; }

    void
    drive(Scratch &ws, std::size_t r, int m, int /*eff_m*/,
          std::size_t begin, std::size_t end, sc::StreamMatrix &out) const
    {
        // The counter starts at s_max / 2 with s_max = 2m.
        if (ws.tiled()) {
            if (begin == 0)
                ws.armRow(r, m, m);
            ws.driveTileAt(r, begin, end, out);
            return;
        }
        int state = begin == 0 ? m : ws.states[r];
        auto step = [&](int c) {
            return baseline::ApcFeatureExtraction::btanhStep(state, c, m,
                                                             2 * m);
        };
        std::uint64_t *const dst = out.row(r) + begin / 64;
        if (approx)
            ws.counts.driveWithOvercountPrefix(ws.over.counts(), m,
                                               end - begin, step, dst);
        else
            ws.counts.drivePrefix(end - begin, step, dst);
        ws.states[r] = state;
    }
};

/**
 * The shared linear stage: Gather names the products of each output
 * row, Policy accumulates and activates them.  There is exactly one
 * kernel path — the stage-major cohort span — and bit-identity across
 * cohort sizes holds by construction: per-image state (counters,
 * feedback/Btanh resume values, output rows) is fully per-slot, and each
 * image's counter sums the same products whatever the cohort.
 *
 * Concrete stages only add name() and a registry entry.
 */
template <typename Policy, typename Gather>
class LinearScStage : public ScStage
{
  public:
    LinearScStage(Gather gather, std::shared_ptr<const StageShared> shared,
                  Policy policy)
        : gather_(std::move(gather)), shared_(std::move(shared)),
          policy_(std::move(policy))
    {
        assert(shared_ != nullptr);
    }

    StageFootprint footprint() const override { return {gather_.rows()}; }

    const StageShared *sharedState() const override
    {
        return shared_.get();
    }

    std::unique_ptr<StageScratch>
    makeScratch() const override
    {
        return std::make_unique<typename Policy::Scratch>(
            streams().weights.streamLen(),
            Policy::maxCount(gather_.maxProducts()), gather_.rows(), policy_);
    }

    bool resumable() const override { return true; }

    void
    runCohortSpan(const CohortSlot *slots, std::size_t count,
                  std::size_t begin, std::size_t end) const override
    {
        const std::size_t len = streams().weights.streamLen();
        assert(count >= 1 && count <= kMaxCohortImages);
        assert(begin % 64 == 0 && begin < end && end <= len);
        // Spans accumulate at plane offset 0 of each scratch counter and
        // drive through the incremental kernel entry points, so a span
        // costs exactly its share of the full-stream work.
        const std::size_t w0 = begin / 64;
        const std::size_t sw = (end - begin + 63) / 64;
        const std::size_t rows = gather_.rows();

        typename Policy::Scratch *ws[kMaxCohortImages];
        const sc::StreamMatrix *in[kMaxCohortImages];
        for (std::size_t c = 0; c < count; ++c) {
            ws[c] = static_cast<typename Policy::Scratch *>(
                slots[c].scratch);
            in[c] = slots[c].in;
            // Prefix consumption: the input may carry a longer upstream
            // stream; this stage reads only its own len cycles of it.
            assert(in[c]->streamLen() >= len);
            slots[c].out->reset(rows, len);
        }
        const std::uint64_t *const neutral = streams().neutral.row(0) + w0;
        const std::uint64_t *const ones = ws[0]->ones.data();
        const std::uint64_t **const wrows = ws[0]->wrows.data();

        for (std::size_t r = 0; r < rows; ++r) {
            // Gather the row's operands once for the cohort: the weight
            // side is shared, the input side is per image.
            std::size_t n = 0;
            const auto push = [&](const std::uint64_t *w, std::size_t xr) {
                wrows[n] = w;
                for (std::size_t c = 0; c < count; ++c)
                    ws[c]->xrows[n] = in[c]->row(xr) + w0;
                ++n;
            };
            const auto pushConstant = [&](const std::uint64_t *w) {
                wrows[n] = w;
                for (std::size_t c = 0; c < count; ++c)
                    ws[c]->xrows[n] = ones;
                ++n;
            };
            int m = gather_.forEachProduct(
                r, [&](std::size_t xr, std::size_t wr) {
                    push(streams().weights.row(wr) + w0, xr);
                });
            const std::size_t products = n;
            // Bias enters the sum as one more product stream of fixed
            // value (its "input" is the constant 1 stream).
            pushConstant(streams().biases.row(gather_.biasRow(r)) + w0);
            ++m;
            int eff_m = m;
            if constexpr (Policy::kPadToOdd) {
                if (m % 2 == 0) {
                    pushConstant(neutral);
                    eff_m = m + 1;
                }
            }
            for (std::size_t c = 0; c < count; ++c)
                ws[c]->sumRow(r, wrows, n, sw);
            if constexpr (Policy::kApproxCapable) {
                if (policy_.approx) {
                    // The OR-pair overcount model pairs the products (not
                    // the bias) in visit order, per image.
                    for (std::size_t c = 0; c < count; ++c) {
                        ApproxPairOvercount &over = ws[c]->over;
                        over.reset();
                        for (std::size_t p = 0; p < products; ++p)
                            over.observeXnor(ws[c]->xrows[p], wrows[p], sw);
                    }
                }
            }
            for (std::size_t c = 0; c < count; ++c)
                policy_.drive(*ws[c], r, m, eff_m, begin, end,
                              *slots[c].out);
        }
    }

  protected:
    /** The interned read-only compile product (possibly shared). */
    const FeatureStreams &streams() const { return shared_->streams; }

    Gather gather_;
    std::shared_ptr<const StageShared> shared_;
    Policy policy_;
};

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_STAGE_COMMON_H
