/**
 * @file
 * Shared geometry/parameter structs and the templated linear kernel
 * cores of the concrete ScStage implementations.
 *
 * Every weighted stage (Conv/Dense x backend) owns a FeatureStreams
 * bundle: pre-generated weight and bias streams plus the neutral 0101...
 * pad stream.  The four linear stages (AqfpConv, AqfpDense, CmosConv,
 * CmosDense) are instantiations of one kernel core,
 * LinearScStage<Policy, Gather>:
 *
 *  - the Gather names each output row's (input row, weight row) product
 *    pairs — DenseGather walks the flat weight matrix, ConvWindowGather
 *    expresses conv as dense-with-window-gather.  The stage compiler
 *    walks it once into the stage's OperandPlan, which the kernels
 *    read; nothing walks a Gather at run time;
 *  - the Policy names the activation — sorter-majority feedback (AQFP,
 *    Algorithm 1) or SC-DCNN's exact APC + Btanh (CMOS) — by its
 *    constants: pad rule, recurrence, and each row's m and initial
 *    state.
 *
 * The core has exactly one kernel path, the stage-major cohort span: a
 * single image is a cohort of one.  It sums a tile of up to
 * sc::simd::kFeedbackTileRows rows for the whole cohort in one
 * dispatched call (sc::simd::KernelTable::addXnorTile) into a
 * span-compact tile per image, then drives each image's tile through
 * the feedback kernel.  Results are bit-identical at every cohort size
 * and span by construction.
 */

#ifndef AQFPSC_CORE_STAGES_STAGE_COMMON_H
#define AQFPSC_CORE_STAGES_STAGE_COMMON_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/stages/stage.h"
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

/** The shape part of a stage name, after its kind: "<outC>x<outH>x<outW>
 *  k<kernel>" for a conv, "<channels>x<outH>x<outW>" for a pool and
 *  "<inFeatures>-><outFeatures>" for a dense or output stage. */
inline std::string
shapeName(const ConvGeometry &g)
{
    return std::to_string(g.outC) + "x" + std::to_string(g.outH) + "x" +
           std::to_string(g.outW) + " k" + std::to_string(g.kernel);
}

inline std::string
shapeName(const PoolGeometry &g)
{
    return std::to_string(g.channels) + "x" + std::to_string(g.outH) + "x" +
           std::to_string(g.outW);
}

inline std::string
shapeName(const DenseGeometry &g)
{
    return std::to_string(g.inFeatures) + "->" +
           std::to_string(g.outFeatures);
}

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
 * The operand plan of a linear stage: every output row's (input row,
 * weight row) product pairs, its bias row, m and eff_m, compiled once
 * from the stage's Gather (compileOperandPlan) and read by the tile
 * kernel through view().
 *
 * Rows that differ only by group — the output channel of a conv, the
 * neuron of a dense layer — gather the same input rows against the
 * same offsets into their group's weight rows, so they share one
 * product list: row r is in group r / lists and reads list r % lists,
 * whose entries i in [first[l], first[l + 1]) are the pairs
 * (xrow[i], group * groupStride + wrow[i]), in the Gather's visit
 * order.  A conv stage keeps one list per output pixel, a dense stage
 * one list of inFeatures.  Bias row = group; m = products + 1 (the
 * bias); eff_m pads m to odd for a stage that pads.
 */
struct OperandPlan
{
    std::size_t groups = 0;
    std::size_t lists = 0;
    std::size_t groupStride = 0; ///< weight rows per group
    std::vector<std::uint32_t> first; ///< lists + 1 offsets
    std::vector<std::uint32_t> xrow;
    std::vector<std::uint32_t> wrow;
    /** Per list: sc::simd::OperandLists::run, capped at 255. */
    std::vector<std::uint8_t> run;

    std::size_t rows() const { return groups * lists; }
    std::size_t biasRow(std::size_t r) const { return r / lists; }

    /** Entries [begin(r), end(r)) of xrow/wrow are row @p r's products. */
    std::size_t begin(std::size_t r) const { return first[r % lists]; }
    std::size_t end(std::size_t r) const { return first[r % lists + 1]; }

    /** Weight row of row @p r's product entry @p i. */
    std::size_t
    weightRow(std::size_t r, std::size_t i) const
    {
        return biasRow(r) * groupStride + wrow[i];
    }

    /** Products plus the bias. */
    int
    m(std::size_t r) const
    {
        return static_cast<int>(end(r) - begin(r)) + 1;
    }

    /** m, plus the neutral pad when @p pad_to_odd and m is even. */
    int
    effM(std::size_t r, bool pad_to_odd) const
    {
        const int mr = m(r);
        return pad_to_odd && mr % 2 == 0 ? mr + 1 : mr;
    }

    /** Fill @ref run from the lists. */
    void
    findRuns()
    {
        // List l + 1 is list l one input row on: run[l] = run[l + 1] + 1.
        const auto shifted = [this](std::size_t a) {
            const std::uint32_t n = first[a + 1] - first[a];
            if (first[a + 2] - first[a + 1] != n)
                return false;
            for (std::uint32_t i = 0; i < n; ++i) {
                const std::uint32_t ia = first[a] + i;
                const std::uint32_t ib = first[a + 1] + i;
                if (wrow[ib] != wrow[ia] || xrow[ib] != xrow[ia] + 1)
                    return false;
            }
            return true;
        };
        run.assign(lists, 1);
        for (std::size_t l = lists; l-- > 1;)
            if (shifted(l - 1))
                run[l - 1] = static_cast<std::uint8_t>(
                    std::min(255, run[l] + 1));
    }

    sc::simd::OperandLists
    view() const
    {
        return {first.data(), xrow.data(), wrow.data(), run.data(), lists,
                groupStride};
    }

    std::size_t
    bytes() const
    {
        return (first.size() + xrow.size() + wrow.size()) *
                   sizeof(std::uint32_t) +
               run.size();
    }
};

/** Walk @p gather once into its OperandPlan: group 0's rows give every
 *  list (see OperandPlan). */
template <typename Gather>
OperandPlan
compileOperandPlan(const Gather &gather)
{
    OperandPlan plan;
    plan.groups = gather.groups();
    plan.lists = gather.rowsPerGroup();
    plan.groupStride = gather.groupStride();
    plan.first.reserve(plan.lists + 1);
    plan.first.push_back(0);
    for (std::size_t l = 0; l < plan.lists; ++l) {
        gather.forEachProduct(l, [&](std::size_t xr, std::size_t wr) {
            plan.xrow.push_back(static_cast<std::uint32_t>(xr));
            plan.wrow.push_back(static_cast<std::uint32_t>(wr));
        });
        plan.first.push_back(static_cast<std::uint32_t>(plan.xrow.size()));
    }
    plan.findRuns();
    return plan;
}

/**
 * Immutable per-stage compile product.
 *
 * Everything a weighted stage derives once at compile time and only ever
 * reads afterwards lives here: the parameter bit-streams (weight
 * bit-plane layout, bias rows, neutral pad row) and, for a linear
 * stage, its operand plan.  The plan that owns the stage is what
 * core::PlanCache interns, so engines of one plan spec share this
 * object through it; mutable run state stays in StageScratch /
 * CohortWorkspace, which remain strictly per-engine-invocation.
 */
struct StageShared
{
    FeatureStreams streams;
    /** Linear (conv and hidden dense) stages only. */
    OperandPlan plan;
    /** Resident payload size (packed stream words and the plan), for
     *  cache stats. */
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
    using Geometry = DenseGeometry;
    /** The stage kind in a linear stage's name. */
    static constexpr const char *kKind = "Dense";

    DenseGeometry g;

    /** Largest product count any output row gathers. */
    int maxProducts() const { return g.inFeatures; }

    /** OperandPlan layout: one group per neuron, of one row. */
    std::size_t
    groups() const
    {
        return static_cast<std::size_t>(g.outFeatures);
    }
    std::size_t rowsPerGroup() const { return 1; }
    std::size_t
    groupStride() const
    {
        return static_cast<std::size_t>(g.inFeatures);
    }

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
 * canonical (input channel, kernel row, kernel column) order.  No count
 * depends on the order, but it lays out the OperandPlan's lists: the
 * runs of conv pixels the tile kernel sums side by side
 * (OperandPlan::findRuns) and the lists the plan tests check.
 */
struct ConvWindowGather
{
    using Geometry = ConvGeometry;
    static constexpr const char *kKind = "Conv";

    ConvGeometry g;

    /** Interior window product count (border rows gather fewer). */
    int maxProducts() const { return g.inC * g.kernel * g.kernel; }

    /** OperandPlan layout: one group per output channel, of one row
     *  per output pixel. */
    std::size_t groups() const { return static_cast<std::size_t>(g.outC); }
    std::size_t
    rowsPerGroup() const
    {
        return static_cast<std::size_t>(g.outH) * g.outW;
    }
    std::size_t
    groupStride() const
    {
        return static_cast<std::size_t>(maxProducts());
    }

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
 * Per-slot state of a linear stage: the span-compact plane buffer the
 * tile kernel fills for a tile of sc::simd::kFeedbackTileRows rows, and
 * every row's bit-sliced recurrence state, resumed across spans (the
 * stage holds the rows' m, which no image changes).
 */
struct LinearScratch final : StageScratch
{
    LinearScratch(std::size_t tile_words, std::size_t state_words)
        : tile(tile_words, 0), stateBits(state_words, 0)
    {
    }

    /** Each tile row's count planes over the span. */
    std::vector<std::uint64_t> tile;
    /** Bit-sliced recurrence state of every row. */
    std::vector<std::uint64_t> stateBits;
};

/**
 * Activation of the AQFP sorter-majority linear stages: exact column
 * counts drive the sorter + feedback unit (Algorithm 1, counter form,
 * blocks::FeatureFeedbackUnit).  The sorter needs an odd input count, so
 * even rows are padded with the neutral stream; the feedback carry is
 * the per-row resumable state, armed at the operating point
 * (M - 1) / 2.
 */
struct SorterMajorityPolicy
{
    /** The backend prefix of a linear stage's name. */
    static constexpr const char *kPrefix = "Aqfp";
    /** Pad even product counts to odd with the neutral stream. */
    static constexpr bool kPadToOdd = true;
    static constexpr auto kRecurrence =
        sc::simd::FeedbackRecurrence::SorterMajority;

    /** The feedback kernel's m and initial state of a row. */
    static int tileM(int /*m*/, int eff_m) { return eff_m; }
    static int initialState(int /*m*/, int eff_m) { return (eff_m - 1) / 2; }
};

/**
 * Activation of the CMOS SC-DCNN linear stages: exact APC column counts
 * drive the Btanh activation counter
 * (baseline::ApcFeatureExtraction::btanhStep with s_max = 2m), whose
 * state is the per-row resumable state, starting at s_max / 2.
 */
struct ApcBtanhPolicy
{
    static constexpr const char *kPrefix = "Cmos";
    static constexpr bool kPadToOdd = false;
    static constexpr auto kRecurrence = sc::simd::FeedbackRecurrence::Btanh;

    static int tileM(int m, int /*eff_m*/) { return m; }
    static int initialState(int m, int /*eff_m*/) { return m; }
};

/**
 * The shared linear stage: the OperandPlan (compiled from Gather) names
 * the products of each output row, the tile kernel counts them and the
 * feedback kernel runs Policy's recurrence over the counts.  There is
 * exactly one kernel path — the stage-major cohort span — and
 * bit-identity across cohort sizes holds by construction: per-image
 * state (tile planes, recurrence states, output rows) is fully
 * per-slot, and each image's rows count the same products whatever the
 * cohort.  The stage names itself from the policy's prefix and the
 * gather's kind and shape, e.g. "AqfpConv 8x28x28 k3".
 */
template <typename Policy, typename Gather>
class LinearScStage final : public ScStage
{
  public:
    /** Most products a row may count: with the bias and a neutral pad,
     *  its counts must fit the kernels' kMaxFeedbackPlanes planes. */
    static constexpr int kMaxProducts =
        (1 << sc::simd::kMaxFeedbackPlanes) - 3;

    /** @p shared holds the stage's parameter streams and the operand
     *  plan compiled from Gather{geom}.
     *  @throws std::invalid_argument when a row gathers more than
     *  kMaxProducts products. */
    LinearScStage(const typename Gather::Geometry &geom,
                  std::shared_ptr<const StageShared> shared)
        : gather_{geom}, shared_(std::move(shared)),
          planes_(std::bit_width(
              static_cast<unsigned>(gather_.maxProducts() + 2)))
    {
        assert(shared_ != nullptr);
        assert(plan().rows() == static_cast<std::size_t>(
                                    gather_.groups() * gather_.rowsPerGroup()));
        if (gather_.maxProducts() > kMaxProducts)
            throw std::invalid_argument(
                "a fan-in of " + std::to_string(gather_.maxProducts()) +
                " products per row exceeds the " +
                std::to_string(kMaxProducts) + " that the feedback kernel's " +
                std::to_string(sc::simd::kMaxFeedbackPlanes) +
                " count planes hold");
        // Every row's m and initial state, bit-sliced in whole registers
        // of rows per tile (FeedbackTile).
        constexpr std::size_t kTileWords = sc::simd::kFeedbackTileRows / 64;
        const std::size_t rows = plan().rows();
        sliceStride_ = (rows + sc::simd::kFeedbackTileRows - 1) /
                       sc::simd::kFeedbackTileRows * kTileWords;
        mBits_.assign(static_cast<std::size_t>(planes_) * sliceStride_, 0);
        initialState_.assign(
            static_cast<std::size_t>(statePlanes()) * sliceStride_, 0);
        const auto set = [this](std::vector<std::uint64_t> &bits,
                                std::size_t r, int value) {
            for (std::size_t k = 0; value >> k != 0; ++k)
                if ((value >> k & 1) != 0)
                    bits[k * sliceStride_ + r / 64] |= 1ULL << (r % 64);
        };
        for (std::size_t r = 0; r < rows; ++r) {
            const int m = plan().m(r);
            const int eff_m = plan().effM(r, Policy::kPadToOdd);
            set(mBits_, r, Policy::tileM(m, eff_m));
            set(initialState_, r, Policy::initialState(m, eff_m));
        }
    }

    std::string
    name() const override
    {
        return std::string(Policy::kPrefix) + Gather::kKind + " " +
               shapeName(gather_.g);
    }

    StageFootprint footprint() const override { return {plan().rows()}; }

    const StageShared *sharedState() const override
    {
        return shared_.get();
    }

    /** The Gather the plan was compiled from. */
    const Gather &gather() const { return gather_; }

    std::unique_ptr<StageScratch>
    makeScratch() const override
    {
        const std::size_t len = streams().weights.streamLen();
        const std::size_t tile_words =
            std::min(plan().rows(), sc::simd::kFeedbackTileRows) *
            static_cast<std::size_t>(planes_) * ((len + 63) / 64);
        return std::make_unique<LinearScratch>(tile_words,
                                               initialState_.size());
    }

    bool resumable() const override { return true; }

    void
    runCohortSpan(const CohortSlot *slots, std::size_t count,
                  std::size_t begin, std::size_t end) const override
    {
        const std::size_t len = streams().weights.streamLen();
        assert(count >= 1 && count <= kMaxCohortImages);
        assert(begin % 64 == 0 && begin < end && end <= len);
        // A span sums and drives only its own words, into a tile laid
        // out for its width, so it costs exactly its share of the
        // full-stream work.
        const std::size_t w0 = begin / 64;
        const std::size_t sw = (end - begin + 63) / 64;
        const std::size_t rows = plan().rows();

        LinearScratch *ws[kMaxCohortImages];
        const std::uint64_t *inputs[kMaxCohortImages];
        std::uint64_t *planes[kMaxCohortImages];
        for (std::size_t c = 0; c < count; ++c) {
            ws[c] = static_cast<LinearScratch *>(slots[c].scratch);
            // Prefix consumption: the input may carry a longer upstream
            // stream; this stage reads only its own len cycles of it.
            assert(slots[c].in->streamLen() >= len);
            assert(slots[c].in->wordsPerRow() ==
                   slots[0].in->wordsPerRow());
            inputs[c] = slots[c].in->row(0) + w0;
            slots[c].out->reset(rows, len);
            if (begin == 0)
                std::copy(initialState_.begin(), initialState_.end(),
                          ws[c]->stateBits.begin());
            planes[c] = ws[c]->tile.data();
        }
        const FeatureStreams &fs = streams();
        sc::simd::XnorTile tile{plan().view(),
                                0,
                                0,
                                Policy::kPadToOdd,
                                fs.weights.row(0) + w0,
                                fs.biases.row(0) + w0,
                                fs.neutral.row(0) + w0,
                                fs.weights.wordsPerRow(),
                                inputs,
                                slots[0].in->wordsPerRow(),
                                planes,
                                static_cast<std::size_t>(planes_) * sw,
                                sw,
                                count,
                                sw,
                                planes_};
        for (std::size_t r0 = 0; r0 < rows;
             r0 += sc::simd::kFeedbackTileRows) {
            tile.row0 = r0;
            tile.rows = std::min(rows - r0, sc::simd::kFeedbackTileRows);
            sc::simd::kernels().addXnorTile(tile);
            for (std::size_t c = 0; c < count; ++c) {
                sc::StreamMatrix &out = *slots[c].out;
                sc::simd::kernels().featureFeedback(
                    {planes[c], tile.rowStride, sw, planes_, tile.rows,
                     mBits_.data() + r0 / 64,
                     ws[c]->stateBits.data() + r0 / 64, sliceStride_,
                     out.row(r0) + w0, out.wordsPerRow(), end - begin,
                     Policy::kRecurrence});
            }
        }
    }

  private:
    /** The interned read-only compile product (possibly shared). */
    const FeatureStreams &streams() const { return shared_->streams; }
    const OperandPlan &plan() const { return shared_->plan; }

    int
    statePlanes() const
    {
        return Policy::kRecurrence == sc::simd::FeedbackRecurrence::Btanh
                   ? planes_ + 1
                   : planes_;
    }

    Gather gather_;
    std::shared_ptr<const StageShared> shared_;
    int planes_;
    /** Bit-sliced m and initial state of every row. */
    std::vector<std::uint64_t> mBits_;
    std::vector<std::uint64_t> initialState_;
    std::size_t sliceStride_ = 0;
};

/** The four linear stages of the stream backends. */
using AqfpConvStage = LinearScStage<SorterMajorityPolicy, ConvWindowGather>;
using AqfpDenseStage = LinearScStage<SorterMajorityPolicy, DenseGather>;
using CmosConvStage = LinearScStage<ApcBtanhPolicy, ConvWindowGather>;
using CmosDenseStage = LinearScStage<ApcBtanhPolicy, DenseGather>;

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_STAGE_COMMON_H
