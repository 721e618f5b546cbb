#include "cmos_pool_stage.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "core/backend_registry.h"
#include "sc/rng.h"
#include "sc/simd/simd.h"

namespace aqfpsc::core::stages {

namespace {
const PoolStageRegistration kRegistration{
    "cmos-apc", [](const PoolGeometry &g, const ScEngineConfig &cfg) {
        return std::make_unique<CmosPoolStage>(g, cfg.streamLen);
    }};

/**
 * Per-pixel MUX-select RNG positions, resumed across spans.
 *
 * The uninterrupted path consumes ONE per-image RNG pixel-major (pixel p
 * draws selects [p*N, (p+1)*N)), so checkpointed execution snapshots the
 * generator at every pixel's start offset on the first span and resumes
 * each snapshot as later spans arrive — the select draws are
 * bit-identical to one full span at any checkpoint granularity.  In
 * non-deterministic mode each pixel instead gets an independent
 * substream (no skip-ahead cost, draws differ from the one-pass path).
 */
struct CmosPoolScratch final : StageScratch
{
    explicit CmosPoolScratch(std::size_t rows) : rngs(rows) {}

    std::vector<sc::Xoshiro256StarStar> rngs;
};

/**
 * The 2-bit MUX select of a cycle is its draw's top two bits, sel =
 * word >> 62 (RandomSource::nextBits(2)), so sel < k exactly when the
 * draw is below k * 2^62: three threshold masks per 64 draws pick each
 * cycle's window row.
 */
constexpr std::uint64_t kSelectBelow1 = 1ULL << 62;
constexpr std::uint64_t kSelectBelow2 = 2ULL << 62;
constexpr std::uint64_t kSelectBelow3 = 3ULL << 62;

/** Advance @p rng past @p n draws. */
void
skipDraws(sc::Xoshiro256StarStar &rng, std::size_t n)
{
    std::uint64_t draws[64];
    for (; n > 0; n -= std::min<std::size_t>(64, n))
        rng.nextWords(draws, std::min<std::size_t>(64, n));
}

} // namespace

void
muxPoolWindow(const std::uint64_t *const rows[4],
              sc::Xoshiro256StarStar &rng, std::size_t begin,
              std::size_t end, std::uint64_t *dst)
{
    const sc::simd::ThresholdPackFn pack = sc::simd::kernels().thresholdPack;
    std::uint64_t draws[64];
    for (std::size_t i = begin; i < end; i += 64) {
        const std::size_t n = std::min<std::size_t>(64, end - i);
        rng.nextWords(draws, n);
        const std::uint64_t below1 = pack(draws, n, kSelectBelow1);
        const std::uint64_t below2 = pack(draws, n, kSelectBelow2);
        const std::uint64_t below3 = pack(draws, n, kSelectBelow3);
        const std::size_t w = i / 64;
        const std::uint64_t low =
            (below1 & rows[0][w]) | (~below1 & rows[1][w]);
        const std::uint64_t high =
            (below3 & rows[2][w]) | (~below3 & rows[3][w]);
        dst[w] = ((below2 & low) | (~below2 & high)) & lastWordMask(n);
    }
}

std::string
CmosPoolStage::name() const
{
    return "CmosPool " + std::to_string(geom_.channels) + "x" +
           std::to_string(geom_.outH) + "x" + std::to_string(geom_.outW);
}

StageFootprint
CmosPoolStage::footprint() const
{
    return {static_cast<std::size_t>(geom_.channels) * geom_.outH *
            geom_.outW};
}

std::unique_ptr<StageScratch>
CmosPoolStage::makeScratch() const
{
    return std::make_unique<CmosPoolScratch>(footprint().outputRows);
}

void
CmosPoolStage::runCohortSpan(const CohortSlot *slots, std::size_t count,
                             std::size_t begin, std::size_t end) const
{
    // The stage runs at its own compiled length; a longer upstream
    // stream only contributes its prefix to the MUX selects.
    const std::size_t len = streamLen_;
    assert(begin % 64 == 0 && begin < end && end <= len);
    const bool firstSpan = begin == 0;
    const bool fullSpan = firstSpan && end == len;

    for (const CohortSlot &slot : std::span(slots, count)) {
        const sc::StreamMatrix &in = *slot.in;
        assert(in.streamLen() >= len);
        sc::StreamMatrix &out = *slot.out;
        out.reset(footprint().outputRows, len);
        const StageContext &ctx = *slot.ctx;
        auto &ws = *static_cast<CmosPoolScratch *>(slot.scratch);
        // The MUX select lines are per-image randomness: derive them from
        // the image seed so batched execution stays schedule-independent.
        sc::Xoshiro256StarStar master(ctx.imageSeed ^ 0x9E3779B9ULL);

        for (int c = 0; c < geom_.channels; ++c) {
            for (int y = 0; y < geom_.outH; ++y) {
                for (int x = 0; x < geom_.outW; ++x) {
                    const std::size_t out_row =
                        (static_cast<std::size_t>(c) * geom_.outH + y) *
                            geom_.outW +
                        x;
                    // Top-left input pixel of the 2x2 window.
                    const std::size_t in_row =
                        (static_cast<std::size_t>(c) * geom_.inH + 2 * y) *
                            geom_.inW +
                        2 * x;
                    const std::uint64_t *rows[4];
                    for (int dy = 0; dy < 2; ++dy)
                        for (int dx = 0; dx < 2; ++dx)
                            rows[2 * dy + dx] =
                                in.row(in_row + dy * geom_.inW + dx);
                    // Position this pixel's select generator.  Full
                    // span: draw from the master directly — identical
                    // cost and draws to the one-pass loop.
                    sc::Xoshiro256StarStar *rng = &master;
                    if (!fullSpan) {
                        if (firstSpan && !ctx.deterministicSpans)
                            ws.rngs[out_row] = sc::Xoshiro256StarStar(
                                sc::deriveStreamSeed(
                                    ctx.imageSeed ^ 0x9E3779B9ULL,
                                    out_row + 1));
                        else if (firstSpan)
                            ws.rngs[out_row] = master; // offset p*N
                        rng = &ws.rngs[out_row];
                    }
                    // The output buffer is reused across images, so
                    // every covered word (tail bits included) is fully
                    // rewritten.
                    muxPoolWindow(rows, *rng, begin, end, out.row(out_row));
                    // Deterministic partial first span: skip the master
                    // past the draws this pixel would have consumed to
                    // the end of the stream, so the next pixel's snapshot
                    // lands at its one-pass offset.
                    if (firstSpan && !fullSpan && ctx.deterministicSpans) {
                        master = ws.rngs[out_row];
                        skipDraws(master, len - end);
                    }
                }
            }
        }
    }
}

} // namespace aqfpsc::core::stages
