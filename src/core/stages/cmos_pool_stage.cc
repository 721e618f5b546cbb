#include "cmos_pool_stage.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <span>

#include "sc/rng.h"
#include "sc/simd/simd.h"

namespace aqfpsc::core::stages {

namespace {

/**
 * Per-pixel MUX-select RNG positions, resumed across spans.
 *
 * The uninterrupted path consumes ONE per-image RNG pixel-major (pixel p
 * draws selects [p*N, (p+1)*N)), so checkpointed execution snapshots the
 * generator at every pixel's start offset on the first span and resumes
 * each snapshot as later spans arrive — the select draws are
 * bit-identical to one full span at any checkpoint granularity.
 */
struct CmosPoolScratch final : StageScratch
{
    explicit CmosPoolScratch(std::size_t rows) : rngs(rows) {}

    std::vector<sc::Xoshiro256StarStar> rngs;
};

/** Words of select draws per kernel call: a stack buffer of 2 x
 *  kXoshiroLanes x 16 words covers 1024 cycles a call. */
constexpr std::size_t kSelectWords = 16;

/**
 * Draw @p cycles MUX selects from every lane of @p gen, kSelectWords
 * words a kernel call, handing each call's select words to
 * @p consume(first_word, cycles, high, low): bit b of high[l][j] and
 * low[l][j] is the select of lane l's cycle 64 * (first_word + j) + b
 * relative to the first draw.
 */
template <typename Consume>
void
drawSelects(sc::simd::XoshiroLanes &gen, std::size_t cycles,
            Consume &&consume)
{
    const sc::simd::LaneMuxSelectsFn draw =
        sc::simd::kernels().laneMuxSelects;
    std::uint64_t high[sc::simd::kXoshiroLanes][kSelectWords];
    std::uint64_t low[sc::simd::kXoshiroLanes][kSelectWords];
    std::uint64_t *highs[sc::simd::kXoshiroLanes];
    std::uint64_t *lows[sc::simd::kXoshiroLanes];
    for (std::size_t l = 0; l < sc::simd::kXoshiroLanes; ++l) {
        highs[l] = high[l];
        lows[l] = low[l];
    }
    for (std::size_t done = 0; done < cycles; done += kSelectWords * 64) {
        const std::size_t n = std::min(kSelectWords * 64, cycles - done);
        draw(gen, highs, lows, n);
        consume(done / 64, n, high, low);
    }
}

/** Store lane @p l of @p gen into @p rng. */
void
storeLane(const sc::simd::XoshiroLanes &gen, std::size_t l,
          sc::Xoshiro256StarStar &rng)
{
    rng.setState({gen.s[0][l], gen.s[1][l], gen.s[2][l], gen.s[3][l]});
}

/** Load @p rng's state into lane @p l of @p gen. */
void
setLane(sc::simd::XoshiroLanes &gen, std::size_t l,
        const sc::Xoshiro256StarStar &rng)
{
    const std::array<std::uint64_t, 4> s = rng.state();
    for (std::size_t k = 0; k < 4; ++k)
        gen.s[k][l] = s[k];
}

} // namespace

void
muxPoolLanes(const std::uint64_t *const rows[][4],
             sc::simd::XoshiroLanes &gen, std::size_t begin,
             std::size_t end, std::uint64_t *const dst[])
{
    assert(begin % 64 == 0 && begin <= end);
    drawSelects(gen, end - begin, [&](std::size_t first_word, std::size_t n,
                                      auto high, auto low) {
        for (std::size_t l = 0; l < gen.lanes; ++l) {
            const std::uint64_t *const *r = rows[l];
            for (std::size_t j = 0; j * 64 < n; ++j) {
                const std::size_t w = begin / 64 + first_word + j;
                // sel = 2 * high + low picks rows[sel].
                const std::uint64_t lo = low[l][j];
                const std::uint64_t hi = high[l][j];
                const std::uint64_t top = (lo & r[1][w]) | (~lo & r[0][w]);
                const std::uint64_t bottom =
                    (lo & r[3][w]) | (~lo & r[2][w]);
                dst[l][w] = ((hi & bottom) | (~hi & top)) &
                            lastWordMask(std::min<std::size_t>(n - 64 * j, 64));
            }
        }
    });
}

std::string
CmosPoolStage::name() const
{
    return "CmosPool " + shapeName(geom_);
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
        assert(slot.in->streamLen() >= len);
        // The output buffer is reused across images, so every covered
        // word (tail bits included) is fully rewritten below.
        slot.out->reset(footprint().outputRows, len);
    }

    // The slots' select generators step side by side, kXoshiroLanes
    // images at a time: one kernel call draws a pixel's selects for
    // every image of the group.
    for (std::size_t first = 0; first < count;
         first += sc::simd::kXoshiroLanes) {
        const CohortSlot *group = slots + first;
        // The MUX select lines are per-image randomness: derive them from
        // the image seed so batched execution stays schedule-independent.
        sc::simd::XoshiroLanes master;
        master.lanes = std::min(sc::simd::kXoshiroLanes, count - first);
        for (std::size_t l = 0; l < master.lanes; ++l)
            setLane(master, l,
                    sc::Xoshiro256StarStar(group[l].ctx->imageSeed ^
                                           0x9E3779B9ULL));
        const auto scratch = [&](std::size_t l) -> CmosPoolScratch & {
            return *static_cast<CmosPoolScratch *>(group[l].scratch);
        };

        const std::uint64_t *rows[sc::simd::kXoshiroLanes][4];
        std::uint64_t *dst[sc::simd::kXoshiroLanes];
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
                    // Position each lane's select generator.  First
                    // span: the master, at this pixel's one-pass offset
                    // p*N; later spans: the pixel's stored snapshot.
                    sc::simd::XoshiroLanes gen = master;
                    for (std::size_t l = 0; l < gen.lanes; ++l) {
                        const CohortSlot &slot = group[l];
                        for (int k = 0; k < 4; ++k)
                            rows[l][k] = slot.in->row(
                                in_row + (k / 2) * geom_.inW + k % 2);
                        dst[l] = slot.out->row(out_row);
                        if (!firstSpan)
                            setLane(gen, l, scratch(l).rngs[out_row]);
                    }
                    muxPoolLanes(rows, gen, begin, end, dst);
                    if (fullSpan) {
                        master = gen;
                        continue;
                    }
                    for (std::size_t l = 0; l < gen.lanes; ++l)
                        storeLane(gen, l, scratch(l).rngs[out_row]);
                    // Partial first span: skip the master past the draws
                    // this pixel would have consumed to the end of the
                    // stream, so the next pixel's snapshot lands at its
                    // one-pass offset.
                    if (firstSpan) {
                        master = gen;
                        drawSelects(master, len - end, [](auto &&...) {});
                    }
                }
            }
        }
    }
}

} // namespace aqfpsc::core::stages
