#include "cmos_output_stage.h"

#include <bit>
#include <cassert>
#include <span>

namespace aqfpsc::core::stages {

std::string
CmosOutputStage::name() const
{
    return "CmosOutput " + shapeName(geom_);
}

std::unique_ptr<StageScratch>
CmosOutputStage::makeScratch() const
{
    return std::make_unique<OnesScratch<long long>>(
        static_cast<std::size_t>(geom_.outFeatures));
}

void
CmosOutputStage::runCohortSpan(const CohortSlot *slots, std::size_t count,
                               std::size_t begin, std::size_t end) const
{
    const std::size_t len = streams().weights.streamLen();
    assert(begin % 64 == 0 && begin < end && end <= len);
    // Tail-mask trigger from the stage's own streams — the input may
    // carry a longer upstream stream whose extra words we never read.
    const std::size_t wpr = streams().weights.wordsPerRow();
    const std::size_t w0 = begin / 64;
    const std::size_t w1 = (end + 63) / 64;

    for (const CohortSlot &slot : std::span(slots, count)) {
        const sc::StreamMatrix &in = *slot.in;
        assert(static_cast<int>(in.rows()) == geom_.inFeatures);
        assert(in.streamLen() >= len); // prefix consumption
        StageContext &ctx = *slot.ctx;
        auto &ws = *static_cast<OnesScratch<long long> *>(slot.scratch);
        if (begin == 0)
            ws.rearm();
        ctx.scores.assign(static_cast<std::size_t>(geom_.outFeatures), 0.0);

        for (int o = 0; o < geom_.outFeatures; ++o) {
            // APC counts accumulated into an exact binary score.
            long long ones = ws.ones[static_cast<std::size_t>(o)];
            for (int j = 0; j < geom_.inFeatures; ++j) {
                const std::uint64_t *xr = in.row(static_cast<std::size_t>(j));
                const std::uint64_t *wr = streams().weights.row(
                    static_cast<std::size_t>(o) * geom_.inFeatures + j);
                for (std::size_t wi = w0; wi < w1; ++wi) {
                    std::uint64_t p = ~(xr[wi] ^ wr[wi]);
                    if (wi == wpr - 1)
                        p &= lastWordMask(len);
                    ones += std::popcount(p);
                }
            }
            // The bias stream's tail bits beyond streamLen() are zero, so
            // per-span word popcounts sum to countOnes() at end == len.
            const std::uint64_t *br =
                streams().biases.row(static_cast<std::size_t>(o));
            for (std::size_t wi = w0; wi < w1; ++wi)
                ones += std::popcount(br[wi]);
            ws.ones[static_cast<std::size_t>(o)] = ones;
            ctx.scores[static_cast<std::size_t>(o)] =
                static_cast<double>(ones);
        }
    }
}

double
CmosOutputStage::scoreMargin(const StageContext &ctx,
                             std::size_t cycles) const
{
    if (cycles == 0)
        return 0.0;
    // Scores are raw ones counts in [0, (inFeatures + 1) * cycles]:
    // normalize the gap to the per-cycle full-scale range, mapping to
    // [0, 1] like the bipolar backends' margins.
    const double scale =
        static_cast<double>(geom_.inFeatures + 1) *
        static_cast<double>(cycles);
    return scoreTopTwoGap(ctx.scores) / scale;
}

} // namespace aqfpsc::core::stages
