#include "aqfp_output_stage.h"

#include <bit>
#include <cassert>
#include <span>

namespace aqfpsc::core::stages {

namespace {

std::uint64_t
majWord(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return (a & b) | (a & c) | (b & c);
}

} // namespace

std::string
AqfpOutputStage::name() const
{
    return "AqfpOutput " + shapeName(geom_);
}

std::unique_ptr<StageScratch>
AqfpOutputStage::makeScratch() const
{
    return std::make_unique<OnesScratch<std::size_t>>(
        static_cast<std::size_t>(geom_.outFeatures));
}

void
AqfpOutputStage::runCohortSpan(const CohortSlot *slots, std::size_t count,
                               std::size_t begin, std::size_t end) const
{
    const std::size_t len = streams().weights.streamLen();
    assert(begin % 64 == 0 && begin < end && end <= len);
    // Weight-row stride and tail-mask trigger come from the stage's own
    // streams — the input may carry a longer upstream stream.
    const std::size_t wpr = streams().weights.wordsPerRow();
    const std::size_t w0 = begin / 64;
    const std::size_t w1 = (end + 63) / 64;
    const std::uint64_t *neutral = streams().neutral.row(0);

    for (const CohortSlot &slot : std::span(slots, count)) {
        const sc::StreamMatrix &in = *slot.in;
        assert(static_cast<int>(in.rows()) == geom_.inFeatures);
        assert(in.streamLen() >= len); // prefix consumption
        StageContext &ctx = *slot.ctx;
        auto &ws = *static_cast<OnesScratch<std::size_t> *>(slot.scratch);
        if (begin == 0)
            ws.rearm();
        ctx.scores.assign(static_cast<std::size_t>(geom_.outFeatures), 0.0);

        for (int o = 0; o < geom_.outFeatures; ++o) {
            // Majority chain folded word-parallel over the product
            // streams (bias as the final product; neutral pad keeps the
            // chain's 2-per-stage consumption aligned).  Weight-row base
            // and bias row are loop-invariant per output class.
            const int k_total = geom_.inFeatures + 1;
            const std::uint64_t *bias =
                streams().biases.row(static_cast<std::size_t>(o));
            const std::uint64_t *wbase = streams().weights.row(
                static_cast<std::size_t>(o) * geom_.inFeatures);
            std::size_t ones = ws.ones[static_cast<std::size_t>(o)];
            for (std::size_t wi = w0; wi < w1; ++wi) {
                auto product = [&](int j) -> std::uint64_t {
                    if (j < geom_.inFeatures) {
                        return ~(in.row(static_cast<std::size_t>(j))[wi] ^
                                 wbase[static_cast<std::size_t>(j) * wpr +
                                       wi]);
                    }
                    if (j == geom_.inFeatures)
                        return bias[wi];
                    return neutral[wi]; // padding
                };
                std::uint64_t acc =
                    majWord(product(0), product(1), product(2));
                int j = 3;
                while (j < k_total) {
                    const std::uint64_t p1 = product(j);
                    const std::uint64_t p2 =
                        j + 1 < k_total ? product(j + 1) : neutral[wi];
                    acc = majWord(acc, p1, p2);
                    j += 2;
                }
                if (wi == wpr - 1)
                    acc &= lastWordMask(len);
                ones += static_cast<std::size_t>(std::popcount(acc));
            }
            ws.ones[static_cast<std::size_t>(o)] = ones;
            // Scores over the cycles consumed so far; at end == len this
            // is the full-stream bipolar value, bit-identical to one pass.
            ctx.scores[static_cast<std::size_t>(o)] =
                2.0 * static_cast<double>(ones) / static_cast<double>(end) -
                1.0;
        }
    }
}

} // namespace aqfpsc::core::stages
