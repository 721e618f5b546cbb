#include "aqfp_pool_stage.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "blocks/feedback_unit.h"
#include "core/backend_registry.h"

namespace aqfpsc::core::stages {

namespace {

const PoolStageRegistration kRegistration{
    "aqfp-sorter", [](const PoolGeometry &g, const EngineOptions &cfg) {
        return std::make_unique<AqfpPoolStage>(g, cfg.streamLen);
    }};

/** Per-output-pixel remainder count S mod 4, resumed across spans. */
struct PoolScratch final : StageScratch
{
    explicit PoolScratch(std::size_t rows) : carries(rows, 0) {}

    std::vector<int> carries;
};

} // namespace

std::string
AqfpPoolStage::name() const
{
    return "AqfpPool " + std::to_string(geom_.channels) + "x" +
           std::to_string(geom_.outH) + "x" + std::to_string(geom_.outW);
}

StageFootprint
AqfpPoolStage::footprint() const
{
    return {static_cast<std::size_t>(geom_.channels) * geom_.outH *
            geom_.outW};
}

std::unique_ptr<StageScratch>
AqfpPoolStage::makeScratch() const
{
    return std::make_unique<PoolScratch>(footprint().outputRows);
}

void
AqfpPoolStage::runCohortSpan(const CohortSlot *slots, std::size_t count,
                             std::size_t begin, std::size_t end) const
{
    // The stage runs at its own compiled length and consumes only the
    // prefix of a (possibly longer) upstream stream.
    const std::size_t len = streamLen_;
    assert(begin % 64 == 0 && begin < end && end <= len);
    const std::size_t w0 = begin / 64;
    const std::size_t cycles = end - begin;
    const std::size_t in_w = static_cast<std::size_t>(geom_.inW);

    for (const CohortSlot &slot : std::span(slots, count)) {
        const sc::StreamMatrix &in = *slot.in;
        assert(in.streamLen() >= len);
        sc::StreamMatrix &out = *slot.out;
        out.reset(footprint().outputRows, len);
        auto &ws = *static_cast<PoolScratch *>(slot.scratch);
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
                            in_w +
                        2 * x;
                    const std::uint64_t *a = in.row(in_row) + w0;
                    const std::uint64_t *b = in.row(in_row + 1) + w0;
                    const std::uint64_t *cc = in.row(in_row + in_w) + w0;
                    const std::uint64_t *d = in.row(in_row + in_w + 1) + w0;
                    std::uint64_t *dst = out.row(out_row) + w0;
                    int carry = begin == 0 ? 0 : ws.carries[out_row];
                    for (std::size_t w = 0; 64 * w < cycles; ++w)
                        dst[w] = blocks::poolWord4(
                            a[w], b[w], cc[w], d[w], carry,
                            static_cast<unsigned>(
                                std::min<std::size_t>(64, cycles - 64 * w)));
                    ws.carries[out_row] = carry;
                }
            }
        }
    }
}

} // namespace aqfpsc::core::stages
