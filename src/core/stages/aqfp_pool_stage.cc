#include "aqfp_pool_stage.h"

#include <cassert>
#include <span>

#include "blocks/feedback_unit.h"
#include "core/backend_registry.h"

namespace aqfpsc::core::stages {

namespace {

const PoolStageRegistration kRegistration{
    "aqfp-sorter", [](const PoolGeometry &g, const ScEngineConfig &cfg) {
        return std::make_unique<AqfpPoolStage>(g, cfg.streamLen);
    }};

/** 2x2 window counter + pooling feedback unit reused across pixels. */
struct PoolScratch final : StageScratch
{
    PoolScratch(std::size_t len, std::size_t rows)
        : counts(len, 4), unit(4), carries(rows, 0)
    {
    }

    sc::ColumnCounts counts;
    blocks::PoolingFeedbackUnit unit;
    /** Per-output-pixel remainder count, resumed across spans. */
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
    return std::make_unique<PoolScratch>(streamLen_,
                                         footprint().outputRows);
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
    const std::size_t sw = (end - begin + 63) / 64;

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
                            geom_.inW +
                        2 * x;
                    ws.counts.clear();
                    for (int dy = 0; dy < 2; ++dy) {
                        for (int dx = 0; dx < 2; ++dx) {
                            ws.counts.addWords(
                                in.row(in_row + dy * geom_.inW + dx) + w0,
                                sw);
                        }
                    }
                    if (begin == 0)
                        ws.unit.reset();
                    else
                        ws.unit.restore(4, ws.carries[out_row]);
                    ws.counts.drivePrefix(
                        end - begin,
                        [&](int cnt) { return ws.unit.step(cnt); },
                        out.row(out_row) + w0);
                    ws.carries[out_row] = ws.unit.carry();
                }
            }
        }
    }
}

} // namespace aqfpsc::core::stages
