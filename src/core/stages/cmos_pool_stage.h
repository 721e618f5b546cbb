/**
 * @file
 * 2x2 average pooling on the CMOS SC-DCNN baseline: a 4-to-1 MUX selects
 * a random pooled input every cycle.
 *
 * Each image draws its selects from its own generator, so a cohort's
 * generators are independent: the stage steps them side by side, one
 * image per SIMD lane (sc::simd::KernelTable::laneMuxSelects), and turns
 * each word's 64 select pairs into a word-wide 4:1 MUX.
 */

#ifndef AQFPSC_CORE_STAGES_CMOS_POOL_STAGE_H
#define AQFPSC_CORE_STAGES_CMOS_POOL_STAGE_H

#include <cstddef>
#include <cstdint>

#include "sc/simd/simd.h"
#include "stage.h"
#include "stage_common.h"

namespace aqfpsc::core::stages {

/**
 * MUX cycles [begin, end) (begin word-aligned) of one pooling window
 * per lane of @p gen: lane l's four input rows rows[l] into dst[l].
 * Each cycle's select is the top two bits of lane l's next draw, the
 * draws per-cycle nextBits(2) calls would consume in the same order.
 * The lanes' generators step side by side
 * (sc::simd::KernelTable::laneMuxSelects) and are left after their last
 * draw.  Every covered word is fully rewritten, its bits past @p end
 * zero.
 */
void muxPoolLanes(const std::uint64_t *const rows[][4],
                  sc::simd::XoshiroLanes &gen, std::size_t begin,
                  std::size_t end, std::uint64_t *const dst[]);

/** Random-select MUX 2x2 average pooling. */
class CmosPoolStage final : public ScStage
{
  public:
    /** @param stream_len The stage's compiled stream length (the MUX
     *  output length; inputs may carry longer upstream streams). */
    CmosPoolStage(const PoolGeometry &geom, std::size_t stream_len)
        : geom_(geom), streamLen_(stream_len)
    {
    }

    std::string name() const override;

    StageFootprint footprint() const override;

    std::unique_ptr<StageScratch> makeScratch() const override;

    bool resumable() const override { return true; }

    void runCohortSpan(const CohortSlot *slots, std::size_t count,
                       std::size_t begin, std::size_t end) const override;

  private:
    PoolGeometry geom_;
    std::size_t streamLen_;
};

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_CMOS_POOL_STAGE_H
