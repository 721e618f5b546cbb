/**
 * @file
 * Per-thread inference arena: all mutable buffers a worker needs to push
 * images through a compiled stage graph without allocating.
 *
 * The arena is sized up front from the engine's ExecutionPlan (the
 * graph-level buffer plan compileNetwork emits): each of its capacity()
 * image slots owns
 *
 *  - the SNG-encoded input stream matrix,
 *  - two ping-pong activation StreamMatrix buffers (stage s reads what
 *    stage s-1 wrote and overwrites the other buffer; rows come from the
 *    plan's per-parity high-water marks, so even the first image
 *    allocates nothing for them),
 *  - one StageScratch per stage (column counters, feedback units, ...),
 *  - a reusable StageContext,
 *
 * plus the slot-view table the engine's one execution loop
 * (ScNetworkEngine::inferAdaptiveCohort) threads through
 * ScStage::runCohortSpan.  A single image is a cohort of one:
 * StageWorkspace is the one-slot CohortWorkspace of the per-image entry
 * points.
 *
 * Thread safety: an arena is NOT thread-safe — one arena per worker
 * thread (core::BatchRunner and the serving workers construct exactly
 * that), at most one inference/cohort through it at a time.  Distinct
 * arenas of one engine run concurrently without restriction.
 *
 * Determinism: results never depend on arena reuse, on which arena
 * served an image, or on which slot of a cohort an image occupied —
 * every row of every buffer (and every per-stage scratch) is fully
 * overwritten or re-armed before it is read, for full-stream,
 * checkpointed (adaptive) and cohort execution alike.
 */

#ifndef AQFPSC_CORE_WORKSPACE_H
#define AQFPSC_CORE_WORKSPACE_H

#include <memory>
#include <vector>

#include "core/stages/stage.h"
#include "sc/stream_matrix.h"

namespace aqfpsc::core {

class ScNetworkEngine;

/**
 * Per-worker arena of stage-major cohort execution: capacity() image
 * slots, each with its own input, ping-pong buffers, per-stage scratch
 * and context, built once from the execution plan.
 */
class CohortWorkspace
{
  public:
    /**
     * @param engine Must outlive the workspace.
     * @param capacity Image slots, clamped to [1, kMaxCohortImages].
     */
    explicit CohortWorkspace(const ScNetworkEngine &engine,
                             std::size_t capacity = 1);

    CohortWorkspace(const CohortWorkspace &) = delete;
    CohortWorkspace &operator=(const CohortWorkspace &) = delete;

    /** The engine this workspace serves. */
    const ScNetworkEngine &engine() const { return engine_; }

    /** Largest cohort one engine call may execute. */
    std::size_t capacity() const { return slots_.size(); }

  private:
    friend class ScNetworkEngine;

    /** One image's buffers and state. */
    struct Slot
    {
        sc::StreamMatrix input;
        sc::StreamMatrix pingPong[2];
        std::vector<std::unique_ptr<StageScratch>> scratch; ///< per stage
        StageContext ctx;
    };

    const ScNetworkEngine &engine_;
    std::vector<Slot> slots_;
    /** Per-stage slot views, rebuilt per dispatch (capacity() entries). */
    std::vector<CohortSlot> views_;
    /** Slot indices still running (retired images are compacted out). */
    std::vector<std::size_t> active_;
};

/** The single-image arena: a CohortWorkspace of one slot. */
using StageWorkspace = CohortWorkspace;

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_WORKSPACE_H
