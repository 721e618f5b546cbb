/**
 * @file
 * Polymorphic stage interface of the SC inference stage graph.
 *
 * A compiled network is a linear graph of ScStage nodes.  Every stage
 * consumes a StreamMatrix of packed stochastic streams (one row per
 * neuron/pixel of the previous stage) and produces the next one; the
 * terminal (categorization) stage instead writes per-class scores into
 * the StageContext.
 *
 * Stages are immutable after compilation: execution is const and keeps
 * all mutable per-image state either on the stack or in a caller-owned
 * StageScratch, so one stage graph can execute many images concurrently
 * from different threads (see core::BatchRunner).  All per-image
 * randomness derives from StageContext::imageSeed, which makes results a
 * pure function of (network, config, image, image index) regardless of
 * thread schedule.
 *
 * One execution entry point, all per-image state in caller-owned
 * scratch: runCohortSpan(slots, count, begin, end) processes stream
 * cycles [begin, end) of count images in one stage dispatch, so
 * weight streams are traversed once per cohort instead of once per
 * image.  A single image is a cohort of one and a full-length run is the
 * span [0, N); resumable stages additionally accept 64-cycle-aligned
 * partial spans and resume per-image state across them (adaptive early
 * exit).  The stage reshapes each slot's output (a reusable arena buffer
 * that only ever grows) and draws all state from the StageScratch it
 * built once via makeScratch(), so steady-state inference through a
 * core::CohortWorkspace performs no heap allocation here.
 */

#ifndef AQFPSC_CORE_STAGES_STAGE_H
#define AQFPSC_CORE_STAGES_STAGE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sc/stream_matrix.h"

namespace aqfpsc::nn {
class Tensor;
} // namespace aqfpsc::nn

namespace aqfpsc::core {

namespace stages {
struct StageShared;
} // namespace stages

/** Gap between the largest and second-largest score (0 if fewer than
 *  two) — the raw confidence quantity every ScStage::scoreMargin
 *  normalizes into [0, 1]. */
double scoreTopTwoGap(const std::vector<double> &scores);

/** Per-image state threaded through one stage-graph execution. */
struct StageContext
{
    /** Deterministic per-image seed (sc::deriveStreamSeed of engine seed). */
    std::uint64_t imageSeed = 0;

    /** Per-class scores; written by the terminal stage. */
    std::vector<double> scores;

    /** The raw input image; always set by the engine.  Value-domain
     *  backends ("float-ref") read it instead of the input streams. */
    const nn::Tensor *image = nullptr;

    /** Value-domain side channel: float stages pass activations here and
     *  return empty stream matrices.  Empty means "not started". */
    std::vector<float> values;

    /**
     * Unused: no stage reads it, since every span decomposition replays
     * the draws of one full span.  The repository benchmark
     * (perfbench/scbench.cc) still assigns it; the ROADMAP item "Next
     * benchmark change" drops that write, and then this field goes.
     */
    bool deterministicSpans = true;
};

/**
 * Opaque per-thread mutable state of one stage (column counters,
 * feedback units, ...), built once by ScStage::makeScratch() and reused
 * across images so the inference inner loop never allocates.  A scratch
 * object may only be passed back to the stage that created it, and to
 * one stage execution at a time.
 */
class StageScratch
{
  public:
    virtual ~StageScratch() = default;
};

/**
 * Compile-time resource declaration of one stage, used by the execution
 * plan to pre-size the workspace arena buffers before the first image
 * runs.
 */
struct StageFootprint
{
    /** Rows runCohortSpan() writes per slot (0 = terminal /
     *  value-domain). */
    std::size_t outputRows = 0;
};

/**
 * Upper bound on the images one cohort may execute together
 * (EngineOptions::cohort, CohortWorkspace capacity).  Keeps the
 * per-cohort pointer tables of the interleaved kernel cores stack-sized;
 * larger batches are simply executed as several cohorts.
 */
inline constexpr std::size_t kMaxCohortImages = 64;

/**
 * One image's execution slot within a cohort: the per-image buffers and
 * state a stage needs to process that image's span (see
 * ScStage::runCohortSpan for the @c in / @c out contract).  @c scratch
 * must come from this stage's makeScratch() and belong to this slot
 * alone.
 */
struct CohortSlot
{
    const sc::StreamMatrix *in = nullptr;
    sc::StreamMatrix *out = nullptr;
    StageContext *ctx = nullptr;
    StageScratch *scratch = nullptr;
};

/** One node of the compiled SC pipeline. */
class ScStage
{
  public:
    virtual ~ScStage() = default;

    /** Stage name for reports/debugging, e.g. "AqfpConv 8x28x28". */
    virtual std::string name() const = 0;

    /** True for the terminal stage (writes scores, returns no streams). */
    virtual bool terminal() const { return false; }

    /** Declared output/scratch footprint (defaults to "no streams"). */
    virtual StageFootprint footprint() const { return {}; }

    /**
     * The immutable compile product this stage references (its
     * parameter streams and operand plan), or nullptr for stages
     * without one (pooling, value-domain reference).  Engines that
     * share one interned plan (core::PlanCache) share these objects;
     * cache statistics sum their bytes.
     */
    virtual const stages::StageShared *sharedState() const
    {
        return nullptr;
    }

    /**
     * Build this stage's reusable scratch state (may be null for stages
     * that need none).  Called once per worker thread at workspace
     * construction, never on the per-image path.
     */
    virtual std::unique_ptr<StageScratch> makeScratch() const
    {
        return nullptr;
    }

    /**
     * True when this stage accepts partial spans (see runCohortSpan), i.e.
     * can execute a stream in 64-cycle-aligned blocks with per-image state
     * resumed across blocks.  An early-exit policy requires every stage
     * of the graph to be resumable; any stage runs the full span.
     */
    virtual bool resumable() const { return false; }

    /**
     * Stage-major execution: process input cycles [@p begin, @p end) of
     * @p count images in one dispatch, writing the same cycle range of
     * each slot's output streams (only the covered words of @c out are
     * touched; @p begin must be 64-aligned).  @p end never exceeds the
     * stage's own stream length; the input may carry a longer upstream
     * stream, of which the stage reads only the prefix.
     *
     * Per-image sequential state (feedback-vector counts, activation
     * counters, score accumulators, per-pixel RNG positions) lives in
     * each slot's scratch: a call with begin == 0 re-arms it for a new
     * image and reshapes @c out; later calls resume it, so that covering
     * [0, N) with any sequence of adjacent spans is bit-identical to one
     * full span.  Within one image, spans must be executed in order and
     * without gaps.  Terminal stages update ctx.scores to the
     * scores over cycles [0, @p end) and write no output streams.
     * Non-resumable stages are only ever called with the full span.
     *
     * Results are per slot: cohort size never changes them, only how
     * often shared weight streams are traversed.  Thread-safe across
     * distinct (out, scratch) pairs.
     */
    virtual void runCohortSpan(const CohortSlot *slots, std::size_t count,
                               std::size_t begin, std::size_t end) const = 0;

    /**
     * Terminal stages: normalized confidence margin of the scores
     * currently in @p ctx, computed over the first @p cycles cycles of
     * stream.  Returns (top-1 − top-2) mapped to [0, 1] in the backend's
     * own score scale, comparable across checkpoints of one execution;
     * 0 when fewer than two classes.  The default implementation assumes
     * scores in [−1, 1] (bipolar stream values, the AQFP convention) and
     * returns half the top-2 gap; backends with other score scales
     * override it.
     */
    virtual double scoreMargin(const StageContext &ctx,
                               std::size_t cycles) const;
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_STAGES_STAGE_H
