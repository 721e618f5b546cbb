/**
 * @file
 * PrecisionTuner: accuracy-targeted search over per-stage stream lengths.
 *
 * The SC stream-length trade-off (error ~ 1/sqrt(N), latency ~ N) is a
 * per-stage knob once the ExecutionPlan carries a length vector
 * (EngineOptions::stageStreamLens): early feature-extraction stages
 * tolerate far shorter streams than the terminal categorization stage.
 * The tuner automates the search: starting from the uniform vector of
 * the session's streamLen, a coordinate-descent loop repeatedly tries to
 * halve one stage's length (capping every downstream entry to keep the
 * vector non-increasing, as the prefix-consumption contract requires),
 * keeps the move when calibration accuracy stays within the caller's
 * budget, and stops after a full pass with no accepted move (or
 * TuneOptions::maxPasses).  Halving a word-aligned length preserves
 * word alignment down to the 64-cycle floor, so every candidate is a
 * valid EngineOptions::stageStreamLens value.
 *
 * Candidate evaluation compiles a throwaway engine per vector; the
 * process-wide core::PlanCache interns each stage's weight streams by
 * (spec, length), so candidates sharing stage lengths — which
 * coordinate descent produces constantly — reuse each other's streams
 * and candidate compiles stay cheap.
 *
 * Determinism: with a fixed calibration set the search is a pure
 * function of (network, options, TuneOptions) — evaluation is the
 * bit-deterministic engine path, so the same inputs always return the
 * same vector.
 *
 * Entry points: PrecisionTuner::tune() here, InferenceSession::tune()
 * as the session-level convenience, and the CLI `tune` subcommand.
 */

#ifndef AQFPSC_CORE_PRECISION_TUNER_H
#define AQFPSC_CORE_PRECISION_TUNER_H

#include <cstddef>
#include <string>
#include <vector>

#include "core/session.h"
#include "nn/network.h"

namespace aqfpsc::core {

/** Search budget and acceptance policy of a tuner run. */
struct TuneOptions
{
    /**
     * Largest tolerated calibration-accuracy drop versus the uniform
     * baseline, as a fraction (0.005 = 0.5 percentage points).  A move
     * that drops accuracy further is rejected and the stage keeps its
     * previous length.
     */
    double maxAccuracyDrop = 0.005;

    /** Shortest length the search will assign any stage (clamped to a
     *  positive multiple of 64, the word-aligned floor). */
    std::size_t minStageLen = 64;

    /** Upper bound on full coordinate-descent passes; the search also
     *  stops at the first pass with no accepted move. */
    int maxPasses = 8;

    /** Calibration prefix to evaluate per candidate (-1 = all). */
    int limit = -1;

    /** Print per-move progress lines to stdout. */
    bool verbose = false;

    /** All option errors, each actionable; empty means valid. */
    std::vector<std::string> validate() const;
};

/** Outcome of a tuner run.  Accuracies are fractions in [0, 1]. */
struct TuneResult
{
    /** The tuned per-stage length vector (word-aligned,
     *  non-increasing); feed it to EngineOptions::stageStreamLens. */
    std::vector<std::size_t> stageStreamLens;
    /** The uniform starting vector the search descended from. */
    std::vector<std::size_t> baselineStageStreamLens;
    double baselineAccuracy = 0.0; ///< uniform baseline on calibration
    double tunedAccuracy = 0.0;    ///< tuned vector on calibration
    double baselineImagesPerSec = 0.0;
    double tunedImagesPerSec = 0.0;
    /** tunedImagesPerSec / baselineImagesPerSec (1.0 when unmeasured). */
    double speedup = 1.0;
    std::size_t evaluations = 0; ///< candidate engines evaluated
    int passes = 0;              ///< coordinate-descent passes completed
};

/**
 * The coordinate-descent searcher.  Borrows the network (the caller —
 * typically an InferenceSession — must keep it alive for the tuner's
 * lifetime) and copies the options; tune() is const and
 * thread-compatible (distinct tuners may run concurrently — they share
 * only the thread-safe PlanCache).
 */
class PrecisionTuner
{
  public:
    /** @throws std::invalid_argument on invalid @p opts (the same
     *  validation InferenceSession applies). */
    PrecisionTuner(const nn::Network &net, EngineOptions opts);

    /**
     * Run the search on @p calibration and return the fastest vector
     * found within the accuracy budget (plus the measurements the
     * decision was based on).
     * @throws std::invalid_argument on empty calibration sets or
     *         invalid @p topts.
     */
    TuneResult tune(const std::vector<nn::Sample> &calibration,
                    const TuneOptions &topts = {}) const;

  private:
    const nn::Network &net_;
    EngineOptions opts_;
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_PRECISION_TUNER_H
