/**
 * @file
 * Batched, thread-parallel SC inference over one compiled engine.
 *
 * The stage graph is immutable after compilation, so a batch of images
 * fans out across a pool of std::threads that pull *cohorts* — ranges
 * of consecutive image indices — from a shared atomic counter and push
 * each cohort through the stage-major execution path
 * (ScNetworkEngine::inferCohort).  Image i always runs with the seed
 * sc::deriveStreamSeed(engine seed, i), so predictions are bit-identical
 * for any thread count (1, 2, 8, ...), any cohort size and any
 * work-stealing schedule — parallelism and cohort batching change
 * wall-clock time only, never results.
 */

#ifndef AQFPSC_CORE_BATCH_RUNNER_H
#define AQFPSC_CORE_BATCH_RUNNER_H

#include <vector>

#include "core/sc_engine.h"
#include "nn/network.h"

namespace aqfpsc::core {

class CohortWorkspace;

/** Fans a batch of images across a thread pool of SC inferences. */
class BatchRunner
{
  public:
    /**
     * @param engine Compiled engine; must outlive the runner.
     * @param threads Worker count; 0 selects one per hardware thread,
     *        values are clamped to [1, 256].
     * @param cohort Images per stage-major execution cohort; clamped to
     *        [1, kMaxCohortImages].
     */
    explicit BatchRunner(const ScNetworkEngine &engine, int threads = 0,
                         int cohort = 1);

    /** Resolved worker count. */
    int threads() const { return threads_; }

    /** Resolved cohort size. */
    int cohort() const { return cohort_; }

    /**
     * Predict the first @p limit samples (all if negative).
     * @param progress Thread-safe: print a dot every 10 completed images.
     * @return One prediction per image, in sample order.
     */
    std::vector<ScPrediction> run(const std::vector<nn::Sample> &samples,
                                  int limit = -1,
                                  bool progress = false) const;

    /**
     * Predict and score the first @p limit samples (all if negative),
     * timing the batch.  With @p progress, prints dots while running and
     * a final "accuracy ... (n images, ... img/s, T threads)" line.
     */
    ScEvalStats evaluate(const std::vector<nn::Sample> &samples,
                         int limit = -1, bool progress = false) const;

    /**
     * run() with per-image adaptive early exit under @p policy: a cohort
     * compacts in place as its images clear the margin, and cohorts
     * consume different amounts of work, which the atomic work-stealing
     * index absorbs naturally (an idle worker just pulls the next
     * cohort).  Deterministic policies keep every prediction bit-
     * identical for any thread count and cohort size, exactly like
     * run().
     */
    std::vector<AdaptivePrediction>
    runAdaptive(const std::vector<nn::Sample> &samples,
                const AdaptivePolicy &policy, int limit = -1,
                bool progress = false) const;

    /** evaluate() over runAdaptive(): accuracy/timing plus mean consumed
     *  cycles and the early-exit count. */
    AdaptiveEvalStats
    evaluateAdaptive(const std::vector<nn::Sample> &samples,
                     const AdaptivePolicy &policy, int limit = -1,
                     bool progress = false) const;

  private:
    /**
     * The shared worker pool: one CohortWorkspace per worker, checked out
     * of the engine's idle pool (ScNetworkEngine::acquireWorkspace) and
     * returned after the call, cohorts of consecutive image indices
     * pulled from an atomic index, first exception captured and rethrown
     * after the join.  fn(workspace, base, count) runs once per cohort
     * with [base, base + count) image indices.
     */
    template <typename Fn>
    void forEachCohort(std::size_t n, bool progress, const Fn &fn) const;

    const ScNetworkEngine &engine_;
    int threads_;
    int cohort_;
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_BATCH_RUNNER_H
