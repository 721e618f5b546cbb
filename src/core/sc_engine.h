/**
 * @file
 * Whole-network stochastic-computing inference engine.
 *
 * Compiles a trained nn::Network into a graph of polymorphic ScStage
 * nodes (see core/stages/) and runs inference entirely in the bipolar
 * stream domain:
 *
 *  - AqfpSorter backend (the paper's proposal): Conv / hidden-FC layers
 *    execute as sorter-based feature-extraction blocks (Algorithm 1,
 *    counter form), pooling as the sorter-based average-pooling block
 *    (Algorithm 2), and the output layer as majority-chain categorization
 *    blocks;
 *  - CmosApc backend (prior art, SC-DCNN): Conv / hidden-FC layers feed
 *    each cycle's exact parallel-counter (APC) count to a Btanh
 *    activation counter, pooling uses the random-select MUX, and the
 *    output layer accumulates exact APC counts into binary scores.
 *
 * Weight streams are generated once at engine construction (weights are
 * hardwired on chip and converted through SNGs continuously; re-drawing
 * them per image only adds Monte-Carlo noise), input streams per image.
 *
 * The compiled stage graph is immutable, so one engine can serve many
 * images concurrently; batched multi-threaded inference lives in
 * core::BatchRunner, which evaluate() delegates to.  Each image's
 * randomness derives from seed XOR image-index, making every prediction
 * independent of batch size and thread count.
 *
 * Every entry point runs through one execution loop,
 * inferAdaptiveCohort(): a cohort of images advances through the stage
 * graph in checkpoint blocks of stream cycles.  A single image is a
 * cohort of one, and non-adaptive inference is the never-exit policy
 * (AdaptivePolicy::neverExit) in one block covering the whole stream.
 */

#ifndef AQFPSC_CORE_SC_ENGINE_H
#define AQFPSC_CORE_SC_ENGINE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "nn/network.h"
#include "sc/sng.h"

namespace aqfpsc::core {

class ScStage;
class CohortWorkspace;
using StageWorkspace = CohortWorkspace;

namespace stages {
struct ExecutionPlan;
} // namespace stages

/**
 * Per-call options of one batched evaluation.  The worker count defaults
 * to the engine's config().threads — one source of truth — and can be
 * overridden per call (benches comparing thread counts on one compiled
 * engine).
 */
struct EvalOptions
{
    int limit = -1;       ///< evaluate only the first limit samples (<0 = all)
    int threads = -1;     ///< <0 = config().threads, 0 = one per hw thread
    bool progress = false; ///< thread-safe dots + final summary line
    int cohort = -1;       ///< images per cohort; <=0 = config().cohort
};

/** Per-class SC scores plus the argmax prediction. */
struct ScPrediction
{
    int label = 0;
    std::vector<double> scores;
};

/**
 * Confidence-based progressive-precision (early-exit) policy.
 *
 * The SC stream length trades accuracy/energy for latency; most images
 * are classified correctly long before the full stream is consumed.
 * Adaptive inference executes the stage graph in checkpointCycles-sized
 * blocks and, after each checkpoint, exits as soon as the terminal
 * stage's normalized top-1 margin (ScStage::scoreMargin, in [0, 1])
 * reaches exitMargin — the remaining stream cycles are never computed.
 *
 * exitMargin = 0 exits at the first eligible checkpoint;
 * infinity() never exits — the non-adaptive path is exactly that policy
 * (see neverExit()), so checkpointed execution is bit-exact against it.
 *
 * The margin estimated after n cycles carries O(1/sqrt(n)) SC noise, so
 * a bare threshold misfires at the earliest checkpoints; the minCycles
 * floor suppresses that wrong-exit tail at almost no mean-cycle cost.
 * The defaults below were tuned on the trained tiny model at N = 1024
 * (bench_adaptive_serving: ~2.3x mean-cycle reduction at unchanged
 * accuracy); both knobs are model- and stream-length-dependent.
 */
struct AdaptivePolicy
{
    /**
     * Cycles per checkpoint block; must be a positive multiple of 64
     * (the packed-stream word size — spans are word-aligned so the
     * incremental kernels never split a word).  Values >= streamLen
     * degenerate to a single block covering the stream.
     */
    std::size_t checkpointCycles = 64;

    /** Normalized margin in [0, 1] at which an image may exit early. */
    double exitMargin = 0.125;

    /** No exit before this many cycles (rounded up to a checkpoint);
     *  0 = may exit at the first checkpoint. */
    std::size_t minCycles = 320;

    /** Violations of the constraints above; empty means valid. */
    std::vector<std::string> validate() const;

    /**
     * The never-exit policy of full-length inference: exitMargin =
     * infinity, blocks of @p checkpoint_cycles (a positive multiple of
     * 64).  The default, the largest multiple of 64, is one block
     * covering any stream — what non-adaptive inference runs; serving
     * passes a finite block so a RunControl can stop the run between
     * blocks.
     */
    static AdaptivePolicy neverExit(std::size_t checkpoint_cycles =
                                        ~std::size_t{63});
};

/**
 * The engine's configuration.  Every compile (ScNetworkEngine,
 * stages::compileNetwork, InferenceSession) rejects options for which
 * validate() reports an error, before any stage is built.  The one
 * source of truth for worker threads: engines compile with threads and
 * evaluate() uses it unless an EvalOptions override asks otherwise.
 */
struct EngineOptions
{
    std::string backend = "aqfp-sorter"; ///< BackendRegistry name
    std::size_t streamLen = 1024;        ///< stochastic stream length N
    /**
     * Per-stage stream lengths (mixed stream-length precision).  Empty
     * (the default) means uniform at streamLen, bit-identical to the
     * scalar config.  A non-empty vector has one entry per compiled
     * stage in execution order (checked at compile time, when the
     * network is known), every entry a positive multiple of 64
     * (word-aligned spans), and is non-increasing along the graph: each
     * stage consumes the prefix of a longer upstream stream.  Stage s
     * generates its weight/bias streams at, and executes exactly,
     * stageStreamLens[s] cycles; the input encoding runs at entry 0.
     * Produced by core::PrecisionTuner / InferenceSession::tune(), or
     * set by hand (CLI --stage-lens).
     */
    std::vector<std::size_t> stageStreamLens;
    int rngBits = 10;                    ///< SNG code width
    std::uint64_t seed = 123;            ///< randomness seed
    int threads = 1;                     ///< workers (0 = one per hw thread)
    /** Images per stage-major execution cohort: each worker pushes up to
     *  this many images through every stage together, so weight streams
     *  are traversed once per cohort.  Bit-identical results at any
     *  value. */
    int cohort = 1;
    /** Early-exit policy of the session's adaptive entry points
     *  (inferAdaptive/evaluateAdaptive); non-adaptive calls ignore it.
     *  Validated with the rest. */
    AdaptivePolicy adaptive;

    /** Hard bounds validate() enforces. */
    static constexpr std::size_t kMinStreamLen = 8;
    static constexpr std::size_t kMaxStreamLen = std::size_t{1} << 22;
    static constexpr int kMaxRngBits = sc::kMaxSngBits;
    static constexpr int kMaxThreads = 256; ///< BatchRunner's clamp
    static constexpr int kMaxCohort = 64;   ///< == stages' kMaxCohortImages

    /**
     * All configuration errors, each one actionable; empty means valid.
     * Unknown backends list the registered names; numeric violations
     * say which bound was broken and why it exists.
     */
    std::vector<std::string> validate() const;

    /** @throws std::invalid_argument joining validate() errors. */
    void validateOrThrow() const;
};

/**
 * The engine configuration's former name, which the repository
 * benchmark (perfbench/scbench.cc) still spells.  The ROADMAP item
 * "Next benchmark change" drops that use; then this alias goes.
 */
using ScEngineConfig = EngineOptions;

/** One adaptive inference: the prediction plus how it terminated. */
struct AdaptivePrediction
{
    /** Scores over the consumed cycles (the full-stream scores when the
     *  image did not exit early). */
    ScPrediction prediction;
    std::size_t consumedCycles = 0; ///< stream cycles actually executed
    std::size_t checkpoints = 0;    ///< margin evaluations performed
    bool exitedEarly = false;       ///< stopped before the full length
};


/** Timing/accuracy summary of one batched evaluation. */
struct ScEvalStats
{
    double accuracy = 0.0;     ///< fraction of correct argmax labels
    std::size_t images = 0;    ///< images evaluated
    double wallSeconds = 0.0;  ///< wall-clock time of the batch
    double imagesPerSec = 0.0; ///< throughput
};

/** ScEvalStats of an adaptive batch plus early-exit accounting. */
struct AdaptiveEvalStats
{
    ScEvalStats stats;              ///< accuracy / wall time / throughput
    double avgConsumedCycles = 0.0; ///< mean cycles per image
    std::size_t earlyExits = 0;     ///< images that exited early
};

/**
 * SC-domain executor for one trained network.
 *
 * The source network must follow the mappable pattern: every Conv2D and
 * every hidden Dense immediately followed by HardTanh/SorterTanh,
 * AvgPool2 between feature stages, and a final Dense (or
 * MajorityChainDense) with no activation.
 */
class ScNetworkEngine
{
  public:
    /**
     * Compile the stage graph and pre-generate all weight streams.
     * @param net Trained network (weights are read, not copied).
     * @param cfg Engine configuration.
     * @throws std::invalid_argument when @p cfg fails validate() or
     *         @p net cannot be compiled for its backend.
     */
    ScNetworkEngine(const nn::Network &net, const EngineOptions &cfg);

    /** Out-of-line: ScStage is incomplete at this point. */
    ~ScNetworkEngine();

    /**
     * Run one image through the SC pipeline with the engine seed
     * (identical to inferIndexed(image, 0)).  Thread-safe.
     */
    ScPrediction infer(const nn::Tensor &image) const;

    /**
     * Run one image with the per-image seed derived for batch position
     * @p index (seed XOR index), so batched evaluation is a pure
     * function of the image index.  Thread-safe.  Convenience form: a
     * transient StageWorkspace is built per call; loops should hold a
     * workspace and use the overload below.
     * @throws std::invalid_argument on malformed images (see
     *         inferAdaptiveCohort()).
     */
    ScPrediction inferIndexed(const nn::Tensor &image,
                              std::size_t index) const;

    /**
     * The zero-allocation path: run one image through @p workspace (a
     * one-slot CohortWorkspace constructed for this engine) as a cohort
     * of one under AdaptivePolicy::neverExit().  All stage scratch and
     * stream buffers come from the workspace, so steady-state calls
     * perform no heap allocation inside the stage pipeline.  Results are
     * bit-identical to the transient overload.  Thread-safe across
     * distinct workspaces.
     * @throws std::invalid_argument like inferAdaptiveCohort().
     */
    ScPrediction inferIndexed(const nn::Tensor &image, std::size_t index,
                              StageWorkspace &workspace) const;

    /**
     * True when every compiled stage accepts partial spans (checkpointed
     * execution), i.e. policies that can exit early are available on
     * this backend.  When false and @p why_not is non-null, it receives
     * the first non-resumable stage's name.
     */
    bool supportsAdaptive(std::string *why_not = nullptr) const;

    /**
     * Adaptive early-exit inference of one image (see AdaptivePolicy): a
     * cohort of one through inferAdaptiveCohort().  The result is
     * bit-identical to what inferIndexed(image, index, workspace)
     * computes over the same number of cycles — and to the full
     * inferIndexed() result whenever the image does not exit early.
     * Thread-safe across distinct workspaces.
     * @throws std::invalid_argument like inferAdaptiveCohort().
     * @throws StatusError when @p control reports cancellation/expiry.
     */
    AdaptivePrediction inferAdaptive(const nn::Tensor &image,
                                     std::size_t index,
                                     StageWorkspace &workspace,
                                     const AdaptivePolicy &policy,
                                     const RunControl *control = nullptr) const;

    /** Transient-workspace convenience overload of inferAdaptive(). */
    AdaptivePrediction inferAdaptive(const nn::Tensor &image,
                                     std::size_t index,
                                     const AdaptivePolicy &policy) const;

    /**
     * Full-length cohort execution: inferAdaptiveCohort() under
     * AdaptivePolicy::neverExit().  Every prediction is bit-identical to
     * inferIndexed(*images[c], indices[c]) — cohort size changes
     * throughput only, never results.  @p out receives @p count
     * predictions.  Thread-safe across distinct workspaces.
     * @throws std::invalid_argument like inferAdaptiveCohort().
     */
    void inferCohort(const nn::Tensor *const images[],
                     const std::size_t indices[], std::size_t count,
                     CohortWorkspace &workspace, ScPrediction out[]) const;

    /**
     * The engine's one execution loop, which every other entry point
     * wraps.  Runs @p count images (each with the per-image seed of its
     * entry in @p indices) through the stage graph together in
     * checkpoint blocks of policy.checkpointCycles (one block covering
     * the stream when the plan is not resumable), one stage dispatch per
     * stage and block, so weight streams are traversed once per cohort.
     * After each block, images whose score margin clears the policy's
     * threshold are retired, compacting the cohort in place.  Each
     * result is bit-identical to running the image alone (cohort size
     * changes throughput only).  Thread-safe across distinct workspaces.
     *
     * When @p control is non-null it is polled once per checkpoint block
     * for the whole cohort (the serving stack's cooperative-cancellation
     * point: block granularity, not stream granularity) and the run
     * aborts with StatusError{Cancelled|Timeout} when it fires; on abort
     * no entry of @p out is valid.  Polling never perturbs the results
     * of runs that complete.
     * @throws std::invalid_argument before any work when @p workspace
     *         belongs to another engine, @p count exceeds its capacity,
     *         an image's size is not plan().inputElements or it holds a
     *         non-finite element, the policy is invalid, or the policy
     *         can exit early (finite exitMargin) while some stage is not
     *         resumable (see supportsAdaptive()).
     * @throws StatusError when @p control reports cancellation/expiry.
     */
    void inferAdaptiveCohort(const nn::Tensor *const images[],
                             const std::size_t indices[], std::size_t count,
                             CohortWorkspace &workspace,
                             const AdaptivePolicy &policy,
                             AdaptivePrediction out[],
                             const RunControl *control = nullptr) const;

    /**
     * THE batched evaluation entry point: fans the batch across a
     * BatchRunner and returns accuracy plus timing stats.  Worker count
     * comes from config().threads unless @p opts overrides it.
     */
    ScEvalStats evaluate(const std::vector<nn::Sample> &samples,
                         const EvalOptions &opts) const;

    /**
     * Batched adaptive evaluation: evaluate() with per-image early exit
     * under @p policy, also reporting the mean consumed stream cycles
     * and the early-exit count.  Per-image results are bit-identical
     * for any thread count, like evaluate().
     */
    AdaptiveEvalStats evaluateAdaptive(const std::vector<nn::Sample> &samples,
                                       const AdaptivePolicy &policy,
                                       const EvalOptions &opts) const;

    /**
     * Batched per-image predictions, in sample order (same BatchRunner
     * path as evaluate(), without the scoring).
     */
    std::vector<ScPrediction> predict(const std::vector<nn::Sample> &samples,
                                      const EvalOptions &opts = {}) const;

    /** Engine configuration. */
    const EngineOptions &config() const { return cfg_; }

    /** BackendRegistry name this engine was compiled for. */
    const std::string &backendName() const { return cfg_.backend; }

    /** Number of compiled stages (terminal stage included). */
    std::size_t stageCount() const;

    /** Compiled stage @p i, in execution order. */
    const ScStage &stage(std::size_t i) const;

    /** The compiled execution plan (stage graph + buffer plan).  Plans
     *  are interned through core::PlanCache, so engines compiled from
     *  identical (network, options) specs share one plan object —
     *  &engine.plan() compares equal across them. */
    const stages::ExecutionPlan &plan() const { return *plan_; }

    /**
     * Why @p image cannot run on this engine: its size is not
     * plan().inputElements, or it holds a non-finite element.  Empty
     * when it can.  Every entry point rejects such an image; the
     * serving front end checks it at admission.
     */
    std::string imageError(const nn::Tensor &image) const;

    /**
     * Check out a workspace of at least @p capacity slots for one
     * worker's call: an idle one that an earlier call returned
     * (releaseWorkspace()), or a new one.  BatchRunner's workers take
     * one per predict()/evaluate() call, so a steady stream of calls
     * builds no workspace after the first.  Thread-safe.
     */
    std::unique_ptr<CohortWorkspace>
    acquireWorkspace(std::size_t capacity) const;

    /**
     * Return a workspace from acquireWorkspace() to the idle pool.  The
     * pool holds at most one workspace per concurrent worker and per
     * hardware thread (std::thread::hardware_concurrency()); a surplus
     * one is freed.  Idle workspaces, stream buffers and stage scratch
     * included, live until the engine does.  Thread-safe.
     */
    void releaseWorkspace(std::unique_ptr<CohortWorkspace> workspace) const;

  private:
    EngineOptions cfg_;
    std::shared_ptr<const stages::ExecutionPlan> plan_;
    bool encodeInputStreams_ = true; ///< from the backend's traits
    /** Idle workspaces (acquireWorkspace()). */
    mutable std::mutex idleMutex_;
    mutable std::vector<std::unique_ptr<CohortWorkspace>> idle_;
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_SC_ENGINE_H
