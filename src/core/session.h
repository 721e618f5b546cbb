/**
 * @file
 * InferenceSession: the serving façade of the framework.
 *
 * A session owns one trained model (an nn::Network, typically loaded
 * from a saveModel artifact) plus lazily-compiled per-backend engines,
 * so the same model can be served on "aqfp-sorter", "cmos-apc",
 * "float-ref" or any backend registered in core::BackendRegistry without
 * recompiling more than once per backend.  Callers never wire
 * train -> quantize -> EngineOptions -> ScNetworkEngine -> BatchRunner
 * by hand any more:
 *
 *   core::EngineOptions opts;
 *   opts.backend = "aqfp-sorter";
 *   opts.threads = 0; // one worker per hardware thread
 *   core::InferenceSession session(std::move(net), opts);
 *   core::ScEvalStats s = session.evaluate(test, {.limit = 60});
 *   core::ScPrediction p = session.infer(image, "cmos-apc");
 *
 * EngineOptions::validate() front-loads configuration errors with
 * actionable messages (unknown backend -> the registered names; bad
 * streamLen/rngBits/threads -> why the value is out of range).
 *
 * Thread safety: all const methods — infer/predict/evaluate, the
 * adaptive variants, engine(), compiledBackends() — may be called
 * concurrently from any number of threads; first-use engine compilation
 * is internally synchronized (two racing compiles of one backend both
 * run, the first registration wins).  Construction/destruction must not
 * overlap other calls.
 *
 * Determinism: every prediction is a pure function of (model, options,
 * backend, image, image index) — independent of thread count, batch
 * size, call order, and which entry point computed it.  Adaptive calls
 * are bit-identical to the non-adaptive path over the cycles they
 * consume (see AdaptivePolicy).
 */

#ifndef AQFPSC_CORE_SESSION_H
#define AQFPSC_CORE_SESSION_H

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/sc_engine.h"
#include "nn/network.h"

namespace aqfpsc::core {

struct TuneOptions;
struct TuneResult;

/** One trained model served through lazily-compiled per-backend engines. */
class InferenceSession
{
  public:
    /**
     * Take ownership of @p net and validate @p opts.
     * @throws std::invalid_argument on invalid options.
     */
    explicit InferenceSession(nn::Network net, EngineOptions opts = {});

    /** Serve a saveModel artifact.  @throws std::runtime_error on bad
     *  files, std::invalid_argument on bad options. */
    static InferenceSession fromFile(const std::string &path,
                                     EngineOptions opts = {});

    /** Serve a freshly built (untrained) zoo model ("snn", "dnn",
     *  "tiny").  @throws std::invalid_argument on unknown names. */
    static InferenceSession fromZoo(const std::string &model,
                                    EngineOptions opts = {},
                                    unsigned buildSeed = 1);

    InferenceSession(const InferenceSession &) = delete;
    InferenceSession &operator=(const InferenceSession &) = delete;

    /** The owned model. */
    const nn::Network &network() const { return net_; }

    /** Session options (every engine compiles from these). */
    const EngineOptions &options() const { return opts_; }

    /**
     * Run one image (engine seed, batch index 0).
     * @param backend Registry name; empty = options().backend.
     */
    ScPrediction infer(const nn::Tensor &image,
                       const std::string &backend = {}) const;

    /** Batched per-image predictions in sample order. */
    std::vector<ScPrediction>
    predict(const std::vector<nn::Sample> &samples,
            const EvalOptions &opts = {},
            const std::string &backend = {}) const;

    /**
     * THE evaluation entry point: accuracy + timing over (a prefix of)
     * @p samples, fanned across options().threads workers unless
     * @p opts overrides.
     */
    ScEvalStats evaluate(const std::vector<nn::Sample> &samples,
                         const EvalOptions &opts = {},
                         const std::string &backend = {}) const;

    /**
     * Adaptive early-exit inference of one image under
     * options().adaptive (engine seed, batch index 0).  Thread-safe.
     * @throws std::invalid_argument on malformed images, or when the
     *         policy can exit early and the backend has non-resumable
     *         stages (e.g. "float-ref").
     */
    AdaptivePrediction inferAdaptive(const nn::Tensor &image,
                                     const std::string &backend = {}) const;

    /**
     * Batched adaptive evaluation under options().adaptive: evaluate()
     * plus mean consumed stream cycles and the early-exit count,
     * bit-identical for any thread count.
     * @throws std::invalid_argument like inferAdaptive().
     */
    AdaptiveEvalStats
    evaluateAdaptive(const std::vector<nn::Sample> &samples,
                     const EvalOptions &opts = {},
                     const std::string &backend = {}) const;

    /**
     * The compiled engine of @p backend (empty = options().backend),
     * compiling it on first use.  Thread-safe; the reference stays valid
     * for the session's lifetime.
     * @throws std::invalid_argument for unregistered backends.
     */
    const ScNetworkEngine &engine(const std::string &backend = {}) const;

    /** Backends compiled so far (sorted). */
    std::vector<std::string> compiledBackends() const;

    /**
     * Search a per-stage stream-length vector that maximizes throughput
     * within @p opts 's accuracy budget on @p calibration, starting from
     * this session's options (see core::PrecisionTuner for the
     * coordinate-descent algorithm).  The session itself is not
     * modified — apply the result by constructing a new session (or
     * engine) with EngineOptions::stageStreamLens = result vector.
     * Thread-safe like the evaluation entry points.
     * @throws std::invalid_argument on empty calibration sets or
     *         non-resumable backends being asked for adaptive scoring.
     */
    TuneResult tune(const std::vector<nn::Sample> &calibration,
                    const TuneOptions &opts,
                    const std::string &backend = {}) const;

    /** Persist the model as a versioned artifact.  @return success. */
    bool save(const std::string &path) const
    {
        return net_.saveModel(path);
    }

  private:
    nn::Network net_;
    EngineOptions opts_;
    mutable std::mutex mutex_;
    mutable std::map<std::string, std::unique_ptr<ScNetworkEngine>>
        engines_;
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_SESSION_H
