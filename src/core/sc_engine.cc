#include "sc_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/backend_registry.h"
#include "core/batch_runner.h"
#include "core/fault_injection.h"
#include "core/stages/stage.h"
#include "core/stages/stage_compiler.h"
#include "core/workspace.h"
#include "sc/rng.h"
#include "sc/stream_matrix.h"

namespace aqfpsc::core {

namespace {

/** Argmax over per-class scores (first index wins ties). */
int
argmaxLabel(const std::vector<double> &scores)
{
    int label = 0;
    for (std::size_t i = 1; i < scores.size(); ++i) {
        if (scores[i] > scores[static_cast<std::size_t>(label)])
            label = static_cast<int>(i);
    }
    return label;
}

/**
 * Re-arm a (possibly reused) context for a new image.  clear() keeps
 * capacity, so the steady state still allocates nothing; a pipeline
 * whose terminal stage never assigns scores must not inherit the
 * previous image's.
 */
void
armContext(StageContext &ctx, std::uint64_t engine_seed, std::size_t index,
           const nn::Tensor &image)
{
    ctx.imageSeed = sc::deriveStreamSeed(engine_seed, index);
    ctx.image = &image;
    ctx.values.clear();
    ctx.scores.clear();
}

/** The input SNG generator of an image: one over the whole stream, so
 *  any exit point is a bit-exact prefix. */
std::uint64_t
inputSeed(std::uint64_t image_seed)
{
    return image_seed ^ 0xABCDEF12345ULL;
}

} // namespace

AdaptivePolicy
AdaptivePolicy::neverExit(std::size_t checkpoint_cycles)
{
    AdaptivePolicy policy;
    policy.checkpointCycles = checkpoint_cycles;
    policy.exitMargin = std::numeric_limits<double>::infinity();
    policy.minCycles = 0;
    return policy;
}

std::vector<std::string>
AdaptivePolicy::validate() const
{
    std::vector<std::string> errors;
    if (checkpointCycles == 0 || checkpointCycles % 64 != 0) {
        errors.push_back(
            "checkpointCycles must be a positive multiple of 64 (spans "
            "are aligned to the packed-stream word size); got " +
            std::to_string(checkpointCycles));
    }
    if (std::isnan(exitMargin) || exitMargin < 0.0) {
        errors.push_back(
            "exitMargin must be >= 0 (a normalized top-1 score margin; "
            "0 exits at the first checkpoint, infinity never exits)");
    }
    return errors;
}

// validate() promises exactly the bound the execution layer clamps to.
static_assert(EngineOptions::kMaxCohort ==
                  static_cast<int>(kMaxCohortImages),
              "EngineOptions::kMaxCohort must match stage.h's "
              "kMaxCohortImages");

std::vector<std::string>
EngineOptions::validate() const
{
    std::vector<std::string> errors;
    const BackendRegistry &registry = BackendRegistry::instance();
    if (!registry.has(backend))
        errors.push_back(registry.unknownBackendMessage(backend));
    if (streamLen < kMinStreamLen || streamLen > kMaxStreamLen) {
        errors.push_back(
            "streamLen " + std::to_string(streamLen) + " out of [" +
            std::to_string(kMinStreamLen) + ", " +
            std::to_string(kMaxStreamLen) +
            "]: below the minimum a stream cannot resolve bipolar values "
            "(SC error scales as 1/sqrt(N)); above the maximum the "
            "per-layer stream matrices exhaust memory");
    }
    if (rngBits < sc::kMinSngBits || rngBits > kMaxRngBits) {
        errors.push_back(
            "rngBits " + std::to_string(rngBits) + " out of [" +
            std::to_string(sc::kMinSngBits) + ", " +
            std::to_string(kMaxRngBits) +
            "]: the SNG quantizes values to a 2^bits code compared "
            "against a bits-wide RNG draw each cycle");
    }
    if (threads < 0 || threads > kMaxThreads) {
        errors.push_back(
            "threads " + std::to_string(threads) + " out of [0, " +
            std::to_string(kMaxThreads) +
            "]: 0 means one worker per hardware thread; the batch "
            "runner clamps worker pools at " + std::to_string(kMaxThreads));
    }
    if (cohort < 1 || cohort > kMaxCohort) {
        errors.push_back(
            "cohort " + std::to_string(cohort) + " out of [1, " +
            std::to_string(kMaxCohort) +
            "]: the stage-major kernel cores keep per-cohort pointer "
            "tables on the stack, so cohorts are bounded; larger batches "
            "simply run as several cohorts");
    }
    for (std::size_t s = 0; s < stageStreamLens.size(); ++s) {
        const std::size_t len = stageStreamLens[s];
        if (len == 0 || len % 64 != 0) {
            errors.push_back(
                "stageStreamLens[" + std::to_string(s) + "] = " +
                std::to_string(len) +
                " must be a positive multiple of 64: checkpointed spans "
                "and the packed-stream kernels work in 64-bit words");
            continue;
        }
        if (len > kMaxStreamLen) {
            errors.push_back(
                "stageStreamLens[" + std::to_string(s) + "] = " +
                std::to_string(len) + " exceeds the maximum stream "
                "length " + std::to_string(kMaxStreamLen) +
                ": per-layer stream matrices exhaust memory beyond it");
        }
        if (s > 0 && len > stageStreamLens[s - 1]) {
            errors.push_back(
                "stageStreamLens must be non-increasing in execution "
                "order (a stage consumes the prefix of longer upstream "
                "streams, so no stage may outlive its producer); entry " +
                std::to_string(s) + " = " + std::to_string(len) +
                " exceeds entry " + std::to_string(s - 1) + " = " +
                std::to_string(stageStreamLens[s - 1]));
        }
    }
    for (const std::string &e : adaptive.validate())
        errors.push_back("adaptive: " + e);
    return errors;
}

void
EngineOptions::validateOrThrow() const
{
    const std::vector<std::string> errors = validate();
    if (errors.empty())
        return;
    std::string msg = "invalid EngineOptions: ";
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (i > 0)
            msg += "; ";
        msg += errors[i];
    }
    throw std::invalid_argument(msg);
}

ScNetworkEngine::~ScNetworkEngine() = default;

ScNetworkEngine::ScNetworkEngine(const nn::Network &net,
                                 const EngineOptions &cfg)
    : cfg_(cfg), plan_(stages::compileNetwork(net, cfg)),
      encodeInputStreams_(
          BackendRegistry::instance().traits(cfg.backend).wantsInputStreams)
{
    // Chaos-test hook: lets tests exercise the "engine failed to
    // compile" error path without crafting an uncompilable network.
    fault::injectThrow(FaultSite::EngineCompile, cfg.seed);
}

std::size_t
ScNetworkEngine::stageCount() const
{
    return plan_->stageCount();
}

const ScStage &
ScNetworkEngine::stage(std::size_t i) const
{
    return plan_->stage(i);
}

ScPrediction
ScNetworkEngine::infer(const nn::Tensor &image) const
{
    return inferIndexed(image, 0);
}

ScPrediction
ScNetworkEngine::inferIndexed(const nn::Tensor &image,
                              std::size_t index) const
{
    StageWorkspace workspace(*this);
    return inferIndexed(image, index, workspace);
}

ScPrediction
ScNetworkEngine::inferIndexed(const nn::Tensor &image, std::size_t index,
                              StageWorkspace &ws) const
{
    return inferAdaptive(image, index, ws, AdaptivePolicy::neverExit())
        .prediction;
}

void
ScNetworkEngine::inferCohort(const nn::Tensor *const images[],
                             const std::size_t indices[], std::size_t count,
                             CohortWorkspace &ws, ScPrediction out[]) const
{
    AdaptivePrediction results[kMaxCohortImages];
    inferAdaptiveCohort(images, indices, count, ws,
                        AdaptivePolicy::neverExit(), results);
    for (std::size_t c = 0; c < count; ++c)
        out[c] = std::move(results[c].prediction);
}

AdaptivePrediction
ScNetworkEngine::inferAdaptive(const nn::Tensor &image, std::size_t index,
                               StageWorkspace &ws,
                               const AdaptivePolicy &policy,
                               const RunControl *control) const
{
    const nn::Tensor *const images[] = {&image};
    AdaptivePrediction result;
    inferAdaptiveCohort(images, &index, 1, ws, policy, &result, control);
    return result;
}

AdaptivePrediction
ScNetworkEngine::inferAdaptive(const nn::Tensor &image, std::size_t index,
                               const AdaptivePolicy &policy) const
{
    StageWorkspace workspace(*this);
    return inferAdaptive(image, index, workspace, policy);
}

bool
ScNetworkEngine::supportsAdaptive(std::string *why_not) const
{
    if (plan_->resumable)
        return true;
    const auto first = std::find_if(
        plan_->stages.begin(), plan_->stages.end(),
        [](const std::unique_ptr<ScStage> &s) { return !s->resumable(); });
    if (why_not != nullptr)
        *why_not = (*first)->name();
    return false;
}

std::string
ScNetworkEngine::imageError(const nn::Tensor &image) const
{
    const std::size_t expected = plan().inputElements;
    if (image.size() != expected) {
        return "image of " + std::to_string(image.size()) +
               " elements; the network's first stage reads " +
               std::to_string(expected);
    }
    for (std::size_t i = 0; i < image.size(); ++i) {
        if (!std::isfinite(image[i]))
            return "image element " + std::to_string(i) + " is not finite";
    }
    return {};
}

namespace {

/**
 * The loop's entry checks: a malformed call fails here with
 * std::invalid_argument, before any buffer is touched.  Only a policy
 * that can exit early needs a resumable plan; a never-exit policy runs
 * on every backend.
 */
void
requireValidRun(const ScNetworkEngine &engine,
                const nn::Tensor *const images[], std::size_t count,
                const CohortWorkspace &ws, const AdaptivePolicy &policy)
{
    if (&ws.engine() != &engine)
        throw std::invalid_argument(
            "workspace belongs to a different engine");
    if (count > ws.capacity()) {
        throw std::invalid_argument(
            "cohort of " + std::to_string(count) +
            " images exceeds the workspace capacity of " +
            std::to_string(ws.capacity()));
    }
    for (std::size_t c = 0; c < count; ++c) {
        const std::string error = engine.imageError(*images[c]);
        if (!error.empty())
            throw std::invalid_argument(error);
    }
    const std::vector<std::string> errors = policy.validate();
    if (!errors.empty()) {
        std::string joined = "invalid AdaptivePolicy: ";
        for (std::size_t i = 0; i < errors.size(); ++i)
            joined += (i ? "; " : "") + errors[i];
        throw std::invalid_argument(joined);
    }
    std::string why_not;
    if (std::isfinite(policy.exitMargin) &&
        !engine.supportsAdaptive(&why_not)) {
        throw std::invalid_argument(
            "backend '" + engine.backendName() +
            "' does not support early exit: stage '" + why_not +
            "' is not resumable");
    }
}

/**
 * The cooperative-cancellation point: called once per checkpoint block.
 * poll() beats (liveness for the watchdog) and reports whether the run
 * must abort; the throw unwinds out of the engine, leaving the
 * workspace reusable after the next arm.
 */
void
pollControl(const RunControl *control, std::size_t cycle)
{
    if (control == nullptr)
        return;
    const StatusCode code = control->poll();
    if (code == StatusCode::Ok)
        return;
    const char *why = code == StatusCode::Cancelled
                          ? "run cancelled at checkpoint (cycle "
                          : "request deadline elapsed at checkpoint (cycle ";
    throw StatusError(code, why + std::to_string(cycle) + ")");
}

} // namespace

void
ScNetworkEngine::inferAdaptiveCohort(const nn::Tensor *const images[],
                                     const std::size_t indices[],
                                     std::size_t count, CohortWorkspace &ws,
                                     const AdaptivePolicy &policy,
                                     AdaptivePrediction out[],
                                     const RunControl *control) const
{
    requireValidRun(*this, images, count, ws, policy);
    if (count == 0)
        return;
    const std::size_t len = plan_->streamLen;
    const std::vector<std::size_t> &lens = plan_->stageStreamLens;

    // Cancellation is polled once per checkpoint block, before the
    // block's work — the first time before any input is encoded, so a
    // run cancelled while it was being set up stops here.
    pollControl(control, 0);
    // The input SNGs run full length up front, so any exit point is a
    // bit-exact prefix of the full run.  Each image draws from its own
    // generator; one call steps the cohort's generators side by side.
    // The input runs at the first stage's length (stageStreamLens[0]).
    // Value-domain backends (traits.wantsInputStreams == false) read the
    // image through the context instead and get an empty matrix.
    sc::StreamMatrix *inputs[kMaxCohortImages];
    const float *values[kMaxCohortImages];
    sc::Xoshiro256StarStar rngs[kMaxCohortImages];
    sc::Xoshiro256StarStar *rng_of[kMaxCohortImages];
    ws.active_.clear();
    for (std::size_t c = 0; c < count; ++c) {
        CohortWorkspace::Slot &slot = ws.slots_[c];
        armContext(slot.ctx, cfg_.seed, indices[c], *images[c]);
        if (encodeInputStreams_)
            slot.input.reset(images[c]->size(), len);
        else
            slot.input.reset(0, 0);
        inputs[c] = &slot.input;
        values[c] = images[c]->data();
        rngs[c] = sc::Xoshiro256StarStar(inputSeed(slot.ctx.imageSeed));
        rng_of[c] = &rngs[c];
        out[c] = AdaptivePrediction{};
        ws.active_.push_back(c);
    }
    if (encodeInputStreams_)
        sc::fillBipolarLanes(inputs, values, rng_of, count, cfg_.rngBits, 0,
                             len);

    // The cohort advances through checkpoint blocks together, one stage
    // dispatch per stage and block, so weight streams are traversed once
    // per cohort.  Images whose margin clears the policy's threshold are
    // retired and compacted out in place, shrinking the cohort a dispatch
    // serves; per-image state lives in its own slot, so results never
    // depend on the cohort.  A plan with a non-resumable stage runs one
    // block covering the whole stream (its policy never exits).
    const std::size_t block =
        plan_->resumable ? std::min(policy.checkpointCycles, len) : len;
    std::size_t begin = 0;
    while (!ws.active_.empty()) {
        const std::size_t end = std::min(begin + block, len);

        // Ping-pong the activation buffers: stage s reads what stage s-1
        // wrote and overwrites the other buffer, so no stream is copied.
        const ScStage *terminalStage = nullptr;
        int flip = 0;
        for (std::size_t s = 0; s < plan_->stageCount(); ++s) {
            const ScStage &stage = plan_->stage(s);
            // Per-stage clamp: a stage whose own (non-increasing) length
            // is already exhausted is skipped — its completed output
            // persists per slot, and every downstream stage (shorter
            // still) skips with it.
            const std::size_t sEnd = std::min(end, lens[s]);
            if (begin < sEnd) {
                for (std::size_t k = 0; k < ws.active_.size(); ++k) {
                    CohortWorkspace::Slot &slot = ws.slots_[ws.active_[k]];
                    ws.views_[k] = CohortSlot{
                        s == 0 ? &slot.input : &slot.pingPong[flip ^ 1],
                        &slot.pingPong[flip], &slot.ctx,
                        slot.scratch[s].get()};
                }
                stage.runCohortSpan(ws.views_.data(), ws.active_.size(),
                                    begin, sEnd);
            }
            if (stage.terminal()) {
                terminalStage = &stage;
                break;
            }
            flip ^= 1;
        }

        std::size_t keep = 0;
        for (std::size_t k = 0; k < ws.active_.size(); ++k) {
            const std::size_t c = ws.active_[k];
            AdaptivePrediction &r = out[c];
            ++r.checkpoints;
            r.consumedCycles = end;
            bool retire = end >= len;
            if (!retire && end >= policy.minCycles &&
                terminalStage != nullptr &&
                terminalStage->scoreMargin(ws.slots_[c].ctx,
                                           std::min(end, lens.back())) >=
                    policy.exitMargin) {
                retire = true;
                r.exitedEarly = true;
            }
            if (retire) {
                r.prediction.scores = ws.slots_[c].ctx.scores;
                r.prediction.label = argmaxLabel(r.prediction.scores);
            } else {
                ws.active_[keep++] = c;
            }
        }
        ws.active_.resize(keep);
        begin = end;
        if (!ws.active_.empty())
            pollControl(control, begin);
    }
}

std::unique_ptr<CohortWorkspace>
ScNetworkEngine::acquireWorkspace(std::size_t capacity) const
{
    capacity = std::clamp<std::size_t>(capacity, 1, kMaxCohortImages);
    {
        const std::lock_guard<std::mutex> lock(idleMutex_);
        const auto fits = std::find_if(
            idle_.begin(), idle_.end(),
            [capacity](const std::unique_ptr<CohortWorkspace> &ws) {
                return ws->capacity() >= capacity;
            });
        if (fits != idle_.end()) {
            std::unique_ptr<CohortWorkspace> ws = std::move(*fits);
            idle_.erase(fits);
            return ws;
        }
        // Too small for this call: replaced, so the pool stays at one
        // workspace per worker.
        if (!idle_.empty())
            idle_.pop_back();
    }
    return std::make_unique<CohortWorkspace>(*this, capacity);
}

void
ScNetworkEngine::releaseWorkspace(
    std::unique_ptr<CohortWorkspace> workspace) const
{
    if (workspace == nullptr || &workspace->engine() != this)
        return;
    // One idle workspace per hardware thread at most: a call that ran
    // more workers than that frees the surplus here (after the unlock).
    static const std::size_t kMaxIdle =
        std::max(1u, std::thread::hardware_concurrency());
    const std::lock_guard<std::mutex> lock(idleMutex_);
    if (idle_.size() < kMaxIdle)
        idle_.push_back(std::move(workspace));
}

ScEvalStats
ScNetworkEngine::evaluate(const std::vector<nn::Sample> &samples,
                          const EvalOptions &opts) const
{
    const int threads = opts.threads < 0 ? cfg_.threads : opts.threads;
    const int cohort = opts.cohort <= 0 ? cfg_.cohort : opts.cohort;
    return BatchRunner(*this, threads, cohort)
        .evaluate(samples, opts.limit, opts.progress);
}

AdaptiveEvalStats
ScNetworkEngine::evaluateAdaptive(const std::vector<nn::Sample> &samples,
                                  const AdaptivePolicy &policy,
                                  const EvalOptions &opts) const
{
    const int threads = opts.threads < 0 ? cfg_.threads : opts.threads;
    const int cohort = opts.cohort <= 0 ? cfg_.cohort : opts.cohort;
    return BatchRunner(*this, threads, cohort)
        .evaluateAdaptive(samples, policy, opts.limit, opts.progress);
}

std::vector<ScPrediction>
ScNetworkEngine::predict(const std::vector<nn::Sample> &samples,
                         const EvalOptions &opts) const
{
    const int threads = opts.threads < 0 ? cfg_.threads : opts.threads;
    const int cohort = opts.cohort <= 0 ? cfg_.cohort : opts.cohort;
    return BatchRunner(*this, threads, cohort)
        .run(samples, opts.limit, opts.progress);
}

} // namespace aqfpsc::core
