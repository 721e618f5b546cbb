#include "session.h"

#include <stdexcept>
#include <utility>

#include "core/backend_registry.h"
#include "core/model_zoo.h"

namespace aqfpsc::core {

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
    if (rngBits < 1 || rngBits > kMaxRngBits) {
        errors.push_back(
            "rngBits " + std::to_string(rngBits) + " out of [1, " +
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

ScEngineConfig
EngineOptions::toConfig(const std::string &backendOverride) const
{
    ScEngineConfig cfg;
    cfg.streamLen = streamLen;
    cfg.stageStreamLens = stageStreamLens;
    cfg.rngBits = rngBits;
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.cohort = cohort;
    cfg.backendName = backendOverride.empty() ? backend : backendOverride;
    return cfg;
}

InferenceSession::InferenceSession(nn::Network net, EngineOptions opts)
    : net_(std::move(net)), opts_(std::move(opts))
{
    opts_.validateOrThrow();
}

InferenceSession
InferenceSession::fromFile(const std::string &path, EngineOptions opts)
{
    return InferenceSession(nn::Network::loadModel(path), std::move(opts));
}

InferenceSession
InferenceSession::fromZoo(const std::string &model, EngineOptions opts,
                          unsigned buildSeed)
{
    return InferenceSession(buildModel(model, buildSeed), std::move(opts));
}

const ScNetworkEngine &
InferenceSession::engine(const std::string &backend) const
{
    const std::string name = backend.empty() ? opts_.backend : backend;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = engines_.find(name);
        if (it != engines_.end())
            return *it->second;
    }
    if (!BackendRegistry::instance().has(name))
        throw std::invalid_argument(
            BackendRegistry::instance().unknownBackendMessage(name));
    // Compile outside the lock: stream generation for a large network
    // takes seconds, and serving calls on already-compiled backends must
    // not stall behind it.  Two threads racing on the same first use
    // both compile; emplace keeps the first and drops the duplicate.
    auto compiled =
        std::make_unique<ScNetworkEngine>(net_, opts_.toConfig(name));
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] =
        engines_.emplace(name, std::move(compiled));
    (void)inserted;
    return *it->second;
}

std::vector<std::string>
InferenceSession::compiledBackends() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(engines_.size());
    for (const auto &kv : engines_)
        out.push_back(kv.first);
    return out;
}

PlanCacheStats
InferenceSession::planCacheStats()
{
    return PlanCache::instance().stats();
}

ScPrediction
InferenceSession::infer(const nn::Tensor &image,
                        const std::string &backend) const
{
    return engine(backend).infer(image);
}

std::vector<ScPrediction>
InferenceSession::predict(const std::vector<nn::Sample> &samples,
                          const EvalOptions &opts,
                          const std::string &backend) const
{
    return engine(backend).predict(samples, opts);
}

ScEvalStats
InferenceSession::evaluate(const std::vector<nn::Sample> &samples,
                           const EvalOptions &opts,
                           const std::string &backend) const
{
    return engine(backend).evaluate(samples, opts);
}

AdaptivePrediction
InferenceSession::inferAdaptive(const nn::Tensor &image,
                                const std::string &backend) const
{
    return engine(backend).inferAdaptive(image, 0, opts_.adaptive);
}

AdaptiveEvalStats
InferenceSession::evaluateAdaptive(const std::vector<nn::Sample> &samples,
                                   const EvalOptions &opts,
                                   const std::string &backend) const
{
    return engine(backend).evaluateAdaptive(samples, opts_.adaptive, opts);
}

} // namespace aqfpsc::core
