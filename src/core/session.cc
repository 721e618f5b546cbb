#include "session.h"

#include <utility>

#include "core/model_zoo.h"

namespace aqfpsc::core {

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
    // Compile outside the lock: stream generation for a large network
    // takes seconds, and serving calls on already-compiled backends must
    // not stall behind it.  Two threads racing on the same first use
    // both compile; emplace keeps the first and drops the duplicate.
    // The compile validates the options, the backend name included.
    EngineOptions opts = opts_;
    opts.backend = name;
    auto compiled = std::make_unique<ScNetworkEngine>(net_, opts);
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
