#include "precision_tuner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/sc_engine.h"
#include "core/stages/stage_compiler.h"

namespace aqfpsc::core {

namespace {

std::size_t
floorTo64(std::size_t v)
{
    return v / 64 * 64;
}

std::size_t
ceilTo64(std::size_t v)
{
    return (v + 63) / 64 * 64;
}

std::string
lensToString(const std::vector<std::size_t> &lens)
{
    std::string s = "[";
    for (std::size_t i = 0; i < lens.size(); ++i) {
        if (i > 0)
            s += ',';
        s += std::to_string(lens[i]);
    }
    return s + "]";
}

} // namespace

std::vector<std::string>
TuneOptions::validate() const
{
    std::vector<std::string> errors;
    if (std::isnan(maxAccuracyDrop) || maxAccuracyDrop < 0.0 ||
        maxAccuracyDrop > 1.0) {
        errors.push_back(
            "maxAccuracyDrop must be a fraction in [0, 1] (0.005 = 0.5 "
            "percentage points of calibration accuracy)");
    }
    if (minStageLen == 0 ||
        minStageLen > EngineOptions::kMaxStreamLen) {
        errors.push_back(
            "minStageLen " + std::to_string(minStageLen) +
            " out of [1, " +
            std::to_string(EngineOptions::kMaxStreamLen) +
            "]: the floor every stage length is clamped to (rounded up "
            "to a multiple of 64)");
    }
    if (maxPasses < 1) {
        errors.push_back(
            "maxPasses must be >= 1: the search needs at least one "
            "coordinate-descent pass to try any move");
    }
    return errors;
}

PrecisionTuner::PrecisionTuner(const nn::Network &net, EngineOptions opts)
    : net_(net), opts_(std::move(opts))
{
    opts_.validateOrThrow();
}

TuneResult
PrecisionTuner::tune(const std::vector<nn::Sample> &calibration,
                     const TuneOptions &topts) const
{
    {
        const std::vector<std::string> errors = topts.validate();
        if (!errors.empty()) {
            std::string msg = "invalid TuneOptions: ";
            for (std::size_t i = 0; i < errors.size(); ++i)
                msg += (i ? "; " : "") + errors[i];
            throw std::invalid_argument(msg);
        }
    }
    if (calibration.empty())
        throw std::invalid_argument(
            "PrecisionTuner::tune: calibration set is empty — accuracy "
            "moves cannot be judged without samples");

    EvalOptions eo;
    eo.limit = topts.limit;

    TuneResult result;

    // Uniform baseline: the session options as-is (scalar streamLen or
    // an explicit starting vector).  Its accuracy anchors the budget and
    // its throughput the reported speedup.
    const ScEvalStats baseStats = [&] {
        const ScNetworkEngine baseline(net_, opts_);
        result.baselineStageStreamLens = baseline.plan().stageStreamLens;
        return baseline.evaluate(calibration, eo);
    }();
    ++result.evaluations;
    result.baselineAccuracy = baseStats.accuracy;
    result.baselineImagesPerSec = baseStats.imagesPerSec;

    const std::size_t minLen =
        std::max<std::size_t>(64, ceilTo64(topts.minStageLen));

    // Starting point: the resolved baseline vector, floored to word
    // alignment so every candidate is a valid explicit vector (a scalar
    // streamLen need not be a multiple of 64; explicit vectors must be).
    std::vector<std::size_t> cur = result.baselineStageStreamLens;
    for (std::size_t &l : cur)
        l = std::max(minLen, floorTo64(l));
    for (std::size_t s = 1; s < cur.size(); ++s)
        cur[s] = std::min(cur[s], cur[s - 1]);

    const auto evaluate = [&](const std::vector<std::size_t> &lens) {
        EngineOptions cfg = opts_;
        cfg.streamLen = lens.front();
        cfg.stageStreamLens = lens;
        const ScNetworkEngine engine(net_, cfg);
        ++result.evaluations;
        return engine.evaluate(calibration, eo);
    };

    double curAcc = baseStats.accuracy;
    double curImagesPerSec = baseStats.imagesPerSec;
    if (cur != result.baselineStageStreamLens) {
        const ScEvalStats s = evaluate(cur);
        curAcc = s.accuracy;
        curImagesPerSec = s.imagesPerSec;
    }

    // Coordinate descent: per stage, try halving (downstream entries cap
    // to the new value to keep the vector non-increasing); accept when
    // calibration accuracy stays within the budget of the baseline.
    // Halving only ever shortens streams, so accepted moves are
    // monotonically faster — accuracy is the lone acceptance test.
    const double budget = topts.maxAccuracyDrop + 1e-12;
    for (int pass = 0; pass < topts.maxPasses; ++pass) {
        bool accepted = false;
        for (std::size_t s = 0; s < cur.size(); ++s) {
            std::size_t halved = floorTo64(cur[s] / 2);
            if (halved < minLen)
                halved = minLen;
            if (halved >= cur[s])
                continue;
            std::vector<std::size_t> cand = cur;
            cand[s] = halved;
            for (std::size_t t = s + 1; t < cand.size(); ++t)
                cand[t] = std::min(cand[t], halved);
            const ScEvalStats stats = evaluate(cand);
            const bool keep =
                result.baselineAccuracy - stats.accuracy <= budget;
            if (topts.verbose) {
                std::printf("tune: pass %d stage %zu %s acc %.4f "
                            "(baseline %.4f) -> %s\n",
                            pass + 1, s, lensToString(cand).c_str(),
                            stats.accuracy, result.baselineAccuracy,
                            keep ? "accept" : "reject");
                std::fflush(stdout);
            }
            if (keep) {
                cur = std::move(cand);
                curAcc = stats.accuracy;
                curImagesPerSec = stats.imagesPerSec;
                accepted = true;
            }
        }
        ++result.passes;
        if (!accepted)
            break;
    }

    result.stageStreamLens = std::move(cur);
    result.tunedAccuracy = curAcc;
    result.tunedImagesPerSec = curImagesPerSec;
    result.speedup = result.baselineImagesPerSec > 0.0
                         ? result.tunedImagesPerSec /
                               result.baselineImagesPerSec
                         : 1.0;
    return result;
}

TuneResult
InferenceSession::tune(const std::vector<nn::Sample> &calibration,
                       const TuneOptions &opts,
                       const std::string &backend) const
{
    EngineOptions engineOpts = opts_;
    if (!backend.empty())
        engineOpts.backend = backend;
    return PrecisionTuner(net_, engineOpts).tune(calibration, opts);
}

} // namespace aqfpsc::core
