#include "plan_cache.h"

#include <cstdlib>
#include <cstring>

#include "core/stages/stage_compiler.h"

namespace aqfpsc::core {

namespace {

/** FNV-1a over a byte range. */
std::size_t
fnv1a(const void *data, std::size_t n, std::size_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ULL;
    }
    return h;
}

constexpr std::size_t kFnvBasis = 0xCBF29CE484222325ULL;

/**
 * Hash a float sequence consistently with vector<float> equality:
 * +0.0f and -0.0f compare equal but differ in bits, so zeros hash as
 * +0.0f.  (NaN payloads never compare equal, so their hashes are free.)
 */
std::size_t
hashFloats(const std::vector<float> &v, std::size_t h)
{
    for (float f : v) {
        const float canon = f == 0.0f ? 0.0f : f;
        std::uint32_t bits;
        std::memcpy(&bits, &canon, sizeof bits);
        h = fnv1a(&bits, sizeof bits, h);
    }
    return h;
}

std::size_t
hashString(const std::string &s, std::size_t h)
{
    return fnv1a(s.data(), s.size(), h);
}

bool
envDisabled()
{
    const char *v = std::getenv("AQFPSC_DISABLE_PLAN_CACHE");
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
}

} // namespace

std::size_t
PlanCache::StageSpecHash::operator()(const StageSpec &s) const
{
    std::size_t h = kFnvBasis;
    h = hashString(s.backend, h);
    const std::uint8_t kind = static_cast<std::uint8_t>(s.kind);
    h = fnv1a(&kind, sizeof kind, h);
    h = fnv1a(s.dims.data(), s.dims.size() * sizeof(int), h);
    h = fnv1a(&s.activation, sizeof s.activation, h);
    const std::uint8_t chain = s.majorityChain ? 1 : 0;
    h = fnv1a(&chain, sizeof chain, h);
    h = fnv1a(&s.streamLen, sizeof s.streamLen, h);
    h = fnv1a(&s.rngBits, sizeof s.rngBits, h);
    h = fnv1a(s.rngState.data(),
              s.rngState.size() * sizeof(std::uint64_t), h);
    h = hashFloats(s.weights, h);
    h = hashFloats(s.biases, h);
    return h;
}

std::size_t
PlanCache::PlanSpecHash::operator()(const PlanSpec &s) const
{
    std::size_t h = kFnvBasis;
    h = hashString(s.backend, h);
    h = fnv1a(&s.streamLen, sizeof s.streamLen, h);
    const std::uint64_t nLens = s.stageStreamLens.size();
    h = fnv1a(&nLens, sizeof nLens, h);
    h = fnv1a(s.stageStreamLens.data(),
              s.stageStreamLens.size() * sizeof(std::uint64_t), h);
    h = fnv1a(&s.rngBits, sizeof s.rngBits, h);
    h = fnv1a(&s.seed, sizeof s.seed, h);
    h = hashString(s.architecture, h);
    h = hashFloats(s.params, h);
    return h;
}

PlanCache::PlanCache() : enabled_(!envDisabled()) {}

PlanCache &
PlanCache::instance()
{
    static PlanCache cache;
    return cache;
}

bool
PlanCache::enabled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return enabled_;
}

void
PlanCache::setEnabled(bool enabled)
{
    std::lock_guard<std::mutex> lock(mu_);
    enabled_ = enabled;
}

template <typename Map>
void
PlanCache::purgeExpired(Map &map)
{
    for (auto it = map.begin(); it != map.end();) {
        if (it->second.expired()) {
            it = map.erase(it);
            ++evictions_;
        } else {
            ++it;
        }
    }
}

std::shared_ptr<const stages::StageShared>
PlanCache::internStage(
    const StageSpec &spec,
    const std::function<std::shared_ptr<const stages::StageShared>()>
        &build)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (enabled_) {
            auto it = stageMap_.find(spec);
            if (it != stageMap_.end()) {
                if (auto live = it->second.lock()) {
                    ++stageHits_;
                    return live;
                }
                stageMap_.erase(it);
                ++evictions_;
            }
        }
    }
    // Build outside the lock: stream generation is the expensive part,
    // and a plan build re-enters the cache for its stages.
    auto built = build();
    std::lock_guard<std::mutex> lock(mu_);
    ++stageMisses_;
    if (!enabled_)
        return built;
    auto [it, inserted] = stageMap_.emplace(spec, built);
    if (!inserted) {
        // Raced an identical build: adopt the first-inserted object so
        // equal specs always yield pointer-equal shared state.
        if (auto live = it->second.lock())
            return live;
        it->second = built;
    }
    return built;
}

std::shared_ptr<const stages::ExecutionPlan>
PlanCache::internPlan(
    const PlanSpec &spec,
    const std::function<std::shared_ptr<const stages::ExecutionPlan>()>
        &build)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (enabled_) {
            auto it = planMap_.find(spec);
            if (it != planMap_.end()) {
                if (auto live = it->second.lock()) {
                    ++planHits_;
                    return live;
                }
                planMap_.erase(it);
                ++evictions_;
            }
        }
    }
    auto built = build();
    std::lock_guard<std::mutex> lock(mu_);
    ++planMisses_;
    if (!enabled_)
        return built;
    auto [it, inserted] = planMap_.emplace(spec, built);
    if (!inserted) {
        if (auto live = it->second.lock())
            return live;
        it->second = built;
    }
    return built;
}

PlanCacheStats
PlanCache::stats()
{
    std::lock_guard<std::mutex> lock(mu_);
    purgeExpired(stageMap_);
    purgeExpired(planMap_);
    PlanCacheStats s;
    s.planHits = planHits_;
    s.planMisses = planMisses_;
    s.stageHits = stageHits_;
    s.stageMisses = stageMisses_;
    s.hits = planHits_ + stageHits_;
    s.misses = planMisses_ + stageMisses_;
    s.evictions = evictions_;
    s.residentPlans = planMap_.size();
    s.residentStages = stageMap_.size();
    for (const auto &[spec, weak] : stageMap_) {
        if (auto live = weak.lock())
            s.residentBytes += live->bytes;
    }
    return s;
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    stageMap_.clear();
    planMap_.clear();
    planHits_ = planMisses_ = stageHits_ = stageMisses_ = evictions_ = 0;
}

} // namespace aqfpsc::core
