#include "plan_cache.h"

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
 * +0.0f.
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

} // namespace

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

PlanCache &
PlanCache::instance()
{
    static PlanCache cache;
    return cache;
}

std::shared_ptr<const stages::ExecutionPlan>
PlanCache::internPlan(
    PlanSpec spec,
    const std::function<std::shared_ptr<const stages::ExecutionPlan>()>
        &build)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = plans_.find(spec);
        if (it != plans_.end()) {
            if (auto live = it->second.lock()) {
                ++hits_;
                return live;
            }
        }
        // A miss: drop the dead entries, and their keys' copies of the
        // parameters, before the build allocates the new streams.
        ++misses_;
        for (it = plans_.begin(); it != plans_.end();) {
            if (it->second.expired()) {
                it = plans_.erase(it);
                ++evictions_;
            } else {
                ++it;
            }
        }
    }
    // Build outside the lock: stream generation is the expensive part.
    auto built = build();
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = plans_.try_emplace(std::move(spec), built);
    if (!inserted) {
        // Raced an identical build: adopt the first-inserted plan so
        // equal specs always yield pointer-equal plans.
        if (auto live = it->second.lock())
            return live;
        it->second = built;
    }
    return built;
}

PlanCacheStats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    PlanCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    for (const auto &[spec, weak] : plans_) {
        const auto plan = weak.lock();
        if (plan == nullptr)
            continue;
        ++s.residentPlans;
        for (const auto &stage : plan->stages) {
            if (const stages::StageShared *shared = stage->sharedState())
                s.residentBytes += shared->bytes;
        }
    }
    return s;
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    plans_.clear();
    hits_ = misses_ = evictions_ = 0;
}

} // namespace aqfpsc::core
