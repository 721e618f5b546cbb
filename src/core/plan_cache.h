/**
 * @file
 * Process-wide spec-keyed cache of compiled execution plans.
 *
 * The paper's weights are hardwired, so a compiled plan draws each
 * weighted stage's parameter streams once, and a resident engine keeps
 * them for its lifetime.  Engines compiled from the same network and
 * options — repeated sessions, tenants sharing a model in
 * serving::ServingFrontend, identical models registered under two
 * names — would each draw and hold their own copy.  The PlanCache
 * interns whole plans the way poplibs memoizes convolution
 * implementations: a compile product is stored under its canonical
 * PlanSpec, and an identical spec references the one ExecutionPlan.
 *
 * The key is one tuple: backend, resolved per-stage stream lengths, SNG
 * code width, seed, the architecture (layer specs and quantization
 * grid) and every parameter.  Equality is exact content equality, so a
 * hash collision can never alias two different plans, and a hit hands
 * back exactly the plan a fresh compile would build.  A plan's streams
 * come from one RNG walked in layer order inside that compile, so
 * nothing about the RNG needs recording.
 *
 * Entries are weak_ptr: the cache never keeps a plan alive, and an
 * entry expires with its last engine.  Each miss sweeps the expired
 * entries before it builds, so a dead plan's key (with its copy of the
 * parameters) lives until the next miss at most.  Cold references for
 * tests come from clear() or stages::compileNetworkUncached().
 */

#ifndef AQFPSC_CORE_PLAN_CACHE_H
#define AQFPSC_CORE_PLAN_CACHE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace aqfpsc::core::stages {
struct ExecutionPlan;
} // namespace aqfpsc::core::stages

namespace aqfpsc::core {

/**
 * Canonical identity of a whole compiled plan: backend + engine options
 * + network architecture + flattened parameters.  Two specs compare
 * equal exactly when a cold compile would build bit-identical plans for
 * both.  Excludes threads, cohort and the adaptive policy, which
 * configure execution, not the compile product.
 */
struct PlanSpec
{
    std::string backend;
    std::uint64_t streamLen = 0;
    /** Resolved per-stage stream lengths (scalar configs are
     *  canonicalized to a uniform vector before keying, so the scalar
     *  and explicit-uniform spellings intern to one entry). */
    std::vector<std::uint64_t> stageStreamLens;
    int rngBits = 0;
    std::uint64_t seed = 0;
    /** Canonical layer-spec encoding, quantization grid included. */
    std::string architecture;
    /** All layer parameters, flattened in layer (weights, biases) order. */
    std::vector<float> params;

    bool operator==(const PlanSpec &) const = default;
};

/** Point-in-time cache counters (monotonic except the resident gauges). */
struct PlanCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0; ///< expired entries swept by a miss
    std::size_t residentPlans = 0; ///< live interned plans
    /** StageShared::bytes summed over the live plans' stages. */
    std::size_t residentBytes = 0;
};

/**
 * The process-wide plan cache.  Thread-safe; internPlan runs its build
 * callback outside the cache lock, and a build that races an identical
 * insert adopts the first-inserted plan, so pointer equality of equal
 * specs holds even under contention.
 */
class PlanCache
{
  public:
    /** The singleton cache. */
    static PlanCache &instance();

    /**
     * Return the live plan interned under @p spec.  On a miss, sweep the
     * expired entries, run @p build (outside the lock), move @p spec
     * into the map with the built plan, and return it.  Exactly one of
     * {hit, miss} is counted per call.
     */
    std::shared_ptr<const stages::ExecutionPlan>
    internPlan(PlanSpec spec,
               const std::function<std::shared_ptr<const stages::ExecutionPlan>()>
                   &build);

    /** Counters plus the resident gauges, which count live plans only.
     *  Erases nothing. */
    PlanCacheStats stats() const;

    /** Drop every entry and reset all counters (test isolation). */
    void clear();

  private:
    PlanCache() = default;

    struct PlanSpecHash
    {
        std::size_t operator()(const PlanSpec &s) const;
    };

    mutable std::mutex mu_;
    std::unordered_map<PlanSpec,
                       std::weak_ptr<const stages::ExecutionPlan>,
                       PlanSpecHash>
        plans_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_PLAN_CACHE_H
