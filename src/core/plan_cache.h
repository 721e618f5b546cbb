/**
 * @file
 * Process-wide spec-keyed cache of compiled execution plans and interned
 * per-stage weight state.
 *
 * Every ScNetworkEngine compile used to rebuild its per-stage immutable
 * state (weight bit-plane streams, bias/neutral rows) from scratch, so a
 * multi-model, multi-backend serving deployment paid
 * O(engines x layers) memory and warm-up.  The PlanCache removes that
 * cost the way poplibs memoizes convolution implementations: compile
 * products are interned under a canonical spec tuple, and identical
 * specs — repeated engines across sessions, tenants sharing a model in
 * serving::ServingFrontend, models sharing a layer — reference one copy.
 *
 * Two levels are interned, both held by weak_ptr (the cache never keeps
 * anything alive; entries expire with their last engine):
 *
 *  - StageSpec -> stages::StageShared: one weighted stage's parameter
 *    streams.  The key is the full content tuple (backend, layer kind,
 *    geometry, fused activation, engine options, stream length, SNG code
 *    width) plus the float weights/biases themselves and the compiler
 *    RNG state at generation time — equality is exact content equality,
 *    so a hash collision can never alias two different stages.
 *  - PlanSpec -> stages::ExecutionPlan: a whole compiled stage graph,
 *    keyed by backend, engine options, and the network architecture +
 *    flattened parameters.
 *
 * Bit-identity: parameter streams are drawn from one compiler RNG walked
 * in layer order, so skipping regeneration would ordinarily desync every
 * downstream layer.  The StageSpec therefore keys on the RNG state
 * *before* generation, and the interned StageShared records the state
 * *after* it; on a hit the compiler fast-forwards its RNG to the stored
 * post-state.  A cache-hit compile is thereby indistinguishable from a
 * cold compile — same streams, same RNG sequence, same scores — which
 * the differential suite in tests/test_plan_cache.cc pins against the
 * golden score hashes.
 *
 * The cache is enabled by default; set AQFPSC_DISABLE_PLAN_CACHE=1 in
 * the environment (or call setEnabled(false)) to compile everything
 * cold.  Results are identical either way — only memory and warm-up
 * time change.
 */

#ifndef AQFPSC_CORE_PLAN_CACHE_H
#define AQFPSC_CORE_PLAN_CACHE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stages/stage_common.h"

namespace aqfpsc::core::stages {
struct ExecutionPlan;
} // namespace aqfpsc::core::stages

namespace aqfpsc::core {

/** The block a compiled stage maps to; weighted kinds key a StageSpec. */
enum class StageKind : std::uint8_t
{
    Conv = 1,   ///< fused Conv2D + activation
    Dense = 2,  ///< fused hidden Dense + activation
    Output = 3, ///< terminal categorization stage
    Pool = 4,   ///< AvgPool2 (parameter-free: never a StageSpec)
};

/**
 * Canonical identity of one weighted stage's compile product.  Two specs
 * compare equal exactly when a cold compile would produce bit-identical
 * StageShared contents for both (same geometry, options, parameters, and
 * compiler RNG position), so interning by StageSpec is always safe.
 */
struct StageSpec
{
    std::string backend;              ///< resolved registry name
    StageKind kind = StageKind::Conv; ///< layer kind
    /** Geometry: conv uses all 7 (inC,inH,inW,outC,outH,outW,kernel);
     *  dense/output use the first two (inFeatures, outFeatures). */
    std::array<int, 7> dims{};
    int activation = 0;         ///< the compiler's FusedActivation as int
    bool majorityChain = false; ///< output stages: from MajorityChainDense
    std::uint64_t streamLen = 0;
    int rngBits = 0;
    /** Compiler RNG state immediately before stream generation. */
    std::array<std::uint64_t, 4> rngState{};
    std::vector<float> weights;
    std::vector<float> biases;

    bool operator==(const StageSpec &) const = default;
};

/**
 * Canonical identity of a whole compiled plan: backend + engine options
 * + network architecture + flattened parameters.  Excludes threads and
 * cohort, which configure execution, not the compile product.
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
    std::uint64_t hits = 0;      ///< planHits + stageHits
    std::uint64_t misses = 0;    ///< planMisses + stageMisses
    std::uint64_t evictions = 0; ///< expired weak entries purged
    std::uint64_t planHits = 0;
    std::uint64_t planMisses = 0;
    std::uint64_t stageHits = 0;
    std::uint64_t stageMisses = 0;
    std::size_t residentPlans = 0;  ///< live interned plans
    std::size_t residentStages = 0; ///< live interned stage states
    /** Packed stream bytes of all live interned stage states. */
    std::size_t residentBytes = 0;
};

/**
 * The process-wide plan/weight-state cache.  Thread-safe; the intern
 * entry points run their build callbacks outside the cache lock (a plan
 * build interns its stages through the same cache), and a build that
 * races an identical insert adopts the first-inserted object so pointer
 * equality of equal specs holds even under contention.
 */
class PlanCache
{
  public:
    /** The singleton cache. */
    static PlanCache &instance();

    /** Whether interning is active (AQFPSC_DISABLE_PLAN_CACHE unset and
     *  not switched off via setEnabled).  When disabled every intern
     *  call builds cold and stores nothing. */
    bool enabled() const;

    /** Switch interning on/off at runtime (benches comparing cache-on
     *  vs. cache-off in one process).  Disabling does not drop existing
     *  entries; clear() does. */
    void setEnabled(bool enabled);

    /**
     * Return the live StageShared interned under @p spec, or run
     * @p build (outside the lock), intern its result, and return it.
     * Exactly one of {hit, miss} is counted per call.
     */
    std::shared_ptr<const stages::StageShared>
    internStage(const StageSpec &spec,
                const std::function<std::shared_ptr<const stages::StageShared>()>
                    &build);

    /** Plan-level intern; the contract mirrors internStage(). */
    std::shared_ptr<const stages::ExecutionPlan>
    internPlan(const PlanSpec &spec,
               const std::function<std::shared_ptr<const stages::ExecutionPlan>()>
                   &build);

    /** Counters plus resident gauges; sweeps expired entries (counted
     *  as evictions) so the gauges reflect live objects only. */
    PlanCacheStats stats();

    /** Drop every entry and reset all counters (test isolation). */
    void clear();

  private:
    PlanCache();

    struct StageSpecHash
    {
        std::size_t operator()(const StageSpec &s) const;
    };
    struct PlanSpecHash
    {
        std::size_t operator()(const PlanSpec &s) const;
    };

    /** Purge expired entries of @p map, counting them as evictions.
     *  Caller holds mu_. */
    template <typename Map> void purgeExpired(Map &map);

    mutable std::mutex mu_;
    bool enabled_ = true;
    std::unordered_map<StageSpec,
                       std::weak_ptr<const stages::StageShared>,
                       StageSpecHash>
        stageMap_;
    std::unordered_map<PlanSpec,
                       std::weak_ptr<const stages::ExecutionPlan>,
                       PlanSpecHash>
        planMap_;
    std::uint64_t planHits_ = 0;
    std::uint64_t planMisses_ = 0;
    std::uint64_t stageHits_ = 0;
    std::uint64_t stageMisses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_PLAN_CACHE_H
