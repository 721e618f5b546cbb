/**
 * @file
 * Kernel-table resolution: cpuid feature detection, the scalar
 * table, and the process-wide active-table pointer (resolved
 * once at static init, AQFPSC_FORCE_SCALAR override, swappable from
 * tests via setActiveLevel()).
 */

#include "simd.h"

#include <atomic>
#include <cstdlib>

#include "feedback_kernel.h"
#include "kernels_scalar.h"
#include "row_kernel.h"
#include "xoshiro_kernel.h"

namespace aqfpsc::sc::simd {

namespace {

/** One packed word per lane: the feedback kernel in a general-purpose
 *  register. */
struct WordLane : detail::GprLane
{
    static V ones() { return ~0ULL; }
    static V broadcast(std::uint64_t x) { return x; }
    static V bitNot(V a) { return ~a; }
    static V bitOr(V a, V b) { return a | b; }
    static V maj(V a, V b, V c) { return (a & b) | (c & (a | b)); }
    static V borrow(V a, V b, V c) { return maj(~a, b, c); }
    static V select(V m, V a, V b) { return (m & a) | (~m & b); }
    template <int S>
    static V
    shiftRight(V a)
    {
        return a >> S;
    }
    V
    gather(const std::uint64_t *p, std::size_t /*stride*/,
           std::size_t lanes) const
    {
        return lanes != 0 ? *p : 0;
    }
    void
    scatter(std::uint64_t *p, std::size_t /*stride*/, std::size_t lanes,
            V v) const
    {
        if (lanes != 0)
            *p = v;
    }
};

/** The tile kernel one word at a time. */
template <int P>
struct ScalarTile
{
    static void
    run(const XnorTile &t)
    {
        detail::xnorTileRows<P, void>(t, [&t](auto &&sum) {
            for (std::size_t wi = 0; wi < t.words; ++wi)
                sum(detail::GprLane{}, wi);
        });
    }
};

void
scalarAddXnorTile(const XnorTile &tile)
{
    detail::addXnorTileWith<ScalarTile>(tile);
}

void
scalarFeatureFeedback(const FeedbackTile &tile)
{
    detail::feedbackRows<WordLane>(tile, 0);
}

std::uint64_t
scalarThresholdPack(const std::uint64_t *rnd, std::size_t n,
                    std::uint64_t threshold)
{
    return detail::thresholdPackBits(rnd, 0, n, threshold);
}

/** Scalar generators interleave in pairs: two independent recurrences
 *  fill the issue slots one leaves idle. */
void
scalarLaneSngFill(XoshiroLanes &gen, const std::uint64_t threshold[],
                  const std::uint64_t ones[], std::uint64_t *const dst[],
                  std::size_t cycles)
{
    using detail::GprLane;
    std::size_t first = 0;
    for (; gen.lanes - first >= 2; first += 2)
        detail::laneSngFillGroups<GprLane, 2>(gen, threshold, ones, dst,
                                              cycles, first);
    if (first < gen.lanes)
        detail::laneSngFillGroups<GprLane, 1>(gen, threshold, ones, dst,
                                              cycles, first);
}

void
scalarLaneMuxSelects(XoshiroLanes &gen, std::uint64_t *const high[],
                     std::uint64_t *const low[], std::size_t cycles)
{
    using detail::GprLane;
    std::size_t first = 0;
    for (; gen.lanes - first >= 2; first += 2)
        detail::laneMuxSelectsGroups<GprLane, 2>(gen, high, low, cycles,
                                                 first);
    if (first < gen.lanes)
        detail::laneMuxSelectsGroups<GprLane, 1>(gen, high, low, cycles,
                                                 first);
}

constexpr KernelTable kScalarTable = {
    "scalar",
    scalarAddXnorTile,
    scalarFeatureFeedback,
    scalarThresholdPack,
    scalarLaneSngFill,
    scalarLaneMuxSelects,
};

// Constant-initialized, so kernels() is safe from any other TU's static
// init (a null table reads as scalar until the resolver below runs).
std::atomic<const KernelTable *> g_table{nullptr};
std::atomic<Level> g_level{Level::Scalar};

const KernelTable *
tableFor(Level level)
{
    switch (level) {
    case Level::Avx512:
        return avx512Kernels();
    case Level::Avx2:
        return avx2Kernels();
    case Level::Scalar:
        break;
    }
    return &kScalarTable;
}

/** Resolves the table once at static init (env override included). */
const struct DispatchInit
{
    DispatchInit()
    {
        setActiveLevel(resolveLevel(detectedLevel(),
                                    std::getenv("AQFPSC_FORCE_SCALAR")));
    }
} g_dispatch_init;

} // namespace

const char *
levelName(Level level)
{
    switch (level) {
    case Level::Avx512:
        return "avx512";
    case Level::Avx2:
        return "avx2";
    case Level::Scalar:
        break;
    }
    return "scalar";
}

Level
detectedLevel()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    static const Level detected = [] {
        if (__builtin_cpu_supports("avx512f") &&
            __builtin_cpu_supports("avx512bw") &&
            __builtin_cpu_supports("avx512dq") &&
            __builtin_cpu_supports("avx512vl") && avx512Kernels() != nullptr)
            return Level::Avx512;
        if (__builtin_cpu_supports("avx2") && avx2Kernels() != nullptr)
            return Level::Avx2;
        return Level::Scalar;
    }();
    return detected;
#else
    return Level::Scalar;
#endif
}

Level
resolveLevel(Level detected, const char *force_scalar_env)
{
    if (force_scalar_env != nullptr && force_scalar_env[0] != '\0' &&
        !(force_scalar_env[0] == '0' && force_scalar_env[1] == '\0'))
        return Level::Scalar;
    return detected;
}

const KernelTable &
kernels()
{
    const KernelTable *t = g_table.load(std::memory_order_relaxed);
    return t != nullptr ? *t : kScalarTable;
}

Level
activeLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

bool
setActiveLevel(Level level)
{
    if (static_cast<int>(level) > static_cast<int>(detectedLevel()))
        return false;
    const KernelTable *t = tableFor(level);
    if (t == nullptr)
        return false;
    g_table.store(t, std::memory_order_relaxed);
    g_level.store(level, std::memory_order_relaxed);
    return true;
}

std::string
variantSummary()
{
    const char *name = kernels().name;
    std::string out;
    for (const char *kernel : kKernelNames) {
        if (!out.empty())
            out += ' ';
        out += kernel;
        out += '=';
        out += name;
    }
    return out;
}

const KernelTable *
scalarKernels()
{
    return &kScalarTable;
}

} // namespace aqfpsc::sc::simd
