/**
 * @file
 * Runtime ISA dispatch for the SC kernel hot loops.
 *
 * Four loops dominate stream execution: the carry-save accumulation
 * of a linear stage's XNOR products, a tile of rows for a whole cohort
 * at a time (XnorTile), the feedback recurrence that turns a tile of
 * rows' counts into output streams (the AQFP sorter's Algorithm 1 or
 * the CMOS Btanh counter, feedback_kernel.h), the threshold compare of
 * the SNG fill
 * (StreamMatrix::fillBipolar) and the xoshiro256** generators
 * themselves.  One generator's recurrence is serial, but a cohort's
 * input SNGs and a pool pixel's MUX selects use independent ones, so
 * the lane kernels (xoshiro_kernel.h) step up to kXoshiroLanes of them
 * side by side, one per 64-bit lane, with the SNG compare or the MUX
 * select extraction fused in (sc::fillBipolarLanes,
 * core::stages::muxPoolLanes).  This layer supplies their vector
 * kernels and picks one implementation per process:
 *
 *  - kernels() returns a per-kernel function-pointer table resolved
 *    once at static init from cpuid feature detection (scalar, AVX2 or
 *    AVX-512), overridable with the AQFPSC_FORCE_SCALAR env var (any
 *    non-empty value other than "0" forces the scalar table).
 *  - The AVX TUs are compiled with per-file arch flags (see
 *    CMakeLists.txt) and degrade to stubs when the compiler lacks the
 *    flag, so the binary stays portable: no vector instruction executes
 *    unless the running CPU advertises the feature.
 *  - Every kernel is bit-identical to the scalar reference: the
 *    carry-save planes hold exact binary counts, which do not depend on
 *    how the additions are grouped or laid out in lanes, so the tile
 *    kernel's adder tree (row_kernel.h) stores the same planes as one
 *    ripple per product (kernels_scalar.h); the feedback kernel runs
 *    the integer recurrence of blocks::FeatureFeedbackUnit or of
 *    btanhStep with bit-sliced adders and comparators, one row per bit
 *    lane; the threshold compare performs the same unsigned compare per
 *    RNG word; the lane kernels apply the same xoshiro256** step to
 *    each lane's own state, so each generator draws the same words in
 *    the same order as Xoshiro256StarStar::nextWords (only different
 *    generators interleave).  tests/test_simd_kernels.cc pins this on
 *    every tier, and the golden score hashes pin it end to end.
 *
 * setActiveLevel() exists for tests and benches that need to compare
 * variants in-process; it swaps an atomic table pointer, so it must not
 * race with in-flight inference (call it between runs).
 */

#ifndef AQFPSC_SC_SIMD_SIMD_H
#define AQFPSC_SC_SIMD_SIMD_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace aqfpsc::sc::simd {

/** Kernel implementation tiers, ordered by preference. */
enum class Level
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/** Stable lowercase name ("scalar", "avx2", "avx512") for reports. */
const char *levelName(Level level);

/**
 * One image's carry-save planes, decoupled from ColumnCounts internals:
 * plane k of word wi lives at planes[k * stride + wi].
 */
struct PlaneSpan
{
    std::uint64_t *planes;
    std::size_t stride;
    int planeCount;
};

/**
 * The operand lists of a linear stage's rows, as the tile kernel reads
 * them (a view of core::stages::OperandPlan).  Rows that differ only by
 * group (output channel or neuron) share one list: row r is in group
 * g = r / lists and reads list l = r % lists, whose products are the
 * entries i in [first[l], first[l + 1]) of
 *
 *     ~(input row xrow[i] ^ weight row g * groupStride + wrow[i]).
 *
 * Each row then adds two constant products whose input is the all-ones
 * stream, so they enter the count as they are: bias row g and, for a
 * padded stage whose row count m = products + 1 is even, the neutral
 * pad row.
 *
 * run[l] (>= 1) counts the lists from l on, up to the group's last,
 * that are list l with every input row shifted by their distance from
 * l (same weight rows): a run of conv pixels along an output row, which
 * the kernel sums side by side.
 */
struct OperandLists
{
    const std::uint32_t *first; ///< lists + 1 offsets
    const std::uint32_t *xrow;
    const std::uint32_t *wrow;
    const std::uint8_t *run;
    std::size_t lists;
    std::size_t groupStride;
};

/**
 * Rows [row0, row0 + rows) of a linear stage, summed for each image of
 * a cohort over one span of @c words words (words [0, words) of every
 * operand pointer below, which the caller offsets to the span's first
 * word).  Weight row i is at weights + i * paramStride, bias row g at
 * bias + g * paramStride; image c's input row i at
 * inputs[c] + i * inputStride.  Tile row t of image c gets count plane k,
 * word w at planes[c][t * rowStride + k * planeStride + w]: the exact
 * per-cycle count of its products, stored over whatever the planes
 * held (rowStride = planeCount * words, planeStride = words is the
 * span-compact FeedbackTile layout).
 */
struct XnorTile
{
    OperandLists ops;
    std::size_t row0;
    std::size_t rows;
    bool padToOdd; ///< add the neutral row to rows of even m
    const std::uint64_t *weights;
    const std::uint64_t *bias;
    const std::uint64_t *neutral;
    std::size_t paramStride;
    const std::uint64_t *const *inputs; ///< one per image
    std::size_t inputStride;
    std::uint64_t *const *planes; ///< one per image
    std::size_t rowStride;
    std::size_t planeStride;
    std::size_t images;
    std::size_t words;
    int planeCount; ///< [1, kMaxFeedbackPlanes], holds every row's count
};

/** Sum every row of @p tile for every image (see XnorTile). */
using AddXnorTileFn = void (*)(const XnorTile &tile);

/** Rows one feedback kernel call drives: 64 bit lanes times the 8
 *  words of the widest (AVX-512) register. */
inline constexpr std::size_t kFeedbackTileRows = 512;

/** Most count planes the tile and feedback kernels handle (column
 *  counts < 4096): the linear stages refuse a fan-in whose counts need
 *  more (core::stages::LinearScStage). */
inline constexpr int kMaxFeedbackPlanes = 12;

/** The per-row recurrence a FeedbackTile runs (feedback_kernel.h). */
enum class FeedbackRecurrence
{
    /** Algorithm 1, counter form (blocks::FeatureFeedbackUnit): m is
     *  the odd sorter input count M, the state the feedback count in
     *  [0, M], planeCount planes. */
    SorterMajority,
    /** SC-DCNN Btanh (baseline::ApcFeatureExtraction::btanhStep with
     *  s_max = 2m): m is the product count, the state the counter in
     *  [0, 2m), planeCount + 1 planes. */
    Btanh,
};

/**
 * A tile of feedback rows for the feedback kernel.  Row t of the tile
 * has
 *
 *  - count plane k, word w at planes[t * rowStride + k * planeStride + w]
 *    (bit b of that word is bit k of the cycle 64w + b column count, as
 *    in ColumnCounts; counts never exceed the row's m);
 *  - its m (>= 1, < 2^planeCount) and its recurrence state, bit-sliced:
 *    bit t % 64 of m[k * sliceStride + t / 64] is bit k of m, and
 *    likewise for state;
 *  - its output stream at out[t * outStride + w].
 *
 * m and state hold kFeedbackTileRows / 64 words per plane (whole
 * registers); the state bits of rows past @c rows are unspecified
 * afterwards.
 */
struct FeedbackTile
{
    const std::uint64_t *planes;
    std::size_t rowStride;
    std::size_t planeStride;
    int planeCount; ///< [1, kMaxFeedbackPlanes]
    std::size_t rows; ///< [1, kFeedbackTileRows]
    const std::uint64_t *m;
    std::uint64_t *state; ///< in/out (see FeedbackRecurrence)
    std::size_t sliceStride;
    std::uint64_t *out;
    std::size_t outStride;
    std::size_t cycles; ///< drives words [0, ceil(cycles / 64))
    FeedbackRecurrence recurrence = FeedbackRecurrence::SorterMajority;
};

/**
 * Step every row of @p tile through @c cycles cycles of its recurrence
 * from its state, writing the output bits (tail bits of the last word
 * zero) and the final states.
 */
using FeatureFeedbackFn = void (*)(const FeedbackTile &tile);

/** Pack (rnd[b] < threshold) for b in [0, n) into one stream word. */
using ThresholdPackFn = std::uint64_t (*)(const std::uint64_t *rnd,
                                          std::size_t n,
                                          std::uint64_t threshold);

/** Generators one lane-parallel xoshiro kernel call steps: one per
 *  64-bit lane of the widest (AVX-512) register. */
inline constexpr std::size_t kXoshiroLanes = 8;

/**
 * Up to kXoshiroLanes independent xoshiro256** generators for the
 * lane-parallel kernels (xoshiro_kernel.h): lane l's state is
 * (s[0][l], s[1][l], s[2][l], s[3][l]), in Xoshiro256StarStar::state()
 * order.  A kernel call steps every lane once per cycle and leaves each
 * lane's final state here.  The lanes past @c lanes are stepped too, so
 * keep them initialized (the value-initialized zero state is fine).
 */
struct XoshiroLanes
{
    std::uint64_t s[4][kXoshiroLanes] = {};
    std::size_t lanes = 0; ///< [1, kXoshiroLanes]
};

/**
 * The SNG fill of one row per lane, with the compare+pack fused into
 * generation: lane l draws @p cycles words and writes words
 * [0, ceil(cycles / 64)) of dst[l], bit b of word w being
 * (draw 64w + b < threshold[l]) | bit b of ones[l] (tail bits zero).
 * threshold and ones hold kXoshiroLanes entries.
 */
using LaneSngFillFn = void (*)(XoshiroLanes &gen,
                               const std::uint64_t threshold[],
                               const std::uint64_t ones[],
                               std::uint64_t *const dst[],
                               std::size_t cycles);

/**
 * The CMOS MUX pool's select draws: lane l draws @p cycles words, and
 * bit b of word w of high[l] (low[l]) is bit 63 (62) of draw 64w + b,
 * the select's high (low) bit (tail bits zero).
 */
using LaneMuxSelectsFn = void (*)(XoshiroLanes &gen,
                                  std::uint64_t *const high[],
                                  std::uint64_t *const low[],
                                  std::size_t cycles);

/** The per-kernel dispatch table (one per implementation tier). */
struct KernelTable
{
    const char *name; ///< levelName() of the implementing tier.
    AddXnorTileFn addXnorTile;
    FeatureFeedbackFn featureFeedback;
    ThresholdPackFn thresholdPack;
    LaneSngFillFn laneSngFill;
    LaneMuxSelectsFn laneMuxSelects;
};

/** KernelTable's kernels in field order: the names variantSummary()
 *  stamps.  Keep in step with the struct (the size check below). */
inline constexpr const char *kKernelNames[] = {
    "addXnorTile", "featureFeedback", "thresholdPack", "laneSngFill",
    "laneMuxSelects"};
static_assert(sizeof(KernelTable) ==
                  sizeof(const char *) +
                      sizeof(kKernelNames) / sizeof(kKernelNames[0]) *
                          sizeof(ThresholdPackFn),
              "kKernelNames must list every KernelTable kernel");

/** The active table.  Safe during static init (falls back to scalar). */
const KernelTable &kernels();

/** Highest tier both this build and the running CPU support. */
Level detectedLevel();

/** Tier of the currently active table. */
Level activeLevel();

/**
 * Swap the active table (tests/benches only — not safe concurrently
 * with running kernels).  Fails (returns false, no change) when the
 * requested tier exceeds detectedLevel().
 */
bool setActiveLevel(Level level);

/** "kernel=tier" per kKernelNames entry, for report stamps. */
std::string variantSummary();

/**
 * Env-override policy, exposed pure for tests: AQFPSC_FORCE_SCALAR
 * unset, empty or "0" keeps @p detected; anything else forces scalar.
 */
Level resolveLevel(Level detected, const char *force_scalar_env);

/** Per-tier tables; AVX accessors return nullptr when the TU was
 *  compiled without the arch flag (non-x86 or old compiler). */
const KernelTable *scalarKernels();
const KernelTable *avx2Kernels();
const KernelTable *avx512Kernels();

} // namespace aqfpsc::sc::simd

#endif // AQFPSC_SC_SIMD_SIMD_H
