/**
 * @file
 * Whole-network hardware accounting: instantiates the paper's spatial
 * architecture (one block per output neuron, fully pipelined) and sums
 * JJ / energy / latency / throughput on the AQFP side against the CMOS
 * SC baseline cost model (Table 9).
 *
 * Notes on the accounting:
 *  - Conv layers use the interior window size for every position; edge
 *    blocks are slightly smaller, so totals overestimate by a few percent
 *    at most.
 *  - SNG cost covers the primary inputs and all hardwired weights/biases
 *    (RNG-matrix sharing on the AQFP side; LFSR SNGs on the CMOS side).
 *  - AQFP throughput: one new image per stream (N cycles) -- the chip is
 *    fully pipelined at one stochastic bit per clock.  CMOS throughput is
 *    derated by the calibrated pipeline-stall factor of the counter-based
 *    activation datapath.
 */

#ifndef AQFPSC_CORE_HARDWARE_REPORT_H
#define AQFPSC_CORE_HARDWARE_REPORT_H

#include <string>
#include <vector>

#include "aqfp/energy_model.h"
#include "baseline/cmos_model.h"
#include "nn/network.h"

namespace aqfpsc::core {

/** Hardware figures of one mapped layer. */
struct LayerHardware
{
    std::string name;        ///< layer description
    long long instances = 0; ///< parallel block instances
    int blockInputs = 0;     ///< products per block (M / K)

    aqfp::HardwareCost aqfpPerBlock;    ///< one AQFP block, legalized
    baseline::CmosBlockCost cmosPerBlock; ///< one CMOS baseline block
};

/** Whole-network hardware figures. */
struct NetworkHardware
{
    std::vector<LayerHardware> layers;
    std::size_t streamLen = 0;

    long long aqfpTotalJj = 0;
    long long weightStreams = 0;   ///< SNG-converted streams (weights+bias)
    long long inputStreams = 0;    ///< primary-input SNGs
    long long aqfpSngJj = 0;

    double aqfpEnergyPerImageJ = 0.0;
    double aqfpLatencySeconds = 0.0;
    double aqfpThroughputImagesPerSec = 0.0;

    double cmosEnergyPerImageJ = 0.0;
    double cmosThroughputImagesPerSec = 0.0;
};

/**
 * Analyze @p net at stream length @p stream_len.  The report walks
 * core::stages::mapNetwork, the stage compiler's own mapping, so it
 * accepts exactly the networks the engine maps, and layers[s] costs
 * compiled stage s.  Block instances and input streams come from the
 * mapped shapes.
 *
 * @param fast When true, large feature-extraction netlists are costed
 *        from the sorting-network comparator counts plus calibrated
 *        buffer/splitter overhead instead of full legalization (used by
 *        the DNN row, where exact legalization of the 3000-input FC
 *        sorter is slow); small blocks are always legalized exactly.
 * @throws std::invalid_argument with mapNetwork's messages for a
 *         network the engine refuses to map.
 */
NetworkHardware
analyzeNetworkHardware(const nn::Network &net, std::size_t stream_len,
                       const aqfp::AqfpTechnology &aqfp_tech = {},
                       const baseline::CmosTechnology &cmos_tech = {},
                       bool fast = false);

/**
 * The *simulation host's* SIMD dispatch state (distinct from the
 * modeled hardware above): which kernel tier the CPU supports, which
 * one is active (env overrides or setActiveLevel may pin it lower),
 * and the per-kernel variant summary.  Recorded in bench report stamps
 * (bench_util.h) and printed by the CLI so committed BENCH_*.json are
 * comparable across hosts.
 */
struct HostSimdInfo
{
    std::string detected; ///< highest tier CPU + build support
    std::string active;   ///< tier the kernel table dispatches to
    std::string variants; ///< "kernel=tier" summary of the active table
};

HostSimdInfo hostSimdInfo();

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_HARDWARE_REPORT_H
