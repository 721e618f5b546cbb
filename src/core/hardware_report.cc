#include "hardware_report.h"

#include <map>
#include <variant>

#include "aqfp/passes.h"
#include "blocks/avg_pooling.h"
#include "blocks/categorization.h"
#include "blocks/feature_extraction.h"
#include "blocks/sng_block.h"
#include "core/stages/stage_compiler.h"
#include "sc/simd/simd.h"
#include "sorting/bitonic.h"

namespace aqfpsc::core {

namespace {

/** Cache of legalized block costs, keyed by (block kind, size). */
using CostCache = std::map<std::pair<char, int>, aqfp::HardwareCost>;

aqfp::HardwareCost
featureBlockCost(int m, const aqfp::AqfpTechnology &tech, bool fast,
                 CostCache &cache)
{
    const auto key = std::make_pair('F', m);
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;

    aqfp::HardwareCost cost;
    if (fast && m > 600) {
        // Estimate from the sorting-network comparator counts plus the
        // buffer/splitter overhead ratio calibrated on an exactly
        // legalized mid-size block.
        static double overhead = 0.0;
        static int overhead_depth_extra = 0;
        if (overhead == 0.0) {
            const aqfp::Netlist small = aqfp::legalize(
                blocks::FeatureExtractionBlock::buildNetlist(401),
                /*with_synthesis=*/false);
            const auto exact = aqfp::analyzeNetlist(small, tech);
            const auto net =
                sorting::BitonicNetwork::sortThenMerge(401, 401);
            const long long logic_jj =
                6LL * (2 * net.compareCount() + 3 * 401);
            overhead = static_cast<double>(exact.jj) /
                       static_cast<double>(logic_jj);
            overhead_depth_extra = exact.depthPhases - net.depth();
        }
        const int eff_m = m % 2 == 0 ? m + 1 : m;
        const auto net =
            sorting::BitonicNetwork::sortThenMerge(eff_m, eff_m);
        const long long logic_jj =
            6LL * (2 * net.compareCount() + 3 * m);
        cost.jj = static_cast<long long>(logic_jj * overhead);
        cost.gates = static_cast<std::size_t>(cost.jj / 5);
        cost.depthPhases = net.depth() + overhead_depth_extra;
        cost.energyPerCycleJ =
            static_cast<double>(cost.jj) * tech.energyPerJjPerCycle;
        cost.latencySeconds = cost.depthPhases * tech.cycleSeconds();
    } else {
        // Exact: build, legalize (synthesis pays off only on small
        // blocks; skip it on big sorters to bound analysis time).
        const aqfp::Netlist net = aqfp::legalize(
            blocks::FeatureExtractionBlock::buildNetlist(m),
            /*with_synthesis=*/m <= 256);
        cost = aqfp::analyzeNetlist(net, tech);
    }
    cache.emplace(key, cost);
    return cost;
}

aqfp::HardwareCost
poolingBlockCost(int m, const aqfp::AqfpTechnology &tech, CostCache &cache)
{
    const auto key = std::make_pair('P', m);
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    const aqfp::Netlist net =
        aqfp::legalize(blocks::AvgPoolingBlock::buildNetlist(m));
    const auto cost = aqfp::analyzeNetlist(net, tech);
    cache.emplace(key, cost);
    return cost;
}

aqfp::HardwareCost
categorizationBlockCost(int k, const aqfp::AqfpTechnology &tech,
                        CostCache &cache)
{
    const auto key = std::make_pair('C', k);
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    const aqfp::Netlist net = aqfp::legalize(
        blocks::CategorizationBlock::buildNetlist(k),
        /*with_synthesis=*/k <= 256);
    const auto cost = aqfp::analyzeNetlist(net, tech);
    cache.emplace(key, cost);
    return cost;
}

} // namespace

NetworkHardware
analyzeNetworkHardware(const nn::Network &net, std::size_t stream_len,
                       const aqfp::AqfpTechnology &aqfp_tech,
                       const baseline::CmosTechnology &cmos_tech, bool fast)
{
    NetworkHardware hw;
    hw.streamLen = stream_len;
    CostCache cache;
    const int rng_bits = 10;

    const std::vector<stages::MappedStage> mapped = stages::mapNetwork(net);
    for (const stages::MappedStage &m : mapped) {
        LayerHardware lh;
        lh.name = m.layer->name();
        if (const auto *g = std::get_if<stages::ConvGeometry>(&m.geometry)) {
            lh.blockInputs = g->inC * g->kernel * g->kernel + 1; // + bias
            lh.instances =
                static_cast<long long>(g->outC) * g->outH * g->outW;
        } else if (const auto *pool =
                       std::get_if<stages::PoolGeometry>(&m.geometry)) {
            lh.blockInputs = 4;
            lh.instances = static_cast<long long>(pool->channels) *
                           pool->outH * pool->outW;
        } else {
            // One block per output neuron: the output stage's are the
            // classes.
            const auto &d = std::get<stages::DenseGeometry>(m.geometry);
            lh.blockInputs = d.inFeatures + 1; // + bias
            lh.instances = d.outFeatures;
        }
        const int inputs = lh.blockInputs;
        if (m.kind == stages::StageKind::Pool) {
            lh.aqfpPerBlock = poolingBlockCost(inputs, aqfp_tech, cache);
            lh.cmosPerBlock = baseline::cmosMuxPoolingCost(inputs, cmos_tech);
        } else if (m.kind == stages::StageKind::Output) {
            lh.aqfpPerBlock =
                categorizationBlockCost(inputs, aqfp_tech, cache);
            lh.cmosPerBlock =
                baseline::cmosCategorizationCost(inputs, cmos_tech);
        } else {
            lh.aqfpPerBlock = featureBlockCost(inputs, aqfp_tech, fast, cache);
            lh.cmosPerBlock =
                baseline::cmosFeatureExtractionCost(inputs, cmos_tech);
        }
        for (const std::vector<float> *p : m.layer->params())
            hw.weightStreams += static_cast<long long>(p->size());
        hw.layers.push_back(lh);
    }

    // Primary inputs: what the first stage reads.
    hw.inputStreams = static_cast<long long>(mapped.front().in.elements);

    // AQFP totals.
    double aqfp_energy_cycle = 0.0;
    double latency = 0.0;
    for (const auto &lh : hw.layers) {
        hw.aqfpTotalJj += lh.instances * lh.aqfpPerBlock.jj;
        aqfp_energy_cycle += static_cast<double>(lh.instances) *
                             lh.aqfpPerBlock.energyPerCycleJ;
        latency += lh.aqfpPerBlock.latencySeconds;
    }
    const blocks::SngBankCost sng = blocks::analyzeSngBank(
        static_cast<int>(hw.weightStreams + hw.inputStreams), rng_bits,
        /*shared_matrix=*/true);
    hw.aqfpSngJj = sng.totalJj();
    hw.aqfpTotalJj += hw.aqfpSngJj;
    aqfp_energy_cycle += static_cast<double>(hw.aqfpSngJj) *
                         aqfp_tech.energyPerJjPerCycle;

    hw.aqfpEnergyPerImageJ =
        aqfp_energy_cycle * static_cast<double>(stream_len);
    hw.aqfpLatencySeconds =
        latency + static_cast<double>(stream_len) * aqfp_tech.cycleSeconds();
    hw.aqfpThroughputImagesPerSec =
        1.0 / (static_cast<double>(stream_len) * aqfp_tech.cycleSeconds());

    // CMOS totals.
    double cmos_energy_cycle = 0.0;
    for (const auto &lh : hw.layers) {
        cmos_energy_cycle += static_cast<double>(lh.instances) *
                             lh.cmosPerBlock.energyPerCycleJ;
    }
    const baseline::CmosBlockCost cmos_sng =
        baseline::cmosSngCost(rng_bits, cmos_tech);
    cmos_energy_cycle +=
        static_cast<double>(hw.weightStreams + hw.inputStreams) *
        cmos_sng.energyPerCycleJ;
    hw.cmosEnergyPerImageJ =
        cmos_energy_cycle * static_cast<double>(stream_len);
    hw.cmosThroughputImagesPerSec =
        cmos_tech.clockFrequencyHz /
        (static_cast<double>(stream_len) * cmos_tech.pipelineStallFactor);

    return hw;
}

HostSimdInfo
hostSimdInfo()
{
    HostSimdInfo info;
    info.detected = sc::simd::levelName(sc::simd::detectedLevel());
    info.active = sc::simd::levelName(sc::simd::activeLevel());
    info.variants = sc::simd::variantSummary();
    return info;
}

} // namespace aqfpsc::core
