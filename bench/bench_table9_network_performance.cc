/**
 * @file
 * Table 8 + Table 9 reproduction: end-to-end network performance
 * (accuracy / energy / throughput) for the shallow (SNN) and deep (DNN)
 * networks on three platforms:
 *
 *  - Software: float inference of the trained network;
 *  - AQFP: stochastic-computing inference through the sorter /
 *    majority-chain blocks (backend "aqfp-sorter") with hardware figures
 *    from legalized netlists;
 *  - CMOS: SC-DCNN-style inference (APC + Btanh + MUX pooling,
 *    backend "cmos-apc") with figures from the 40 nm model.  The CMOS
 *    platform scores classes with linear APC accumulation, so it gets a
 *    linear output head trained on the same frozen features (the
 *    majority-chain weights are specific to the AQFP output structure).
 *
 * Substitution note: networks are trained on the synthetic digit dataset
 * (DESIGN.md Sec. 3); trained weights are cached under aqfpsc_assets/ so
 * reruns skip training.  SC accuracies are evaluated on test subsets
 * sized for a single-core machine (exact counts printed).
 */

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "bench_util.h"
#include "core/hardware_report.h"
#include "core/model_zoo.h"
#include "core/session.h"
#include "data/digits.h"

namespace {

using namespace aqfpsc;

constexpr const char *kAssetDir = "aqfpsc_assets";

/** Trains (or loads a cached model artifact for) one network. */
void
obtainWeights(nn::Network &net, const std::string &tag, int train_samples,
              int epochs, std::vector<nn::Sample> &train_set)
{
    std::filesystem::create_directories(kAssetDir);
    // Versioned model artifacts; fall back to the legacy weights-only
    // cache so pre-existing asset dirs keep skipping training.
    const std::string model_path =
        std::string(kAssetDir) + "/" + tag + ".model";
    const std::string path = std::string(kAssetDir) + "/" + tag + ".bin";
    if (std::filesystem::exists(model_path)) {
        net = nn::Network::loadModel(model_path);
        std::printf("[%s] loaded cached model from %s\n", tag.c_str(),
                    model_path.c_str());
        return;
    }
    if (net.loadWeights(path)) {
        std::printf("[%s] loaded cached weights from %s\n", tag.c_str(),
                    path.c_str());
        return;
    }
    std::printf("[%s] training on %d synthetic digits, %d epochs...\n",
                tag.c_str(), train_samples, epochs);
    std::fflush(stdout);
    nn::TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.learningRate = 0.08f;
    cfg.verbose = true;
    std::vector<nn::Sample> subset(
        train_set.begin(),
        train_set.begin() + std::min<std::size_t>(train_set.size(),
                                                  static_cast<std::size_t>(
                                                      train_samples)));
    net.train(subset, cfg);
    net.quantizeParams(10);
    if (!net.saveModel(model_path))
        std::printf("[%s] warning: could not cache model\n", tag.c_str());
}

/**
 * Builds the CMOS evaluation network: same body weights as @p aqfp_net
 * (layers 0 .. n-2) with a linear Dense head trained on the frozen
 * features -- the APC baseline scores classes linearly.
 */
nn::Network
buildCmosVariant(const nn::Network &aqfp_net, nn::Network &&same_arch_linear,
                 const std::vector<nn::Sample> &train_set, int head_samples)
{
    nn::Network cmos = std::move(same_arch_linear);
    // Copy all body parameters (every layer except the output head).
    for (std::size_t li = 0; li + 1 < aqfp_net.layerCount(); ++li) {
        auto src = const_cast<nn::Network &>(aqfp_net).layer(li).params();
        auto dst = cmos.layer(li).params();
        for (std::size_t p = 0; p < src.size(); ++p)
            *dst[p] = *src[p];
    }
    // Extract features through the body and train only the linear head.
    const std::size_t body_layers = cmos.layerCount() - 1;
    std::vector<nn::Sample> features;
    const int n = std::min<int>(head_samples,
                                static_cast<int>(train_set.size()));
    features.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        nn::Tensor f = train_set[static_cast<std::size_t>(i)].image;
        for (std::size_t li = 0; li < body_layers; ++li)
            f = cmos.layer(li).forward(f);
        nn::Sample s;
        s.image = nn::Tensor({static_cast<int>(f.size())});
        for (std::size_t j = 0; j < f.size(); ++j)
            s.image[j] = f[j];
        s.label = train_set[static_cast<std::size_t>(i)].label;
        features.push_back(std::move(s));
    }
    auto *head = dynamic_cast<nn::Dense *>(
        &cmos.layer(cmos.layerCount() - 1));
    nn::Network head_net;
    head_net.add(std::make_unique<nn::Dense>(head->inFeatures(),
                                             head->outFeatures(), 77));
    nn::TrainConfig cfg;
    cfg.epochs = 8;
    cfg.learningRate = 0.05f;
    head_net.train(features, cfg);
    head_net.quantizeParams(10);
    *head->params()[0] = *head_net.layer(0).params()[0];
    *head->params()[1] = *head_net.layer(0).params()[1];
    return cmos;
}

void
printTable8()
{
    bench::banner("Table 8: DNN layer configuration");
    bench::header({"layer", "kernel", "stride"});
    bench::row({"Conv3_x", "[3x3, 32]", "1"});
    bench::row({"Conv5_x", "[5x5, 32]", "1"});
    bench::row({"Conv7_x", "[7x7, 64]", "1"});
    bench::row({"AvgPool", "[2x2]", "2"});
    bench::row({"FC500", "500", "-"});
    bench::row({"FC800", "800", "-"});
}

struct NetResult
{
    double software = 0.0;
    core::ScEvalStats aqfp_t1;  ///< AQFP batch at 1 thread
    core::ScEvalStats aqfp_t8;  ///< AQFP batch at 8 threads
    core::ScEvalStats cmos;     ///< CMOS baseline batch (8 threads)
    bool deterministic = false; ///< per-image predictions equal at 1 vs 8
    core::EngineOptions aqfpCfg; ///< engine stamps for the JSON report
    core::EngineOptions cmosCfg;
    core::NetworkHardware hw;
};

constexpr int kBatchThreads = 8;

/** Per-image score-level equality of two batch prediction sets. */
bool
predictionsMatch(const std::vector<core::ScPrediction> &a,
                 const std::vector<core::ScPrediction> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].label != b[i].label || a[i].scores != b[i].scores)
            return false;
    }
    return true;
}

/** Score a timed batch-prediction run into ScEvalStats. */
core::ScEvalStats
scoreBatch(const std::vector<core::ScPrediction> &predictions,
           const std::vector<nn::Sample> &samples, double wall_seconds)
{
    core::ScEvalStats stats;
    stats.images = predictions.size();
    stats.wallSeconds = wall_seconds;
    if (predictions.empty())
        return stats;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < predictions.size(); ++i) {
        if (predictions[i].label == samples[i].label)
            ++correct;
    }
    stats.accuracy = static_cast<double>(correct) /
                     static_cast<double>(predictions.size());
    stats.imagesPerSec =
        wall_seconds > 0.0
            ? static_cast<double>(predictions.size()) / wall_seconds
            : 0.0;
    return stats;
}

/** @param net Taken by value: the trained network moves into the AQFP
 *  session, so the caller visibly gives up ownership at the call site. */
NetResult
runNetwork(const std::string &tag, nn::Network net,
           nn::Network &&linear_arch, std::vector<nn::Sample> &train_set,
           const std::vector<nn::Sample> &test_set, int train_samples,
           int epochs, int sc_images, int float_images, bool fast_hw)
{
    NetResult r;
    obtainWeights(net, tag, train_samples, epochs, train_set);

    std::printf("[%s] software evaluation (%d images)...\n", tag.c_str(),
                float_images);
    std::fflush(stdout);
    std::vector<nn::Sample> test_subset(
        test_set.begin(),
        test_set.begin() + std::min<std::size_t>(
                               test_set.size(),
                               static_cast<std::size_t>(float_images)));
    r.software = net.evaluate(test_subset);

    std::printf("[%s] AQFP SC inference (%d images, N=1024, 1 vs %d "
                "threads)\n",
                tag.c_str(), sc_images, kBatchThreads);
    std::fflush(stdout);
    core::EngineOptions aqfp_opts;
    aqfp_opts.backend = "aqfp-sorter";
    aqfp_opts.streamLen = 1024;
    const core::InferenceSession aqfp(std::move(net), aqfp_opts);
    aqfp.engine(); // compile outside the timed region
    bench::WallTimer timer;
    const auto p1 = aqfp.predict(
        test_set, {.limit = sc_images, .threads = 1, .progress = true});
    r.aqfp_t1 = scoreBatch(p1, test_set, timer.seconds());
    timer.reset();
    const auto p8 =
        aqfp.predict(test_set, {.limit = sc_images,
                                .threads = kBatchThreads,
                                .progress = true});
    r.aqfp_t8 = scoreBatch(p8, test_set, timer.seconds());
    r.deterministic = predictionsMatch(p1, p8);
    if (!r.deterministic) {
        std::printf("[%s] WARNING: thread count changed predictions "
                    "(determinism violation!)\n",
                    tag.c_str());
    }

    std::printf("[%s] CMOS SC baseline inference (%d images, N=1024)\n",
                tag.c_str(), sc_images);
    std::fflush(stdout);
    core::EngineOptions cmos_opts;
    cmos_opts.backend = "cmos-apc";
    cmos_opts.streamLen = 1024;
    cmos_opts.threads = kBatchThreads;
    const core::InferenceSession cmos(
        buildCmosVariant(aqfp.network(), std::move(linear_arch), train_set,
                         1200),
        cmos_opts);
    r.cmos = cmos.evaluate(test_set,
                           {.limit = sc_images, .progress = true});
    r.aqfpCfg = aqfp.engine().config();
    r.cmosCfg = cmos.engine().config();

    std::printf("[%s] hardware analysis...\n", tag.c_str());
    std::fflush(stdout);
    r.hw = core::analyzeNetworkHardware(aqfp.network(), 1024, {}, {},
                                        fast_hw);
    return r;
}

void
printResult(const std::string &name, const NetResult &r, double p_sw,
            double p_cmos_acc, double p_aqfp_acc, double p_cmos_uj,
            double p_aqfp_uj, double p_cmos_tp, double p_aqfp_tp)
{
    bench::header({"platform", "accuracy", "energy(uJ)", "imgs/ms"});
    bench::row({"Software", bench::cell(r.software * 100, 2) + "%", "-",
                "-"});
    bench::row({"CMOS", bench::cell(r.cmos.accuracy * 100, 2) + "%",
                bench::cell(r.hw.cmosEnergyPerImageJ * 1e6, 3),
                bench::cell(r.hw.cmosThroughputImagesPerSec / 1e3, 0)});
    bench::row({"AQFP", bench::cell(r.aqfp_t8.accuracy * 100, 2) + "%",
                bench::sci(r.hw.aqfpEnergyPerImageJ * 1e6),
                bench::cell(r.hw.aqfpThroughputImagesPerSec / 1e3, 0)});
    std::printf("  SC simulation: %.2fs at 1 thread, %.2fs at %d threads "
                "(%.2fx speedup, %.2f img/s)\n",
                r.aqfp_t1.wallSeconds, r.aqfp_t8.wallSeconds,
                kBatchThreads,
                r.aqfp_t8.wallSeconds > 0.0
                    ? r.aqfp_t1.wallSeconds / r.aqfp_t8.wallSeconds
                    : 0.0,
                r.aqfp_t8.imagesPerSec);
    std::printf("  energy improvement (CMOS/AQFP): %s (paper: %s)\n",
                bench::sci(r.hw.cmosEnergyPerImageJ /
                           r.hw.aqfpEnergyPerImageJ, 2)
                    .c_str(),
                bench::sci(p_cmos_uj / p_aqfp_uj, 2).c_str());
    std::printf("  throughput improvement (AQFP/CMOS): %.1fx (paper: "
                "%.1fx)\n",
                r.hw.aqfpThroughputImagesPerSec /
                    r.hw.cmosThroughputImagesPerSec,
                p_aqfp_tp / p_cmos_tp);
    std::printf("  paper (%s on MNIST): software %.2f%%, CMOS %.2f%% / "
                "%.2f uJ / %.0f img/ms, AQFP %.2f%% / %.3e uJ / %.0f "
                "img/ms\n",
                name.c_str(), p_sw, p_cmos_acc, p_cmos_uj, p_cmos_tp,
                p_aqfp_acc, p_aqfp_uj, p_aqfp_tp);
    std::printf("  AQFP JJ count: %lld (incl. %lld SNG JJ); latency/image "
                "%.1f ns\n",
                r.hw.aqfpTotalJj, r.hw.aqfpSngJj,
                r.hw.aqfpLatencySeconds * 1e9);
}

/** Machine-readable record of one network's results. */
bench::Json
resultToJson(const std::string &name, const NetResult &r)
{
    bench::Json eval1 = bench::Json::object();
    eval1.set("wall_seconds", r.aqfp_t1.wallSeconds)
        .set("images_per_sec", r.aqfp_t1.imagesPerSec)
        .set("threads", 1);
    bench::Json eval8 = bench::Json::object();
    eval8.set("wall_seconds", r.aqfp_t8.wallSeconds)
        .set("images_per_sec", r.aqfp_t8.imagesPerSec)
        .set("threads", kBatchThreads);

    bench::Json j = bench::Json::object();
    j.set("network", name)
        .set("config", bench::Json::object()
                           .set("stream_len", 1024)
                           .set("sc_images", r.aqfp_t8.images)
                           .set("batch_threads", kBatchThreads)
                           .set("hardware_threads",
                                static_cast<int>(
                                    std::thread::hardware_concurrency())))
        .set("aqfp_engine", bench::engineJson(r.aqfpCfg))
        .set("cmos_engine", bench::engineJson(r.cmosCfg))
        .set("accuracy", bench::Json::object()
                             .set("software", r.software)
                             .set("aqfp_sc", r.aqfp_t8.accuracy)
                             .set("cmos_sc", r.cmos.accuracy))
        .set("batch_eval_single", std::move(eval1))
        .set("batch_eval_parallel", std::move(eval8))
        .set("thread_speedup",
             r.aqfp_t8.wallSeconds > 0.0
                 ? r.aqfp_t1.wallSeconds / r.aqfp_t8.wallSeconds
                 : 0.0)
        .set("deterministic_across_threads", r.deterministic)
        .set("hardware",
             bench::Json::object()
                 .set("aqfp_energy_per_image_j", r.hw.aqfpEnergyPerImageJ)
                 .set("cmos_energy_per_image_j", r.hw.cmosEnergyPerImageJ)
                 .set("aqfp_throughput_images_per_sec",
                      r.hw.aqfpThroughputImagesPerSec)
                 .set("cmos_throughput_images_per_sec",
                      r.hw.cmosThroughputImagesPerSec)
                 .set("aqfp_total_jj",
                      static_cast<long long>(r.hw.aqfpTotalJj)));
    return j;
}

} // namespace

int
main()
{
    printTable8();

    bench::banner("Table 9: network performance comparison "
                  "(synthetic-digit substitution for MNIST)");

    auto train_set = data::generateDigits(2500, 20260612);
    const auto test_set = data::generateDigits(500, 424242);

    bench::WallTimer total_timer;
    bench::Json networks = bench::Json::array();

    // ------------------------------------------------------------ SNN
    {
        nn::Network snn = core::buildSnn(5);
        nn::Network snn_linear;
        {
            // Same architecture with a linear output head for CMOS.
            nn::Network &n = snn_linear;
            n.add(std::make_unique<nn::Conv2D>(1, 32, 3, 5 + 11));
            n.add(std::make_unique<nn::SorterTanh>());
            n.add(std::make_unique<nn::AvgPool2>());
            n.add(std::make_unique<nn::Conv2D>(32, 32, 3, 5 + 22));
            n.add(std::make_unique<nn::SorterTanh>());
            n.add(std::make_unique<nn::AvgPool2>());
            n.add(std::make_unique<nn::Dense>(7 * 7 * 32, 500, 5 + 33));
            n.add(std::make_unique<nn::SorterTanh>());
            n.add(std::make_unique<nn::Dense>(500, 800, 5 + 44));
            n.add(std::make_unique<nn::SorterTanh>());
            n.add(std::make_unique<nn::Dense>(800, 10, 5 + 55));
        }
        std::printf("\n--- SNN: %s ---\n", snn.describe().c_str());
        const NetResult r =
            runNetwork("snn", std::move(snn), std::move(snn_linear),
                       train_set,
                       test_set, 2500, 5, 60, 500, /*fast_hw=*/false);
        printResult("SNN", r, 99.04, 97.35, 97.91, 39.46, 5.606e-4, 231,
                    8305);
        networks.push(resultToJson("SNN", r));
    }

    // ------------------------------------------------------------ DNN
    {
        nn::Network dnn = core::buildDnn(7);
        nn::Network dnn_linear;
        {
            nn::Network &n = dnn_linear;
            n.add(std::make_unique<nn::Conv2D>(1, 32, 3, 7 + 11));
            n.add(std::make_unique<nn::SorterTanh>());
            n.add(std::make_unique<nn::Conv2D>(32, 32, 3, 7 + 22));
            n.add(std::make_unique<nn::SorterTanh>());
            n.add(std::make_unique<nn::AvgPool2>());
            n.add(std::make_unique<nn::Conv2D>(32, 32, 5, 7 + 33));
            n.add(std::make_unique<nn::SorterTanh>());
            n.add(std::make_unique<nn::Conv2D>(32, 32, 5, 7 + 44));
            n.add(std::make_unique<nn::SorterTanh>());
            n.add(std::make_unique<nn::AvgPool2>());
            n.add(std::make_unique<nn::Conv2D>(32, 64, 7, 7 + 55));
            n.add(std::make_unique<nn::SorterTanh>());
            n.add(std::make_unique<nn::Dense>(7 * 7 * 64, 500, 7 + 66));
            n.add(std::make_unique<nn::SorterTanh>());
            n.add(std::make_unique<nn::Dense>(500, 800, 7 + 77));
            n.add(std::make_unique<nn::SorterTanh>());
            n.add(std::make_unique<nn::Dense>(800, 10, 7 + 88));
        }
        std::printf("\n--- DNN: %s ---\n", dnn.describe().c_str());
        const NetResult r =
            runNetwork("dnn", std::move(dnn), std::move(dnn_linear),
                       train_set,
                       test_set, 1600, 4, 16, 200, /*fast_hw=*/true);
        printResult("DNN", r, 99.17, 96.62, 96.95, 219.37, 2.482e-3, 229,
                    6667);
        networks.push(resultToJson("DNN", r));
    }

    bench::Json report = bench::Json::object();
    report.set("networks", std::move(networks))
        .set("total_wall_seconds", total_timer.seconds());
    bench::writeBenchReport("table9_network_performance",
                            std::move(report));

    std::printf("\nExpected shape: AQFP accuracy within ~1%% of software "
                "and at or above the\nCMOS SC baseline; energy improvement "
                "in the 1e3..1e5 band (paper: ~7e4);\nthroughput improvement"
                " ~10-40x from the stall-free deep pipeline.\n");
    return 0;
}
