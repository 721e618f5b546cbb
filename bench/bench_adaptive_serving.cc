/**
 * @file
 * Adaptive early-exit serving: the accuracy-vs-average-stream-length
 * trade-off the paper's stream-length evaluation is built around, plus
 * serving latency through a one-tenant serving::ServingFrontend.
 *
 * A tiny-zoo model is trained on the synthetic digit task, then
 * evaluated (1) non-adaptively at the full stream length — the
 * baseline — and (2) adaptively across a sweep of exit margins, each
 * row reporting the mean consumed cycles (the hardware would simply
 * stop clocking the SC pipeline there), the cycle-reduction factor vs.
 * the full length, and the accuracy delta.  Finally the default-margin
 * policy is served through one adaptive frontend tenant to measure
 * end-to-end request latency percentiles (queue + service) under
 * micro-batching.
 *
 * Results go to BENCH_adaptive_serving.json (build-stamped via
 * bench_util.h); the committed reference lives in reports/.  The
 * interesting acceptance shape: >= 1.5x mean-cycle reduction at
 * <= 0.5% accuracy drop on the tiny model.
 *
 * Usage:
 *   bench_adaptive_serving [--images N] [--stream-len L] [--epochs E]
 *                          [--train-samples S] [--backend NAME]
 *                          [--checkpoint C] [--min-cycles M]
 *                          [--workers W]
 *
 * Defaults (200 images, N=1024, 12 epochs, checkpoint 64, exit floor
 * 320 cycles) run in ~2 minutes on one core; CI smoke passes tiny
 * values and only checks the JSON appears.  The minCycles floor
 * matters: the margin estimated from the first couple of checkpoints
 * carries O(1/sqrt(n)) SC noise, and a floor of ~N/3 suppresses the
 * wrong-exit tail at almost no cost in mean cycles.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/model_zoo.h"
#include "core/session.h"
#include "data/digits.h"
#include "serving/frontend.h"

namespace {

using namespace aqfpsc;

int
argInt(int argc, char **argv, const char *name, int fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return std::atoi(argv[i + 1]);
    }
    return fallback;
}

const char *
argStr(int argc, char **argv, const char *name, const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return argv[i + 1];
    }
    return fallback;
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

int
main(int argc, char **argv)
{
    const int images = argInt(argc, argv, "--images", 200);
    const int stream_len = argInt(argc, argv, "--stream-len", 1024);
    const int epochs = argInt(argc, argv, "--epochs", 12);
    const int train_samples =
        argInt(argc, argv, "--train-samples", 1600);
    const int checkpoint = argInt(argc, argv, "--checkpoint", 64);
    const int min_cycles = argInt(argc, argv, "--min-cycles", 320);
    const int workers = argInt(argc, argv, "--workers", 1);
    const std::string backend =
        argStr(argc, argv, "--backend", "aqfp-sorter");

    bench::banner("Adaptive early-exit serving (tiny, N=" +
                  std::to_string(stream_len) + ", checkpoint=" +
                  std::to_string(checkpoint) + ", exit floor " +
                  std::to_string(min_cycles) + ", " +
                  std::to_string(images) + " images, backend=" + backend +
                  ")");

    // Train once: early exit only means something on a model whose
    // margins carry signal.  Same data seeds as aqfpsc_cli (train and
    // test sets disjoint).
    nn::Network net = core::buildModel("tiny", 3);
    {
        auto train = data::generateDigits(train_samples, 11);
        nn::TrainConfig cfg;
        cfg.epochs = epochs;
        cfg.learningRate = 0.08f;
        cfg.verbose = false;
        std::printf("training tiny on %zu digits, %d epochs...\n",
                    train.size(), epochs);
        net.train(train, cfg);
        net.quantizeParams(10);
    }
    const auto test = data::generateDigits(images, 999);

    core::EngineOptions opts;
    opts.backend = backend;
    opts.streamLen = static_cast<std::size_t>(stream_len);
    opts.adaptive.checkpointCycles =
        static_cast<std::size_t>(checkpoint);
    // The frontend owns the trained network: the baseline and the sweep
    // run on its session, and serving later runs on the same compiled
    // engine.  Its workers start only when serving does.
    serving::ServingFrontend frontend(
        {.workers = workers, .startPaused = true});
    frontend.addModel("tiny", std::move(net), opts);
    const core::InferenceSession &session = frontend.model("tiny");

    // ---- Baseline: full-length non-adaptive inference. ----
    session.evaluate(test, {.limit = 1}); // compile + warm
    const core::ScEvalStats baseline = session.evaluate(test, {});
    std::printf("baseline: accuracy %.4f, %zu cycles/image, %.2f img/s\n",
                baseline.accuracy, opts.streamLen, baseline.imagesPerSec);

    // ---- Margin sweep: accuracy vs. mean consumed stream length. ----
    bench::Json sweep = bench::Json::array();
    bench::header({"margin", "avg cycles", "reduction", "accuracy",
                   "acc delta", "exits", "img/s"});
    const double margins[] = {0.05, 0.10, 0.125, 0.15, 0.20};
    for (const double margin : margins) {
        core::AdaptivePolicy policy;
        policy.checkpointCycles = static_cast<std::size_t>(checkpoint);
        policy.minCycles = static_cast<std::size_t>(min_cycles);
        policy.exitMargin = margin;
        const core::AdaptiveEvalStats a =
            session.engine().evaluateAdaptive(test, policy, {});
        const double reduction =
            static_cast<double>(opts.streamLen) / a.avgConsumedCycles;
        const double delta = a.stats.accuracy - baseline.accuracy;
        bench::row({bench::cell(margin, 2),
                    bench::cell(a.avgConsumedCycles, 1),
                    bench::cell(reduction, 2) + "x",
                    bench::cell(a.stats.accuracy, 4),
                    bench::cell(delta, 4),
                    std::to_string(a.earlyExits),
                    bench::cell(a.stats.imagesPerSec, 2)});
        sweep.push(bench::Json::object()
                       .set("exit_margin", margin)
                       .set("min_cycles", min_cycles)
                       .set("avg_consumed_cycles", a.avgConsumedCycles)
                       .set("cycle_reduction", reduction)
                       .set("accuracy", a.stats.accuracy)
                       .set("accuracy_delta", delta)
                       .set("early_exits", a.earlyExits)
                       .set("images_per_sec", a.stats.imagesPerSec));
    }

    // ---- Serving latency through one adaptive frontend tenant. ----
    // A queue as deep as the test set admits every request at once.
    serving::TenantConfig tenant;
    tenant.name = "bench";
    tenant.model = "tiny";
    tenant.queueCapacity = test.size();
    tenant.adaptive = true;
    tenant.policy.checkpointCycles = static_cast<std::size_t>(checkpoint);
    tenant.policy.minCycles = static_cast<std::size_t>(min_cycles);
    tenant.policy.exitMargin = 0.125;
    frontend.addTenant(tenant);
    bench::WallTimer serve_timer;
    frontend.start();
    std::vector<std::future<serving::ServedResult>> futures;
    futures.reserve(test.size());
    for (const auto &s : test)
        futures.push_back(frontend.submit(tenant.name, s.image));
    std::vector<double> latencies_ms;
    for (auto &f : futures) {
        const serving::ServedResult r = f.get();
        latencies_ms.push_back((r.queueSeconds + r.serviceSeconds) * 1000.0);
    }
    frontend.shutdown();
    const double serve_wall = serve_timer.seconds();
    const serving::TenantStats sstats = frontend.tenantStats(tenant.name);
    const double avg_batch =
        sstats.batches == 0 ? 0.0
                            : static_cast<double>(sstats.completed) /
                                  static_cast<double>(sstats.batches);
    const double p50 = percentile(latencies_ms, 0.50);
    const double p90 = percentile(latencies_ms, 0.90);
    const double p99 = percentile(latencies_ms, 0.99);
    std::printf("serving (margin 0.125, %d worker(s)): p50 %.1f ms, "
                "p90 %.1f ms, p99 %.1f ms, %.2f img/s, "
                "avg batch %.2f, %.0f avg cycles\n",
                workers, p50, p90, p99,
                static_cast<double>(latencies_ms.size()) / serve_wall,
                avg_batch, sstats.avgConsumedCycles);

    bench::Json results =
        bench::Json::object()
            .set("engine", bench::engineJson(opts))
            .set("model", "tiny")
            .set("images", static_cast<std::size_t>(test.size()))
            .set("train_epochs", epochs)
            .set("checkpoint_cycles", checkpoint)
            .set("baseline",
                 bench::Json::object()
                     .set("accuracy", baseline.accuracy)
                     .set("cycles_per_image", opts.streamLen)
                     .set("images_per_sec", baseline.imagesPerSec))
            .set("margin_sweep", std::move(sweep))
            .set("serving",
                 bench::Json::object()
                     .set("workers", workers)
                     .set("exit_margin", tenant.policy.exitMargin)
                     .set("min_cycles", min_cycles)
                     .set("latency_ms_p50", p50)
                     .set("latency_ms_p90", p90)
                     .set("latency_ms_p99", p99)
                     .set("images_per_sec",
                          static_cast<double>(latencies_ms.size()) /
                              serve_wall)
                     .set("avg_batch_size", avg_batch)
                     .set("avg_consumed_cycles",
                          sstats.avgConsumedCycles)
                     .set("early_exit_fraction",
                          sstats.completed == 0
                              ? 0.0
                              : static_cast<double>(sstats.earlyExits) /
                                    static_cast<double>(
                                        sstats.completed)));

    return bench::writeBenchReport("adaptive_serving",
                                   std::move(results))
               ? 0
               : 1;
}
