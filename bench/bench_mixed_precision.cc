/**
 * @file
 * Mixed stream-length precision frontier: throughput vs accuracy for
 * uniform stream lengths and the PrecisionTuner's per-stage vector.
 *
 * Stream length is the SC accuracy/latency knob (error ~ 1/sqrt(N),
 * cycles ~ N); per-stage vectors (EngineOptions::stageStreamLens) let
 * early stages run shorter streams than the terminal categorizer.  This
 * bench maps the frontier per backend and model: uniform N in {1024,
 * 512, 256} plus the vector core::PrecisionTuner finds from the
 * N=1024 baseline under the default 0.5-point accuracy budget.  Each
 * row lands in BENCH_mixed_precision.json marked "section": "frontier"
 * and keyed (backend, model, stage_lens — the comma-joined vector);
 * tools/bench_diff.py diffs images_per_sec relatively and accuracy_pt
 * on an absolute 0.5-point scale.
 *
 * Usage:
 *   bench_mixed_precision [--images N] [--epochs E] [--train-samples S]
 *                         [--threads T] [--model tiny|snn|dnn]
 *
 * Models are trained on the synthetic digit task first (accuracy rows
 * are meaningless on random weights); AQFPSC_BENCH_QUICK=1 shrinks the
 * run to the tiny model with a short training budget for CI smoke.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/model_zoo.h"
#include "core/precision_tuner.h"
#include "core/sc_engine.h"
#include "core/session.h"
#include "core/stages/stage_compiler.h"
#include "data/digits.h"

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

std::string
lensSpec(const std::vector<std::size_t> &lens)
{
    std::string s;
    for (std::size_t i = 0; i < lens.size(); ++i) {
        if (i > 0)
            s += ',';
        s += std::to_string(lens[i]);
    }
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = std::getenv("AQFPSC_BENCH_QUICK") != nullptr;
    // --images overrides the per-model calibration budget (0 = keep the
    // defaults: tiny gets 200 images so accuracy granularity — one
    // flipped image = 0.5pt — matches the tuner's default budget; the
    // wide FC models run ~1-4 img/s at N=1024 on one core, so they get
    // smaller sets and the tuner only accepts moves that flip no
    // calibration image at all).
    const int images_arg = argInt(argc, argv, "--images", 0);
    const int epochs = argInt(argc, argv, "--epochs", quick ? 4 : 12);
    const int train_samples =
        argInt(argc, argv, "--train-samples", quick ? 600 : 1600);
    const int threads = argInt(argc, argv, "--threads", 1);
    const char *model_arg = argStr(argc, argv, "--model", nullptr);

    const std::vector<std::string> models =
        model_arg ? std::vector<std::string>{model_arg}
        : quick   ? std::vector<std::string>{"tiny"}
                  : std::vector<std::string>{"tiny", "snn", "dnn"};

    bench::banner("Mixed stream-length precision frontier (" +
                  std::to_string(threads) + " thread(s)" +
                  (quick ? ", quick mode" : "") + ")");

    bench::Json results = bench::Json::array();
    for (const std::string &model : models) {
        const int images =
            images_arg > 0 ? images_arg
            : quick        ? 40
            : model == "tiny" ? 200
            : model == "snn"  ? 48
                              : 16;
        const auto test = data::generateDigits(images, 999);
        core::EvalOptions eval;
        eval.limit = images;
        std::printf("%s: %d calibration images\n", model.c_str(), images);
        // Train once per model: the frontier's accuracy axis only means
        // something on a model whose predictions carry signal.  Same
        // disjoint data seeds as aqfpsc_cli (train 11, test 999).
        nn::Network net = core::buildModel(model, 3);
        {
            auto train = data::generateDigits(train_samples, 11);
            nn::TrainConfig cfg;
            cfg.epochs = epochs;
            cfg.learningRate = 0.08f;
            cfg.verbose = false;
            std::printf("training %s on %zu digits, %d epochs...\n",
                        model.c_str(), train.size(), epochs);
            net.train(train, cfg);
            net.quantizeParams(10);
        }

        for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
            bench::banner(model + " / " + backend);
            bench::header({"stage lens", "img/s", "accuracy", "speedup",
                           "acc delta"});

            core::EngineOptions base;
            base.backend = backend;
            base.streamLen = 1024;
            base.threads = threads;

            // Uniform rows: the scalar-config frontier the tuner must
            // beat.  Warm one image so rows see steady state only.
            double uniform1024Ips = 0.0;
            double uniform1024Acc = 0.0;
            for (const std::size_t len : {std::size_t{1024},
                                          std::size_t{512},
                                          std::size_t{256}}) {
                core::EngineOptions opts = base;
                opts.streamLen = len;
                const core::ScNetworkEngine engine(net, opts);
                engine.evaluate(test, {.limit = 1});
                const core::ScEvalStats stats = engine.evaluate(test, eval);
                const std::string lens =
                    lensSpec(engine.plan().stageStreamLens);
                if (len == 1024) {
                    uniform1024Ips = stats.imagesPerSec;
                    uniform1024Acc = stats.accuracy;
                }
                const double speedup =
                    uniform1024Ips > 0.0
                        ? stats.imagesPerSec / uniform1024Ips
                        : 1.0;
                bench::row({lens, bench::cell(stats.imagesPerSec, 2),
                            bench::cell(stats.accuracy, 3),
                            bench::cell(speedup, 2),
                            bench::cell(
                                (stats.accuracy - uniform1024Acc) * 100.0,
                                2)});
                results.push(
                    bench::Json::object()
                        .set("section", "frontier")
                        .set("engine", bench::engineJson(opts))
                        .set("model", model)
                        .set("config",
                             "uniform-" + std::to_string(len))
                        .set("stage_lens", lens)
                        .set("images", stats.images)
                        .set("images_per_sec", stats.imagesPerSec)
                        .set("accuracy_pt", stats.accuracy * 100.0)
                        .set("speedup_vs_uniform_1024", speedup)
                        .set("accuracy_delta_pt",
                             (stats.accuracy - uniform1024Acc) * 100.0));
            }

            // Tuned row: coordinate descent from the N=1024 baseline
            // under the default 0.5-point budget, re-measured on a warm
            // engine so the committed number is comparable to the
            // uniform rows above.
            core::TuneOptions topts;
            topts.limit = images;
            const core::TuneResult tuned =
                core::PrecisionTuner(net, base).tune(test, topts);

            core::EngineOptions opts = base;
            opts.streamLen = tuned.stageStreamLens.front();
            opts.stageStreamLens = tuned.stageStreamLens;
            const core::ScNetworkEngine engine(net, opts);
            engine.evaluate(test, {.limit = 1});
            const core::ScEvalStats stats = engine.evaluate(test, eval);
            const double speedup = uniform1024Ips > 0.0
                                       ? stats.imagesPerSec / uniform1024Ips
                                       : 1.0;
            const double deltaPt =
                (stats.accuracy - uniform1024Acc) * 100.0;
            bench::row({lensSpec(tuned.stageStreamLens),
                        bench::cell(stats.imagesPerSec, 2),
                        bench::cell(stats.accuracy, 3),
                        bench::cell(speedup, 2),
                        bench::cell(deltaPt, 2)});
            std::printf("tuned in %zu evaluation(s) over %d pass(es): "
                        "%.2fx at %+.2fpt\n",
                        tuned.evaluations, tuned.passes, speedup, deltaPt);
            results.push(
                bench::Json::object()
                    .set("section", "frontier")
                    .set("engine", bench::engineJson(opts))
                    .set("model", model)
                    .set("config", "tuned")
                    .set("stage_lens", lensSpec(tuned.stageStreamLens))
                    .set("images", stats.images)
                    .set("images_per_sec", stats.imagesPerSec)
                    .set("accuracy_pt", stats.accuracy * 100.0)
                    .set("speedup_vs_uniform_1024", speedup)
                    .set("accuracy_delta_pt", deltaPt)
                    .set("tuner_evaluations", tuned.evaluations)
                    .set("tuner_passes", tuned.passes));
        }
    }

    return bench::writeBenchReport("mixed_precision", std::move(results))
               ? 0
               : 1;
}
