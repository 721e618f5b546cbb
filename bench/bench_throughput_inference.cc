/**
 * @file
 * End-to-end SC inference throughput (images/sec) through the
 * InferenceSession serving path, per stream backend and cohort size.
 *
 * This is the hot path the fused zero-allocation kernels and the
 * stage-major cohort execution target: one trained-architecture model
 * ("tiny" by default), SNG input encoding, the full stage graph,
 * per-thread CohortWorkspace arenas.  Each backend is swept over the
 * cohort sizes {1, 2, 4, 8} (results are bit-identical across cohort
 * sizes; only throughput moves).  Results go to
 * BENCH_throughput_inference.json (with the build provenance stamp from
 * bench_util.h), so the serving-throughput trajectory is machine-
 * readable across PRs.
 *
 * Usage:
 *   bench_throughput_inference [--images N] [--stream-len L]
 *                              [--model tiny|snn|dnn] [--threads T]
 *                              [--cohort C]
 *
 * Each row repeats whole evaluate() passes over the image set for at
 * least kRowSeconds, three times, and reports the median repeat's
 * img/s (all three are kept in the row), so a row outlasts a shared
 * host's short stalls and tools/bench_diff.py can tell a regression
 * from host speed.  Defaults (24 images, stream length 1024, 1 thread,
 * cohort sweep) take about half a minute; --cohort C restricts the
 * sweep to one size.  CI smoke runs pass tiny values and only check
 * that the bench runs and emits valid JSON.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/model_zoo.h"
#include "core/plan_cache.h"
#include "core/session.h"
#include "core/stages/stage.h"
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

/** Seconds of whole passes each repeat of a row runs for, at least. */
constexpr double kRowSeconds = 1.0;
constexpr int kRepeats = 3;

/** One repeat of a row: whole evaluate() passes for kRowSeconds. */
struct Repeat
{
    double imagesPerSec = 0.0;
    std::size_t passes = 0;
    double wallSeconds = 0.0;
    double accuracy = 0.0;
};

/** kRepeats repeats of one row, sorted by img/s (the median is the
 *  middle one). */
std::vector<Repeat>
timeRow(const core::InferenceSession &session,
        const std::vector<nn::Sample> &samples, const core::EvalOptions &eval)
{
    std::vector<Repeat> repeats(kRepeats);
    for (Repeat &repeat : repeats) {
        std::size_t images = 0;
        const bench::WallTimer timer;
        do {
            const core::ScEvalStats stats = session.evaluate(samples, eval);
            images += stats.images;
            repeat.accuracy = stats.accuracy;
            ++repeat.passes;
        } while (timer.seconds() < kRowSeconds);
        repeat.wallSeconds = timer.seconds();
        repeat.imagesPerSec =
            static_cast<double>(images) / repeat.wallSeconds;
    }
    std::sort(repeats.begin(), repeats.end(),
              [](const Repeat &a, const Repeat &b) {
                  return a.imagesPerSec < b.imagesPerSec;
              });
    return repeats;
}

} // namespace

int
main(int argc, char **argv)
{
    const int images = argInt(argc, argv, "--images", 24);
    const int stream_len = argInt(argc, argv, "--stream-len", 1024);
    const int threads = argInt(argc, argv, "--threads", 1);
    const int cohort_arg = argInt(argc, argv, "--cohort", 0);

    const std::string model = argStr(argc, argv, "--model", "tiny");
    const std::vector<int> cohorts =
        cohort_arg > 0 ? std::vector<int>{cohort_arg}
                       : std::vector<int>{1, 2, 4, 8};

    bench::banner("End-to-end SC inference throughput (" + model +
                  ", N=" + std::to_string(stream_len) + ", " +
                  std::to_string(images) + " images, " +
                  std::to_string(threads) + " thread(s))");

    const std::vector<nn::Sample> samples =
        data::generateDigits(images, 42);

    bench::Json results = bench::Json::array();
    bench::header({"backend", "cohort", "img/s", "ms/img", "accuracy"});
    for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
        core::EngineOptions opts;
        opts.backend = backend;
        opts.streamLen = static_cast<std::size_t>(stream_len);
        opts.threads = threads;
        core::InferenceSession session(core::buildModel(model, 3), opts);

        // Compile + warm one image outside the timed region so the
        // measurement sees steady-state serving only.
        session.evaluate(samples, {.limit = 1});

        for (const int cohort : cohorts) {
            core::EvalOptions eval;
            eval.cohort = cohort;
            const std::vector<Repeat> repeats =
                timeRow(session, samples, eval);
            const Repeat &median = repeats[repeats.size() / 2];
            bench::row({backend, std::to_string(cohort),
                        bench::cell(median.imagesPerSec, 2),
                        bench::cell(1000.0 / median.imagesPerSec, 2),
                        bench::cell(median.accuracy, 3)});

            bench::Json all = bench::Json::array();
            for (const Repeat &repeat : repeats)
                all.push(repeat.imagesPerSec);
            results.push(
                bench::Json::object()
                    .set("engine",
                         bench::engineJson(opts.toConfig(backend)))
                    .set("model", model)
                    .set("cohort", cohort)
                    .set("images", samples.size())
                    .set("passes", median.passes)
                    .set("wall_seconds", median.wallSeconds)
                    .set("images_per_sec", median.imagesPerSec)
                    .set("images_per_sec_repeats", std::move(all))
                    .set("accuracy", median.accuracy));
        }
    }

    // --- Plan & weight reuse -------------------------------------------
    // A serving fleet holds several resident instances of the same
    // model.  With the plan cache off every instance compiles and keeps
    // its own parameter streams; with it on they intern one copy.  The
    // resident-bytes rows (unique StageShared bytes actually held) and
    // the fleet warm-up time are recorded per mode so bench_diff can
    // track the memory win across PRs.
    constexpr int kInstances = 4;
    const bool cache_default = core::PlanCache::instance().enabled();
    bench::banner("Plan & weight reuse (" + std::to_string(kInstances) +
                  " resident instances of " + model + ")");
    bench::header({"backend", "cache", "resident KiB", "sum KiB",
                   "warmup ms"});
    for (const char *backend : {"aqfp-sorter", "cmos-apc"}) {
        for (const bool cache_on : {false, true}) {
            core::PlanCache::instance().clear();
            core::PlanCache::instance().setEnabled(cache_on);

            core::EngineOptions opts;
            opts.backend = backend;
            opts.streamLen = static_cast<std::size_t>(stream_len);
            opts.threads = threads;

            bench::WallTimer warmup;
            std::vector<std::unique_ptr<core::InferenceSession>> fleet;
            for (int i = 0; i < kInstances; ++i) {
                fleet.push_back(std::make_unique<core::InferenceSession>(
                    core::buildModel(model, 3), opts));
                (void)fleet.back()->engine();
            }
            const double warmup_seconds = warmup.seconds();

            // Resident = bytes of distinct StageShared objects alive
            // across the fleet; sum = what the fleet would hold if no
            // instance shared anything (the cache-off resident value).
            std::set<const core::stages::StageShared *> distinct;
            std::size_t sum_bytes = 0;
            for (const auto &session : fleet) {
                const auto &plan = session->engine().plan();
                for (std::size_t s = 0; s < plan.stageCount(); ++s) {
                    if (const auto *shared = plan.stage(s).sharedState()) {
                        distinct.insert(shared);
                        sum_bytes += shared->bytes;
                    }
                }
            }
            std::size_t resident_bytes = 0;
            for (const auto *shared : distinct)
                resident_bytes += shared->bytes;

            bench::row({backend, cache_on ? "on" : "off",
                        bench::cell(resident_bytes / 1024.0, 1),
                        bench::cell(sum_bytes / 1024.0, 1),
                        bench::cell(warmup_seconds * 1000.0, 1)});
            results.push(
                bench::Json::object()
                    .set("section", "plan_cache")
                    .set("engine", bench::engineJson(opts.toConfig(backend)))
                    .set("model", model)
                    .set("instances", kInstances)
                    .set("cache", cache_on ? "on" : "off")
                    .set("resident_bytes", resident_bytes)
                    .set("sum_stream_bytes", sum_bytes)
                    .set("warmup_seconds", warmup_seconds));
        }
    }
    core::PlanCache::instance().setEnabled(cache_default);
    core::PlanCache::instance().clear();

    return bench::writeBenchReport("throughput_inference",
                                   std::move(results))
               ? 0
               : 1;
}
