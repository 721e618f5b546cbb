/**
 * @file
 * aqfpsc_cli: train once, serve anywhere.
 *
 * Subcommands:
 *   train  --model <zoo> --out <file> [--epochs N] [--samples N]
 *          [--lr F] [--quant-bits B] [--seed S]
 *       Build a model_zoo architecture, train it on the synthetic digit
 *       task, quantize to the SNG grid and save a versioned model
 *       artifact (architecture + quantization state + weights).
 *   eval   --model-file <file> [--backend NAME] [--stream-len N]
 *          [--stage-lens N,N,...] [--threads N] [--cohort C]
 *          [--rng-bits N] [--images N] [--seed S]
 *          [--adaptive [--checkpoint C] [--margin F]
 *           [--min-cycles M] [--nondet]]
 *       Load an artifact and evaluate it on any registered backend;
 *       --cohort batches C images through each stage together
 *       (stage-major execution, bit-identical results), --stage-lens
 *       sets a per-stage stream-length vector (word-aligned,
 *       non-increasing; see `tune`), and --adaptive adds
 *       confidence-based early exit and reports the mean consumed
 *       stream cycles.
 *   tune   (--model-file <file> | --model <zoo>) [--backend NAME]
 *          [--stream-len N] [--images N] [--max-drop PT]
 *          [--min-stage-len N] [--passes P]
 *       Run core::PrecisionTuner's coordinate-descent search for the
 *       fastest per-stage stream-length vector within --max-drop
 *       percentage points of the uniform baseline's calibration
 *       accuracy, and print the vector as a ready-to-paste
 *       --stage-lens value.
 *   infer  --model-file <file> [--backend NAME] [--index I] [...]
 *       Load an artifact and print one image's per-class scores.
 *   serve  --model-file <file> [--workers W] [--queue-cap Q]
 *          [--max-batch B] [--adaptive ...] [--images N]
 *       Serve one tenant through serving::ServingFrontend, push the
 *       test set through it (waiting for the oldest request whenever
 *       the queue is full), and report latency percentiles + stats
 *       (queue-depth high-water mark, queue/service latency histograms).
 *   serve-multi  (--model-file <file> | --model <zoo>)
 *          [--policy fifo|priority|edf|fair] [--workers W]
 *          [--max-batch B] [--images N] [--deadline-ms D] [--shed]
 *          [--tenant SPEC ...]
 *       Spin up the multi-tenant serving::ServingFrontend and push
 *       --images requests per tenant through it.  Each --tenant SPEC is
 *       comma-separated: a name followed by key=value or bare-flag
 *       tokens — weight=W, priority=P, deadline-ms=D, queue-cap=Q,
 *       backend=NAME, margin=F, min-cycles=M, adaptive, shed.  With no
 *       --tenant, two equal-weight tenants "a" and "b" are served.
 *       --deadline-ms/--shed set defaults any SPEC may override.
 *       Prints per-tenant completion/reject/shed/deadline counters and
 *       latency percentiles.
 *   backends   List the BackendRegistry names.
 *   models     List the model_zoo names.
 *
 * Exit status: 0 on success; 2 on a usage error (a missing command or
 * flag value, an unknown flag, or a numeric value that is not a whole
 * number of its type or lies outside its range, e.g. --threads abc or
 * --quant-bits 40); 1 on any other failure.
 *
 * Example round trip (the model file carries everything):
 *   aqfpsc_cli train --model tiny --out m.bin
 *   aqfpsc_cli eval --model-file m.bin --backend cmos-apc
 *   aqfpsc_cli eval --model-file m.bin --adaptive --margin 0.125
 *   aqfpsc_cli serve --model-file m.bin --workers 4 --adaptive
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "core/backend_registry.h"
#include "core/hardware_report.h"
#include "core/model_zoo.h"
#include "core/precision_tuner.h"
#include "core/session.h"
#include "data/digits.h"
#include "serving/frontend.h"

namespace {

using namespace aqfpsc;

/** Fixed dataset seeds: eval/infer must see images train never saw. */
constexpr unsigned kTrainDataSeed = 11;
constexpr unsigned kTestDataSeed = 999;
constexpr int kTestImages = 200;

struct Args
{
    std::string command;
    std::string model;     ///< zoo name (train)
    std::string modelFile; ///< artifact path (eval/infer) or --out (train)
    core::EngineOptions engine;
    int epochs = 4;
    int samples = 600;
    float lr = 0.08f;
    int quantBits = 10;
    unsigned trainSeed = 3;
    int images = 40; ///< eval limit / serve request count
    int index = 0;   ///< infer image index
    bool progress = true;

    // tune
    double maxDropPt = 0.5;      ///< accuracy budget, percentage points
    std::size_t minStageLen = 64; ///< shortest per-stage length tried
    int passes = 8;               ///< coordinate-descent pass cap
    bool adaptive = false; ///< eval/serve: early-exit mode
    serving::FrontendOptions frontend; ///< --workers, --max-batch
    std::size_t queueCap = 256;        ///< serve: the tenant's queue bound

    // serve / serve-multi robustness knobs
    double timeoutMs = 0.0; ///< hard per-request budget (0 = none)
    int retries = 0;        ///< transient-failure retry budget

    // serve-multi
    std::vector<std::string> tenants; ///< --tenant specs, in order
    std::string policy = "fifo";      ///< scheduler policy name
    double deadlineMs = 0.0;          ///< default per-tenant budget
    bool shed = false;                ///< default shed-before-reject
};

/** A malformed command line: main() prints it and exits with status 2. */
struct UsageError : std::invalid_argument
{
    using std::invalid_argument::invalid_argument;
};

/**
 * @p text as a T: all of it, base 10 for an integer, which must lie in
 * [@p lo, @p hi], and std::from_chars' general format for a
 * floating-point value ("inf" included).
 * @throws UsageError naming @p what otherwise.
 */
template <typename T>
T
parseNumber(const std::string &what, std::string_view text,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    T value{};
    const char *const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    const bool parsed = ec == std::errc() && ptr == end;
    std::string expects = "a number";
    if constexpr (std::is_integral_v<T>) {
        if (parsed && value >= lo && value <= hi)
            return value;
        expects = std::is_signed_v<T> ? "an integer" : "a non-negative integer";
        if (parsed || ec == std::errc::result_out_of_range)
            expects += " in [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]";
    } else if (parsed) {
        return value;
    }
    throw UsageError(what + " expects " + expects + ", got '" +
                     std::string(text) + "'");
}

void
usage()
{
    std::printf(
        "usage: aqfpsc_cli <command> [options]\n"
        "  train --model <zoo> --out <file> [--epochs N] [--samples N]\n"
        "        [--lr F] [--quant-bits B] [--seed S]\n"
        "  eval  --model-file <file> [--backend NAME] [--stream-len N]\n"
        "        [--stage-lens N,N,...] [--threads N] [--cohort C]\n"
        "        [--rng-bits N] [--images N] [--seed S]\n"
        "        [--adaptive [--checkpoint C] [--margin F]\n"
        "         [--min-cycles M] [--nondet]]\n"
        "  tune  (--model-file <file> | --model <zoo>) [--backend NAME]\n"
        "        [--stream-len N] [--images N] [--max-drop PT]\n"
        "        [--min-stage-len N] [--passes P] [--threads N] [--quiet]\n"
        "  infer --model-file <file> [--backend NAME] [--index I]\n"
        "        [--stream-len N] [--threads N] [--rng-bits N] [--seed S]\n"
        "  serve --model-file <file> [--workers W] [--queue-cap Q]\n"
        "        [--max-batch B] [--images N] [--timeout-ms T]\n"
        "        [--adaptive ...]\n"
        "  serve-multi (--model-file <file> | --model <zoo>)\n"
        "        [--policy fifo|priority|edf|fair] [--workers W]\n"
        "        [--max-batch B] [--images N] [--deadline-ms D] [--shed]\n"
        "        [--timeout-ms T] [--retries R]\n"
        "        [--tenant name,weight=W,priority=P,deadline-ms=D,\n"
        "         queue-cap=Q,backend=NAME,margin=F,min-cycles=M,\n"
        "         timeout-ms=T,retries=R,adaptive,shed ...]\n"
        "  backends   list registered backends\n"
        "  models     list model-zoo architectures\n");
}

bool
parse(int argc, char **argv, Args &args)
{
    if (argc < 2)
        return false;
    args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                throw UsageError(flag + " needs a value");
            return argv[++i];
        };
        auto integer = [&]() { return parseNumber<int>(flag, next()); };
        auto count = [&]() { return parseNumber<std::size_t>(flag, next()); };
        auto number = [&]() { return parseNumber<double>(flag, next()); };
        if (flag == "--model")
            args.model = next();
        else if (flag == "--model-file" || flag == "--out")
            args.modelFile = next();
        else if (flag == "--backend")
            args.engine.backend = next();
        else if (flag == "--stream-len")
            args.engine.streamLen = count();
        else if (flag == "--stage-lens") {
            args.engine.stageStreamLens.clear();
            const std::string_view spec = next();
            std::size_t start = 0;
            while (start <= spec.size()) {
                std::size_t comma = spec.find(',', start);
                if (comma == std::string_view::npos)
                    comma = spec.size();
                args.engine.stageStreamLens.push_back(parseNumber<std::size_t>(
                    flag, spec.substr(start, comma - start)));
                start = comma + 1;
            }
            // The first stage runs the full plan; keep the scalar in sync
            // so banners/reports quoting streamLen match the vector.
            args.engine.streamLen = args.engine.stageStreamLens.front();
        } else if (flag == "--max-drop")
            args.maxDropPt = number();
        else if (flag == "--min-stage-len")
            args.minStageLen = count();
        else if (flag == "--passes")
            args.passes = integer();
        else if (flag == "--threads")
            args.engine.threads = integer();
        else if (flag == "--cohort")
            args.engine.cohort = integer();
        else if (flag == "--rng-bits")
            args.engine.rngBits = integer();
        else if (flag == "--seed") {
            args.engine.seed = parseNumber<std::uint64_t>(flag, next());
            args.trainSeed = static_cast<unsigned>(args.engine.seed);
        } else if (flag == "--epochs")
            args.epochs = integer();
        else if (flag == "--samples")
            args.samples = integer();
        else if (flag == "--lr")
            args.lr = parseNumber<float>(flag, next());
        else if (flag == "--quant-bits")
            args.quantBits =
                parseNumber<int>(flag, next(), nn::Network::kMinQuantBits,
                                 nn::Network::kMaxQuantBits);
        else if (flag == "--images")
            args.images = integer();
        else if (flag == "--index")
            args.index = integer();
        else if (flag == "--quiet")
            args.progress = false;
        else if (flag == "--adaptive")
            args.adaptive = true;
        else if (flag == "--checkpoint")
            args.engine.adaptive.checkpointCycles = count();
        else if (flag == "--margin")
            args.engine.adaptive.exitMargin = number();
        else if (flag == "--min-cycles")
            args.engine.adaptive.minCycles = count();
        else if (flag == "--nondet")
            args.engine.adaptive.deterministic = false;
        else if (flag == "--workers")
            args.frontend.workers = integer();
        else if (flag == "--queue-cap")
            args.queueCap = count();
        else if (flag == "--max-batch")
            args.frontend.maxBatch = integer();
        else if (flag == "--timeout-ms")
            args.timeoutMs = number();
        else if (flag == "--retries")
            args.retries = integer();
        else if (flag == "--tenant")
            args.tenants.push_back(next());
        else if (flag == "--policy")
            args.policy = next();
        else if (flag == "--deadline-ms")
            args.deadlineMs = number();
        else if (flag == "--shed")
            args.shed = true;
        else {
            std::fprintf(stderr, "error: unknown flag %s\n", flag.c_str());
            return false;
        }
    }
    return true;
}

/** Render a length vector as a --stage-lens value ("1024,512,256"). */
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

/** One-line plan-cache summary (serve / serve-multi footers). */
void
printPlanCacheLine(const core::PlanCacheStats &pc)
{
    std::printf("plan cache: %llu hit(s), %llu miss(es), %llu "
                "eviction(s); resident %zu plan(s), %zu stage state(s), "
                "%.1f KiB shared\n",
                static_cast<unsigned long long>(pc.hits),
                static_cast<unsigned long long>(pc.misses),
                static_cast<unsigned long long>(pc.evictions),
                pc.residentPlans, pc.residentStages,
                static_cast<double>(pc.residentBytes) / 1024.0);
}

int
cmdTrain(const Args &args)
{
    if (args.model.empty() || args.modelFile.empty()) {
        std::fprintf(stderr,
                     "error: train needs --model <zoo> and --out <file>\n");
        return 2;
    }
    nn::Network net = core::buildModel(args.model, args.trainSeed);
    std::printf("architecture: %s\n", net.describe().c_str());
    auto train = data::generateDigits(args.samples, kTrainDataSeed);
    const auto test = data::generateDigits(kTestImages, kTestDataSeed);
    std::printf("training on %zu synthetic digits, %d epochs...\n",
                train.size(), args.epochs);
    nn::TrainConfig cfg;
    cfg.epochs = args.epochs;
    cfg.learningRate = args.lr;
    cfg.verbose = args.progress;
    net.train(train, cfg);
    net.quantizeParams(args.quantBits);
    std::printf("float accuracy (quantized to %d bits): %.2f%%\n",
                args.quantBits, net.evaluate(test) * 100);
    if (!net.saveModel(args.modelFile)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args.modelFile.c_str());
        return 1;
    }
    std::printf("saved model artifact to %s\n", args.modelFile.c_str());
    return 0;
}

int
cmdEval(const Args &args)
{
    if (args.modelFile.empty()) {
        std::fprintf(stderr, "error: eval needs --model-file <file>\n");
        return 2;
    }
    const core::InferenceSession session =
        core::InferenceSession::fromFile(args.modelFile, args.engine);
    std::printf("model: %s (quantized to %d bits)\n",
                session.network().describe().c_str(),
                session.network().quantBits());
    std::printf("backend %s, N=%zu, %d threads, cohort %d\n",
                session.options().backend.c_str(),
                session.options().streamLen, session.options().threads,
                session.options().cohort);
    if (!session.options().stageStreamLens.empty())
        std::printf("stage lens: %s\n",
                    lensSpec(session.options().stageStreamLens).c_str());
    const auto test = data::generateDigits(kTestImages, kTestDataSeed);
    core::EvalOptions opts;
    opts.limit = args.images;
    opts.progress = args.progress;
    if (args.adaptive) {
        const core::AdaptivePolicy &policy = args.engine.adaptive;
        std::printf("adaptive: checkpoint %zu, margin %.3f, floor %zu, "
                    "%s\n",
                    policy.checkpointCycles, policy.exitMargin,
                    policy.minCycles,
                    policy.deterministic ? "deterministic"
                                         : "lazy substreams");
        const core::AdaptiveEvalStats stats =
            session.evaluateAdaptive(test, opts);
        std::printf("accuracy %.4f over %zu images (%.2f img/s, avg "
                    "%.0f/%zu cycles, %zu early exits)\n",
                    stats.stats.accuracy, stats.stats.images,
                    stats.stats.imagesPerSec, stats.avgConsumedCycles,
                    session.options().streamLen, stats.earlyExits);
        return 0;
    }
    const core::ScEvalStats stats = session.evaluate(test, opts);
    std::printf("accuracy %.4f over %zu images (%.2f img/s)\n",
                stats.accuracy, stats.images, stats.imagesPerSec);
    return 0;
}

int
cmdTune(const Args &args)
{
    if (args.modelFile.empty() && args.model.empty()) {
        std::fprintf(stderr, "error: tune needs --model-file <file> or "
                             "--model <zoo>\n");
        return 2;
    }
    const core::InferenceSession session =
        args.modelFile.empty()
            ? core::InferenceSession::fromZoo(args.model, args.engine,
                                              args.trainSeed)
            : core::InferenceSession::fromFile(args.modelFile, args.engine);
    std::printf("model: %s\n", session.network().describe().c_str());
    std::printf("backend %s, N=%zu, budget %.2fpt, min stage len %zu, "
                "max %d pass(es)\n",
                session.options().backend.c_str(),
                session.options().streamLen, args.maxDropPt,
                args.minStageLen, args.passes);
    const auto calibration = data::generateDigits(kTestImages, kTestDataSeed);
    core::TuneOptions topts;
    topts.maxAccuracyDrop = args.maxDropPt / 100.0;
    topts.minStageLen = args.minStageLen;
    topts.maxPasses = args.passes;
    topts.limit = args.images;
    topts.verbose = args.progress;
    const core::TuneResult r = session.tune(calibration, topts);
    std::printf("baseline: %s  accuracy %.4f  %.2f img/s\n",
                lensSpec(r.baselineStageStreamLens).c_str(),
                r.baselineAccuracy, r.baselineImagesPerSec);
    std::printf("tuned:    %s  accuracy %.4f  %.2f img/s\n",
                lensSpec(r.stageStreamLens).c_str(), r.tunedAccuracy,
                r.tunedImagesPerSec);
    std::printf("speedup %.2fx, accuracy delta %+.2fpt, %zu candidate "
                "evaluation(s) over %d pass(es)\n",
                r.speedup, (r.tunedAccuracy - r.baselineAccuracy) * 100.0,
                r.evaluations, r.passes);
    std::printf("apply with: --stage-lens %s\n",
                lensSpec(r.stageStreamLens).c_str());
    return 0;
}

int
cmdServe(const Args &args)
{
    if (args.modelFile.empty()) {
        std::fprintf(stderr, "error: serve needs --model-file <file>\n");
        return 2;
    }
    if (args.images <= 0) {
        std::fprintf(stderr, "error: serve needs --images >= 1\n");
        return 2;
    }
    serving::ServingFrontend frontend(args.frontend);
    frontend.addModelFromFile("m", args.modelFile, args.engine);
    serving::TenantConfig cfg;
    cfg.name = "serve";
    cfg.model = "m";
    cfg.queueCapacity = args.queueCap;
    cfg.adaptive = args.adaptive;
    cfg.policy = args.engine.adaptive;
    cfg.timeoutSeconds = args.timeoutMs * 1e-3;
    frontend.addTenant(cfg);
    frontend.start();
    const core::InferenceSession &session = frontend.model("m");
    std::printf("serving %s on %s: %d worker(s), queue %zu, "
                "micro-batch %d%s\n",
                args.modelFile.c_str(), session.options().backend.c_str(),
                frontend.workers(), cfg.queueCapacity,
                args.frontend.maxBatch,
                cfg.adaptive ? ", adaptive early exit" : "");

    const auto test = data::generateDigits(kTestImages, kTestDataSeed);
    const int n = std::min<int>(args.images, kTestImages);
    std::vector<std::future<serving::ServedResult>> futures;
    futures.reserve(static_cast<std::size_t>(n));
    // Every image is served: while the queue is full, wait for the
    // oldest outstanding request, then try again.
    std::size_t oldest = 0;
    for (int i = 0; i < n; ++i) {
        const nn::Tensor &image = test[static_cast<std::size_t>(i)].image;
        auto f = frontend.trySubmit(cfg.name, image);
        for (; !f; f = frontend.trySubmit(cfg.name, image))
            futures[oldest++].wait();
        futures.push_back(std::move(*f));
    }

    std::vector<double> latency_ms;
    latency_ms.reserve(futures.size());
    std::size_t correct = 0;
    std::size_t served = 0;
    for (int i = 0; i < n; ++i) {
        try {
            const serving::ServedResult r =
                futures[static_cast<std::size_t>(i)].get();
            latency_ms.push_back((r.queueSeconds + r.serviceSeconds) * 1e3);
            if (r.prediction.label ==
                test[static_cast<std::size_t>(i)].label)
                ++correct;
            ++served;
        } catch (const core::StatusError &e) {
            // Counted in stats below; a timed-out request is expected
            // operation under --timeout-ms, not a CLI failure.
            std::fprintf(stderr, "request %d failed: %s\n", i,
                         e.what());
        }
    }
    frontend.shutdown();

    std::sort(latency_ms.begin(), latency_ms.end());
    auto pct = [&](double q) {
        if (latency_ms.empty())
            return 0.0;
        const std::size_t i = static_cast<std::size_t>(
            q * static_cast<double>(latency_ms.size() - 1));
        return latency_ms[i];
    };
    const serving::TenantStats stats = frontend.tenantStats(cfg.name);
    std::printf("served %llu requests: accuracy %.4f, p50 %.1f ms, "
                "p90 %.1f ms, p99 %.1f ms\n",
                static_cast<unsigned long long>(stats.completed),
                served == 0 ? 0.0
                            : static_cast<double>(correct) /
                                  static_cast<double>(served),
                pct(0.50), pct(0.90), pct(0.99));
    char budget[32];
    std::snprintf(budget, sizeof budget, "%g ms", args.timeoutMs);
    std::printf("failed %llu (timed out %llu), timeout budget %s\n",
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.timedOut),
                args.timeoutMs > 0.0 ? budget : "none");
    std::printf("avg micro-batch %.2f, avg consumed cycles %.0f/%zu, "
                "early exits %llu\n",
                stats.batches == 0
                    ? 0.0
                    : static_cast<double>(stats.completed + stats.failed) /
                          static_cast<double>(stats.batches),
                stats.avgConsumedCycles,
                session.options().streamLen,
                static_cast<unsigned long long>(stats.earlyExits));
    std::printf("queue depth high-water %zu/%zu\n",
                stats.queueDepthHighWater, cfg.queueCapacity);
    std::printf("queue latency   %s\n",
                stats.queueHistogram.summary().c_str());
    std::printf("service latency %s\n",
                stats.serviceHistogram.summary().c_str());
    printPlanCacheLine(core::InferenceSession::planCacheStats());
    return 0;
}

/**
 * Parse one --tenant SPEC (comma-separated: name first, then key=value
 * or bare-flag tokens) on top of the defaults in @p cfg.
 * @throws UsageError on unknown or malformed tokens.
 */
serving::TenantConfig
parseTenantSpec(const std::string &spec, serving::TenantConfig cfg)
{
    std::size_t start = 0;
    bool first = true;
    while (start <= spec.size()) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos)
            end = spec.size();
        const std::string token = spec.substr(start, end - start);
        start = end + 1;
        if (token.empty())
            continue;
        if (first) {
            cfg.name = token;
            first = false;
            continue;
        }
        const std::size_t eq = token.find('=');
        const std::string key = token.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : token.substr(eq + 1);
        const std::string what = "--tenant '" + spec + "': " + key;
        if (key == "adaptive")
            cfg.adaptive = true;
        else if (key == "shed")
            cfg.shed.enabled = true;
        else if (key == "weight")
            cfg.weight = parseNumber<double>(what, val);
        else if (key == "priority")
            cfg.priority = parseNumber<int>(what, val);
        else if (key == "deadline-ms")
            cfg.deadlineSeconds = parseNumber<double>(what, val) * 1e-3;
        else if (key == "queue-cap")
            cfg.queueCapacity = parseNumber<std::size_t>(what, val);
        else if (key == "backend")
            cfg.backend = val;
        else if (key == "timeout-ms")
            cfg.timeoutSeconds = parseNumber<double>(what, val) * 1e-3;
        else if (key == "retries")
            cfg.maxRetries = parseNumber<int>(what, val);
        else if (key == "margin") {
            cfg.adaptive = true;
            cfg.policy.exitMargin = parseNumber<double>(what, val);
        } else if (key == "min-cycles") {
            cfg.adaptive = true;
            cfg.policy.minCycles = parseNumber<std::size_t>(what, val);
        } else {
            throw UsageError("--tenant '" + spec + "': unknown token '" +
                             token + "'");
        }
    }
    if (cfg.name.empty())
        throw UsageError("--tenant '" + spec +
                         "' must start with a tenant name");
    // Shedding rides the adaptive path; keep hand-typed specs terse by
    // implying it and clamping the floors into the valid range.
    if (cfg.shed.enabled) {
        cfg.adaptive = true;
        cfg.shed.marginFloor =
            std::min(cfg.shed.marginFloor, cfg.policy.exitMargin);
        cfg.shed.minCyclesFloor =
            std::min(cfg.shed.minCyclesFloor, cfg.policy.minCycles);
    }
    return cfg;
}

int
cmdServeMulti(const Args &args)
{
    if (args.modelFile.empty() && args.model.empty()) {
        std::fprintf(stderr, "error: serve-multi needs --model-file "
                             "<file> or --model <zoo>\n");
        return 2;
    }
    if (args.images <= 0) {
        std::fprintf(stderr, "error: serve-multi needs --images >= 1\n");
        return 2;
    }
    const auto policy = serving::parseSchedPolicy(args.policy);
    if (!policy) {
        std::fprintf(stderr,
                     "error: unknown --policy '%s' (fifo, priority, "
                     "edf, fair)\n",
                     args.policy.c_str());
        return 2;
    }

    serving::FrontendOptions fopts = args.frontend;
    fopts.policy = *policy;
    serving::ServingFrontend frontend(fopts);
    if (!args.modelFile.empty())
        frontend.addModelFromFile("m", args.modelFile, args.engine);
    else
        frontend.addModelFromZoo("m", args.model, args.engine,
                                 args.trainSeed);

    // Defaults every SPEC starts from (and may override).
    serving::TenantConfig base;
    base.model = "m";
    base.deadlineSeconds = args.deadlineMs * 1e-3;
    base.timeoutSeconds = args.timeoutMs * 1e-3;
    base.maxRetries = args.retries;
    base.adaptive = args.adaptive;
    base.policy = args.engine.adaptive;
    if (args.shed) {
        base.shed.enabled = true;
        base.adaptive = true;
        base.shed.marginFloor =
            std::min(base.shed.marginFloor, base.policy.exitMargin);
        base.shed.minCyclesFloor =
            std::min(base.shed.minCyclesFloor, base.policy.minCycles);
    }
    std::vector<std::string> names;
    if (args.tenants.empty()) {
        for (const char *name : {"a", "b"}) {
            serving::TenantConfig cfg = base;
            cfg.name = name;
            frontend.addTenant(cfg);
            names.push_back(name);
        }
    } else {
        for (const std::string &spec : args.tenants) {
            const serving::TenantConfig cfg = parseTenantSpec(spec, base);
            frontend.addTenant(cfg);
            names.push_back(cfg.name);
        }
    }
    frontend.start();
    std::printf("serving %zu tenant(s) on '%s', policy %s, %d worker(s), "
                "micro-batch %d, %d request(s)/tenant\n",
                names.size(),
                args.modelFile.empty() ? args.model.c_str()
                                       : args.modelFile.c_str(),
                serving::schedPolicyName(*policy), frontend.workers(),
                fopts.maxBatch, args.images);

    // Push --images requests per tenant, interleaved round-robin, via
    // the non-blocking admission path; full queues count as rejects.
    const auto test = data::generateDigits(kTestImages, kTestDataSeed);
    struct Pending
    {
        std::size_t tenant;
        int image;
        std::future<serving::ServedResult> future;
    };
    std::vector<Pending> pending;
    pending.reserve(names.size() * static_cast<std::size_t>(args.images));
    for (int i = 0; i < args.images; ++i) {
        const auto &image =
            test[static_cast<std::size_t>(i) % test.size()].image;
        for (std::size_t t = 0; t < names.size(); ++t) {
            auto f = frontend.trySubmit(names[t], image);
            if (f)
                pending.push_back(
                    {t, i % static_cast<int>(test.size()), std::move(*f)});
        }
    }

    std::vector<std::vector<double>> latency_ms(names.size());
    std::vector<std::size_t> correct(names.size(), 0);
    std::vector<std::size_t> got(names.size(), 0);
    for (Pending &p : pending) {
        try {
            const serving::ServedResult r = p.future.get();
            latency_ms[p.tenant].push_back(
                (r.queueSeconds + r.serviceSeconds) * 1e3);
            if (r.prediction.label ==
                test[static_cast<std::size_t>(p.image)].label)
                ++correct[p.tenant];
            ++got[p.tenant];
        } catch (const core::StatusError &) {
            // Timeouts/quarantines under load are expected operation;
            // the per-tenant counters below report them.
        }
    }
    // Snapshot before shutdown: workersAlive reflects the serving pool,
    // not the (correctly) empty post-join pool.
    const serving::HealthSnapshot health = frontend.health();
    frontend.shutdown();

    for (std::size_t t = 0; t < names.size(); ++t) {
        const serving::TenantStats stats = frontend.tenantStats(names[t]);
        auto &lat = latency_ms[t];
        std::sort(lat.begin(), lat.end());
        auto pct = [&](double q) {
            if (lat.empty())
                return 0.0;
            return lat[static_cast<std::size_t>(
                q * static_cast<double>(lat.size() - 1))];
        };
        std::printf(
            "tenant %-10s completed %llu, rejected %llu, shed %llu, "
            "deadline-missed %llu\n",
            names[t].c_str(),
            static_cast<unsigned long long>(stats.completed),
            static_cast<unsigned long long>(stats.rejected),
            static_cast<unsigned long long>(stats.shedServed),
            static_cast<unsigned long long>(stats.deadlineMissed));
        std::printf(
            "  failed %llu (timed out %llu, quarantined %llu), "
            "retried %llu\n",
            static_cast<unsigned long long>(stats.failed),
            static_cast<unsigned long long>(stats.timedOut),
            static_cast<unsigned long long>(stats.quarantined),
            static_cast<unsigned long long>(stats.retried));
        std::printf(
            "  accuracy %.4f, p50 %.1f ms, p99 %.1f ms, avg cycles "
            "%.0f, queue high-water %zu\n",
            got[t] == 0 ? 0.0
                        : static_cast<double>(correct[t]) /
                              static_cast<double>(got[t]),
            pct(0.50), pct(0.99), stats.avgConsumedCycles,
            stats.queueDepthHighWater);
        std::printf("  queue latency   %s\n",
                    stats.queueHistogram.summary().c_str());
        std::printf("  service latency %s\n",
                    stats.serviceHistogram.summary().c_str());
    }
    std::printf("pool health: %d/%d worker(s) alive, respawns %llu, "
                "watchdog kicks %llu over %llu tick(s)\n",
                health.workersAlive, health.workersConfigured,
                static_cast<unsigned long long>(health.respawns),
                static_cast<unsigned long long>(health.watchdogKicks),
                static_cast<unsigned long long>(health.watchdogTicks));
    printPlanCacheLine(health.planCache);
    return 0;
}

int
cmdInfer(const Args &args)
{
    if (args.modelFile.empty()) {
        std::fprintf(stderr, "error: infer needs --model-file <file>\n");
        return 2;
    }
    const auto test = data::generateDigits(kTestImages, kTestDataSeed);
    if (args.index < 0 || args.index >= static_cast<int>(test.size())) {
        std::fprintf(stderr, "error: --index must be in [0, %d)\n",
                     kTestImages);
        return 2;
    }
    const core::InferenceSession session =
        core::InferenceSession::fromFile(args.modelFile, args.engine);
    const nn::Sample &sample = test[static_cast<std::size_t>(args.index)];
    const core::ScPrediction pred = session.infer(sample.image);
    std::printf("backend %s, image %d: true label %d, predicted %d\n",
                session.options().backend.c_str(), args.index, sample.label,
                pred.label);
    for (std::size_t c = 0; c < pred.scores.size(); ++c)
        std::printf("  class %zu: %+.4f%s\n", c, pred.scores[c],
                    static_cast<int>(c) == pred.label ? "  <-- argmax"
                                                      : "");
    return 0;
}

int
cmdBackends()
{
    for (const auto &name : core::BackendRegistry::instance().names())
        std::printf("%s\n", name.c_str());
    const core::HostSimdInfo simd = core::hostSimdInfo();
    std::printf("# simd dispatch: active=%s detected=%s kernels: %s\n",
                simd.active.c_str(), simd.detected.c_str(),
                simd.variants.c_str());
    return 0;
}

int
cmdModels()
{
    for (const auto &name : core::modelNames())
        std::printf("%s\n", name.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        if (!parse(argc, argv, args)) {
            usage();
            return 2;
        }
        if (args.command == "train")
            return cmdTrain(args);
        if (args.command == "eval")
            return cmdEval(args);
        if (args.command == "tune")
            return cmdTune(args);
        if (args.command == "infer")
            return cmdInfer(args);
        if (args.command == "serve")
            return cmdServe(args);
        if (args.command == "serve-multi")
            return cmdServeMulti(args);
        if (args.command == "backends")
            return cmdBackends();
        if (args.command == "models")
            return cmdModels();
    } catch (const UsageError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "error: unknown command '%s'\n",
                 args.command.c_str());
    usage();
    return 2;
}
