/**
 * @file
 * Open-loop tail-latency harness for the multi-tenant serving front
 * end: the QoS story of serving::ServingFrontend measured the way a
 * serving system is actually judged — by what happens to the latency
 * tail and the accept rate when the offered load exceeds capacity.
 *
 * A tiny-zoo model is trained once, its single-worker serving capacity
 * is calibrated with a short closed-loop run, and then an open-loop
 * load generator offers `--overload` times that capacity (default
 * 1.8x) for `--duration` seconds across two tenants:
 *
 *   gold  25% of the offered rate, tight deadline, small queue
 *   bulk  75% of the offered rate, lax deadline, larger queue
 *
 * under two arrival processes (Poisson and bursty — bulk arrives in
 * back-to-back bursts of 8) and three serving policies:
 *
 *   fifo  SchedPolicy::Fifo, full-length inference — the baseline:
 *         under overload the queues fill, the tail explodes and
 *         admission control rejects.
 *   edf   SchedPolicy::Edf, full-length inference — deadline-aware
 *         ordering protects gold's tail but cannot create capacity:
 *         the same requests are still rejected, only elsewhere.
 *   shed  SchedPolicy::Edf + adaptive early exit with shed-before-
 *         reject: as queues fill the front end tightens the exit
 *         margin toward the configured floor, each request consumes
 *         fewer SC stream cycles, effective capacity rises, and the
 *         overload is absorbed — accept rate stays ~1.0 at a small,
 *         reported accuracy delta.
 *
 * Per (policy, arrival, tenant) the JSON records offered/accepted/
 * rejected/completed counts, accept rate, deadline-miss rate,
 * accuracy (+ delta vs. the non-adaptive baseline), end-to-end
 * latency p50/p99/p99.9 and mean consumed cycles; each run also
 * carries a queue-depth timeline sampled at a fixed cadence, which is
 * the picture of the backlog growing (fifo/edf) or breathing (shed).
 *
 * Results go to BENCH_serving_tail.json (build-stamped via
 * bench_util.h); the committed reference lives in reports/.  CI smoke
 * sets AQFPSC_BENCH_QUICK=1, which shrinks training, stream length and
 * duration to a seconds-scale run with the same JSON shape.
 *
 * Usage:
 *   bench_serving_tail [--duration S] [--overload F100] [--workers W]
 *                      [--stream-len L] [--epochs E] [--train-samples S]
 *                      [--backend NAME] [--seed S]
 *   (--overload is an integer percentage: 180 = 1.8x capacity.)
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <random>
#include <string>
#include <thread>
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

/** One scheduled open-loop arrival. */
struct Arrival
{
    double t;          ///< seconds from run start
    std::size_t tenant;
    std::size_t image; ///< test-set index (labels accuracy later)
};

constexpr std::size_t kGold = 0;
constexpr std::size_t kBulk = 1;
const char *const kTenantNames[] = {"gold", "bulk"};

/**
 * Precompute the merged arrival schedule for one run.  Deterministic
 * per (mode, rates, duration, seed): the same offered load hits every
 * policy, so the runs differ only in how the front end handles it.
 */
std::vector<Arrival>
makeSchedule(const std::string &mode, double goldRate, double bulkRate,
             double duration, std::size_t imagePool, std::uint64_t seed)
{
    std::vector<Arrival> schedule;
    std::mt19937_64 rng(seed);
    std::size_t nextImage = 0;
    auto pushStream = [&](std::size_t tenant, auto nextGap) {
        for (double t = nextGap(); t < duration; t += nextGap())
            schedule.push_back({t, tenant, nextImage++ % imagePool});
    };

    std::exponential_distribution<double> goldGap(goldRate);
    pushStream(kGold, [&] { return goldGap(rng); });
    if (mode == "poisson") {
        std::exponential_distribution<double> bulkGap(bulkRate);
        pushStream(kBulk, [&] { return bulkGap(rng); });
    } else { // bursty: back-to-back bursts of 8 at the same mean rate
        constexpr double kBurst = 8.0;
        const double period = kBurst / bulkRate;
        for (double t0 = period / 2; t0 < duration; t0 += period) {
            for (int j = 0; j < static_cast<int>(kBurst); ++j)
                schedule.push_back({t0, kBulk, nextImage++ % imagePool});
        }
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const Arrival &a, const Arrival &b) { return a.t < b.t; });
    return schedule;
}

/** One serving-policy configuration under test. */
struct PolicyConfig
{
    std::string name;
    serving::SchedPolicy sched;
    bool adaptive = false;
    bool shed = false;
};

/** Everything one (policy, arrival) run produces. */
struct RunResult
{
    std::size_t offered[2] = {0, 0};
    std::size_t accepted[2] = {0, 0};
    std::size_t correct[2] = {0, 0};
    std::vector<double> latencyMs[2];
    serving::TenantStats stats[2];
    bench::Json timeline = bench::Json::array();
    double wallSeconds = 0.0;
};

RunResult
runPolicy(const std::string &modelPath, const core::EngineOptions &eopts,
          const PolicyConfig &policy, const std::vector<Arrival> &schedule,
          const std::vector<nn::Sample> &test, double goldDeadline,
          double bulkDeadline, int workers, int sampleMs)
{
    serving::FrontendOptions fopts;
    fopts.workers = workers;
    fopts.maxBatch = 8;
    fopts.policy = policy.sched;
    serving::ServingFrontend frontend(fopts);
    frontend.addModelFromFile("m", modelPath, eopts);

    for (const std::size_t t : {kGold, kBulk}) {
        serving::TenantConfig cfg;
        cfg.name = kTenantNames[t];
        cfg.model = "m";
        cfg.queueCapacity = t == kGold ? 32 : 128;
        cfg.deadlineSeconds = t == kGold ? goldDeadline : bulkDeadline;
        cfg.weight = t == kGold ? 3.0 : 1.0;
        cfg.priority = t == kGold ? 1 : 0;
        if (policy.adaptive) {
            cfg.adaptive = true;
            cfg.policy.checkpointCycles = 64;
            cfg.policy.exitMargin = 0.125;
            cfg.policy.minCycles =
                std::min<std::size_t>(eopts.streamLen / 4, 320);
        }
        if (policy.shed) {
            cfg.shed.enabled = true;
            cfg.shed.startLoad = 0.25;
            cfg.shed.fullLoad = 0.90;
            // The floors bound the precision cost of absorbing the
            // overload: a ~1.8x offered load needs roughly a 2x cycle
            // reduction, not the 5x+ a 64-cycle floor would buy, so
            // keep the floor at ~minCycles*3/4 and the margin mild.
            cfg.shed.marginFloor = 0.05;
            cfg.shed.minCyclesFloor = cfg.policy.minCycles * 3 / 4;
        }
        frontend.addTenant(cfg);
    }
    frontend.start();

    RunResult result;

    // Queue-depth timeline sampler: the backlog picture over the run.
    // Only this thread touches result.timeline until it is joined.
    std::atomic<bool> sampling{true};
    std::thread sampler([&] {
        const auto t0 = std::chrono::steady_clock::now();
        while (sampling.load()) {
            const double tMs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count() *
                1e3;
            bench::Json sample = bench::Json::object().set("t_ms", tMs);
            for (const std::size_t t : {kGold, kBulk})
                sample.set(kTenantNames[t],
                           frontend.tenantStats(kTenantNames[t]).queueDepth);
            result.timeline.push(std::move(sample));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(sampleMs));
        }
    });

    struct Pending
    {
        std::size_t tenant;
        std::size_t image;
        std::future<serving::ServedResult> future;
    };
    std::vector<Pending> pending;
    pending.reserve(schedule.size());

    bench::WallTimer wall;
    const auto start = std::chrono::steady_clock::now();
    for (const Arrival &a : schedule) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(a.t)));
        ++result.offered[a.tenant];
        auto f = frontend.trySubmit(kTenantNames[a.tenant],
                                    test[a.image].image);
        if (f) {
            ++result.accepted[a.tenant];
            pending.push_back({a.tenant, a.image, std::move(*f)});
        }
    }
    for (Pending &p : pending) {
        const serving::ServedResult r = p.future.get();
        result.latencyMs[p.tenant].push_back(
            (r.queueSeconds + r.serviceSeconds) * 1e3);
        if (r.prediction.label == test[p.image].label)
            ++result.correct[p.tenant];
    }
    frontend.shutdown();
    result.wallSeconds = wall.seconds();
    sampling.store(false);
    sampler.join();
    for (const std::size_t t : {kGold, kBulk})
        result.stats[t] = frontend.tenantStats(kTenantNames[t]);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = std::getenv("AQFPSC_BENCH_QUICK") != nullptr;
    const double duration =
        argInt(argc, argv, "--duration", quick ? 2 : 10);
    const double overload =
        argInt(argc, argv, "--overload", 180) / 100.0;
    const int workers = argInt(argc, argv, "--workers", 1);
    const int stream_len =
        argInt(argc, argv, "--stream-len", quick ? 128 : 512);
    const int epochs = argInt(argc, argv, "--epochs", quick ? 2 : 12);
    const int train_samples =
        argInt(argc, argv, "--train-samples", quick ? 300 : 1600);
    const std::uint64_t seed = static_cast<std::uint64_t>(
        argInt(argc, argv, "--seed", 20240801));
    const std::string backend =
        argStr(argc, argv, "--backend", "aqfp-sorter");
    const int sampleMs = std::max(
        20, static_cast<int>(duration * 1000.0 / 200.0));

    bench::banner(
        "Multi-tenant serving tail latency (tiny, N=" +
        std::to_string(stream_len) + ", " + std::to_string(duration) +
        "s/run at " + bench::cell(overload, 2) +
        "x capacity, backend=" + backend + (quick ? ", QUICK" : "") + ")");

    // Train once, save once: every run loads the same artifact.
    const std::string modelPath = "bench_serving_tail_model.tmp.bin";
    {
        nn::Network net = core::buildModel("tiny", 3);
        auto train = data::generateDigits(train_samples, 11);
        nn::TrainConfig cfg;
        cfg.epochs = epochs;
        cfg.learningRate = 0.08f;
        cfg.verbose = false;
        std::printf("training tiny on %zu digits, %d epochs...\n",
                    train.size(), epochs);
        net.train(train, cfg);
        net.quantizeParams(10);
        if (!net.saveModel(modelPath)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         modelPath.c_str());
            return 1;
        }
    }
    const auto test = data::generateDigits(200, 999);

    core::EngineOptions eopts;
    eopts.backend = backend;
    eopts.streamLen = static_cast<std::size_t>(stream_len);

    // ---- Calibrate: single-worker closed-loop capacity + baseline
    // accuracy at the full stream length. ----
    const core::InferenceSession calib =
        core::InferenceSession::fromFile(modelPath, eopts);
    calib.evaluate(test, {.limit = 1}); // compile + warm
    const core::ScEvalStats baseline =
        calib.evaluate(test, {.limit = quick ? 32 : 64});
    const double capacity = baseline.imagesPerSec;
    std::printf("capacity %.2f img/s single-thread, baseline accuracy "
                "%.4f\n",
                capacity, baseline.accuracy);

    const double totalRate = overload * capacity;
    const double goldRate = 0.25 * totalRate;
    const double bulkRate = 0.75 * totalRate;
    // Deadlines in units of per-image service time: gold tight (a
    // short queue already blows it), bulk lax.
    const double goldDeadline = 12.0 / capacity;
    const double bulkDeadline = 48.0 / capacity;
    std::printf("offering %.2f img/s (gold %.2f + bulk %.2f), deadlines "
                "gold %.0f ms / bulk %.0f ms\n",
                totalRate, goldRate, bulkRate, goldDeadline * 1e3,
                bulkDeadline * 1e3);

    const PolicyConfig policies[] = {
        {"fifo", serving::SchedPolicy::Fifo, false, false},
        {"edf", serving::SchedPolicy::Edf, false, false},
        {"shed", serving::SchedPolicy::Edf, true, true},
    };
    const char *const arrivals[] = {"poisson", "bursty"};

    bench::Json runs = bench::Json::array();
    double fifoAccuracy[2] = {0.0, 0.0}; // per arrival mode, overall
    for (std::size_t ai = 0; ai < 2; ++ai) {
        const std::vector<Arrival> schedule = makeSchedule(
            arrivals[ai], goldRate, bulkRate, duration, test.size(),
            seed + ai);
        for (const PolicyConfig &policy : policies) {
            RunResult r =
                runPolicy(modelPath, eopts, policy, schedule, test,
                          goldDeadline, bulkDeadline, workers, sampleMs);
            const std::size_t offered = r.offered[0] + r.offered[1];
            const std::size_t accepted = r.accepted[0] + r.accepted[1];
            const std::size_t correct = r.correct[0] + r.correct[1];
            const double acceptRate =
                offered == 0 ? 0.0
                             : static_cast<double>(accepted) /
                                   static_cast<double>(offered);
            const double accuracy =
                accepted == 0 ? 0.0
                              : static_cast<double>(correct) /
                                    static_cast<double>(accepted);
            if (policy.name == "fifo")
                fifoAccuracy[ai] = accuracy;

            bench::Json tenants = bench::Json::array();
            bench::header({"tenant", "offered", "accept", "p50 ms",
                           "p99 ms", "p99.9 ms", "miss", "shed",
                           "avg cyc"});
            for (const std::size_t t : {kGold, kBulk}) {
                const serving::TenantStats &s = r.stats[t];
                const double tAccept =
                    r.offered[t] == 0
                        ? 0.0
                        : static_cast<double>(r.accepted[t]) /
                              static_cast<double>(r.offered[t]);
                const double tAccuracy =
                    s.completed == 0
                        ? 0.0
                        : static_cast<double>(r.correct[t]) /
                              static_cast<double>(s.completed);
                const double missRate =
                    s.completed == 0
                        ? 0.0
                        : static_cast<double>(s.deadlineMissed) /
                              static_cast<double>(s.completed);
                const double shedFrac =
                    s.completed == 0
                        ? 0.0
                        : static_cast<double>(s.shedServed) /
                              static_cast<double>(s.completed);
                const double p50 = percentile(r.latencyMs[t], 0.50);
                const double p99 = percentile(r.latencyMs[t], 0.99);
                const double p999 = percentile(r.latencyMs[t], 0.999);
                bench::row({kTenantNames[t],
                            std::to_string(r.offered[t]),
                            bench::cell(tAccept, 3),
                            bench::cell(p50, 1), bench::cell(p99, 1),
                            bench::cell(p999, 1),
                            bench::cell(missRate, 3),
                            bench::cell(shedFrac, 3),
                            bench::cell(s.avgConsumedCycles, 0)});
                tenants.push(
                    bench::Json::object()
                        .set("tenant", kTenantNames[t])
                        .set("offered", r.offered[t])
                        .set("accepted", r.accepted[t])
                        .set("rejected", s.rejected)
                        .set("completed", s.completed)
                        .set("accept_rate", tAccept)
                        .set("deadline_miss_rate", missRate)
                        .set("accuracy", tAccuracy)
                        .set("latency_ms_p50", p50)
                        .set("latency_ms_p99", p99)
                        .set("latency_ms_p999", p999)
                        .set("avg_consumed_cycles", s.avgConsumedCycles)
                        .set("shed_fraction", shedFrac)
                        .set("queue_depth_high_water",
                             s.queueDepthHighWater)
                        .set("queue_latency",
                             s.queueHistogram.summary())
                        .set("service_latency",
                             s.serviceHistogram.summary()));
            }
            std::printf("[%s/%s] accept %.3f, accuracy %.4f (fifo delta "
                        "%+.4f), wall %.1fs\n\n",
                        policy.name.c_str(), arrivals[ai], acceptRate,
                        accuracy, accuracy - fifoAccuracy[ai],
                        r.wallSeconds);
            runs.push(bench::Json::object()
                          .set("policy", policy.name)
                          .set("arrival", arrivals[ai])
                          .set("offered", offered)
                          .set("accepted", accepted)
                          .set("accept_rate", acceptRate)
                          .set("accuracy", accuracy)
                          .set("accuracy_delta_vs_fifo",
                               accuracy - fifoAccuracy[ai])
                          .set("accuracy_delta_vs_baseline",
                               accuracy - baseline.accuracy)
                          .set("wall_seconds", r.wallSeconds)
                          .set("tenants", std::move(tenants))
                          .set("queue_depth_timeline",
                               std::move(r.timeline)));
        }
    }
    std::remove(modelPath.c_str());

    bench::Json results =
        bench::Json::object()
            .set("engine", bench::engineJson(eopts))
            .set("model", "tiny")
            .set("workers", workers)
            .set("duration_seconds", duration)
            .set("overload_factor", overload)
            .set("capacity_images_per_sec", capacity)
            .set("baseline_accuracy", baseline.accuracy)
            .set("gold_deadline_ms", goldDeadline * 1e3)
            .set("bulk_deadline_ms", bulkDeadline * 1e3)
            .set("quick", quick)
            .set("runs", std::move(runs));

    return bench::writeBenchReport("serving_tail", std::move(results))
               ? 0
               : 1;
}
