/**
 * @file
 * scbench: the measuring half of the repository benchmark (run.py builds
 * it, aggregates its raw output into metrics and prints them).  It only
 * calls the library's public API and times those calls from outside; no
 * library source is instrumented.
 *
 *   scbench train --seed S --out MODEL
 *       Train the tiny CNN on digits generated from S, quantize it to
 *       the 10-bit SNG grid and save the artifact.
 *
 *   scbench run --workload W --seed S --seconds T --trace 0|1
 *               --model MODEL --raw OUT.json [--chrome TRACE.json]
 *       Set up W several times, run its timed loop for T seconds, check
 *       every output against an independent engine entry point, and
 *       write raw samples (per-call or per-request timings, set-up
 *       times, counters) to OUT.json.  With --trace 1 it also replays
 *       each cohort stage by stage through ScStage::runCohortSpan and
 *       writes the spans as Chrome trace-event JSON to TRACE.json.
 *
 * Workloads (see README.md for why each was chosen):
 *   tiny-sorter-1024  offline, closed loop: trained tiny, aqfp-sorter,
 *                     N=1024, cohort 4, 1 worker
 *   snn-apc-256       offline, closed loop: zoo snn, cmos-apc, N=256,
 *                     cohort 4, 1 worker
 *   tiny-serve-512    open loop at 36 req/s through ServingFrontend:
 *                     trained tiny, aqfp-sorter, N=512, 2 workers,
 *                     maxBatch 1, EDF, tenants gold/bulk, adaptive
 */

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <future>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "core/hardware_report.h"
#include "core/model_zoo.h"
#include "core/plan_cache.h"
#include "core/session.h"
#include "core/stages/stage.h"
#include "core/stages/stage_compiler.h"
#include "core/workspace.h"
#include "data/digits.h"
#include "nn/network.h"
#include "sc/rng.h"
#include "sc/stream_matrix.h"
#include "serving/frontend.h"

namespace {

using namespace aqfpsc;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Distinct, reproducible sub-seeds of the benchmark seed. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** Set-up is repeated this often per run; run.py reports the median. */
constexpr int kSetupReps = 7;
/** Zoo build seed of the architectures (weights of the untrained snn). */
constexpr unsigned kBuildSeed = 3;
constexpr int kTrainSamples = 800;
constexpr int kTrainEpochs = 4;

// ------------------------------------------------------------ workloads

struct Workload
{
    std::string name;
    std::string model;   ///< "tiny" (trained artifact) or "snn" (zoo)
    std::string backend; ///< BackendRegistry name
    std::size_t streamLen = 0;
    int cohort = 4;      ///< offline cohort; serving maxBatch
    int images = 0;      ///< offline: fixed evaluation set size
    bool serving = false;
};

std::optional<Workload>
findWorkload(const std::string &name)
{
    static const std::vector<Workload> all = {
        {"tiny-sorter-1024", "tiny", "aqfp-sorter", 1024, 4, 128, false},
        {"snn-apc-256", "snn", "cmos-apc", 256, 4, 40, false},
        {"tiny-serve-512", "tiny", "aqfp-sorter", 512, 1, 1024, true},
    };
    for (const Workload &w : all)
        if (w.name == name)
            return w;
    return std::nullopt;
}

// ---------------------------------------------------- raw JSON output

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

template <typename T>
std::string
numArray(const std::vector<T> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + num(static_cast<double>(v[i]));
    return out + "]";
}

/** Insertion-ordered JSON object text builder. */
class JsonObject
{
  public:
    JsonObject &raw(const std::string &key, const std::string &text)
    {
        body_ += (body_.empty() ? "" : ",\n") + quote(key) + ": " + text;
        return *this;
    }
    JsonObject &set(const std::string &key, double v)
    {
        return raw(key, num(v));
    }
    JsonObject &set(const std::string &key, const std::string &v)
    {
        return raw(key, quote(v));
    }
    std::string str() const { return "{\n" + body_ + "\n}"; }

  private:
    std::string body_;
};

// ------------------------------------------------------ chrome trace

/** Spans kept in memory and written once, at the end of the run. */
class TraceLog
{
  public:
    explicit TraceLog(Clock::time_point origin) : origin_(origin) {}

    /** Complete event ("X") on thread track @p tid. */
    void complete(const std::string &name, int tid, Clock::time_point b,
                  Clock::time_point e, const std::string &args = "{}")
    {
        events_.push_back("{\"name\":" + quote(name) +
                          ",\"ph\":\"X\",\"pid\":1,\"tid\":" +
                          std::to_string(tid) + ",\"ts\":" + us(b) +
                          ",\"dur\":" + num(seconds(b, e) * 1e6) +
                          ",\"args\":" + args + "}");
    }

    /** Nestable async begin/end pair sharing id @p id (one request). */
    void async(const std::string &name, std::uint64_t id, double b_s,
               double e_s, const std::string &args = "{}")
    {
        const std::string common = "{\"name\":" + quote(name) +
                                   ",\"cat\":\"request\",\"pid\":1,\"tid\":0,"
                                   "\"id\":" +
                                   std::to_string(id);
        events_.push_back(common + ",\"ph\":\"b\",\"ts\":" + num(b_s * 1e6) +
                          ",\"args\":" + args + "}");
        events_.push_back(common + ",\"ph\":\"e\",\"ts\":" + num(e_s * 1e6) +
                          "}");
    }

    /** Seconds of @p t since the trace origin. */
    double at(Clock::time_point t) const { return seconds(origin_, t); }

    bool write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        for (std::size_t i = 0; i < events_.size(); ++i)
            out << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    std::string us(Clock::time_point t) const
    {
        return num(seconds(origin_, t) * 1e6);
    }

    Clock::time_point origin_;
    std::vector<std::string> events_;
};

// ------------------------------------------------------------- models

nn::Network
loadNetwork(const Workload &w, const std::string &model_path)
{
    if (w.model == "tiny")
        return nn::Network::loadModel(model_path);
    return core::buildModel(w.model, kBuildSeed);
}

core::EngineOptions
engineOptions(const Workload &w, std::size_t stream_len)
{
    core::EngineOptions opts;
    opts.backend = w.backend;
    opts.streamLen = stream_len;
    opts.threads = 1;
    opts.cohort = w.cohort;
    return opts;
}

/** Bit-identical predictions (scores compared with ==). */
bool
samePrediction(const core::ScPrediction &a, const core::ScPrediction &b)
{
    return a.label == b.label && a.scores == b.scores;
}

long
peakRssKib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

/** The CPUs this process may run on, in ascending order. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus.push_back(c);
    return cpus;
}

bool
pinThread(pid_t tid, int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(tid, sizeof(one), &one) == 0;
}

/**
 * Pin the calling thread (the load generator) and the newest thread (the
 * front end's watchdog, started after its workers; it mostly sleeps) to
 * @p cpus[0], and every other thread to one of the remaining CPUs, round
 * robin.  Returns the CPUs those others got, the workers' CPUs.
 *
 * Left alone, the kernel sometimes stacks two busy threads on one CPU
 * for a second or more while another CPU idles; a serving run then
 * measures that placement (twice the service time) rather than the
 * program.  With one CPU nothing is pinned and that CPU is returned.
 */
std::vector<int>
spreadThreads(const std::vector<int> &cpus)
{
    if (cpus.size() < 2)
        return cpus;
    std::vector<pid_t> tids;
    if (DIR *dir = opendir("/proc/self/task")) {
        while (const dirent *e = readdir(dir))
            if (e->d_name[0] != '.')
                tids.push_back(static_cast<pid_t>(std::atol(e->d_name)));
        closedir(dir);
    }
    std::sort(tids.begin(), tids.end());
    const auto self = static_cast<pid_t>(syscall(SYS_gettid));
    std::vector<int> used;
    std::size_t next = 0;
    for (const pid_t tid : tids) {
        int cpu = cpus[0];
        if (tid != self && tid != tids.back()) {
            cpu = cpus[1 + next++ % (cpus.size() - 1)];
            if (std::find(used.begin(), used.end(), cpu) == used.end())
                used.push_back(cpu);
        }
        pinThread(tid, cpu);
    }
    return used;
}

/** Iterations of the host-speed probe (about 10 ms on a 2020s core). */
constexpr int kProbeSteps = 3'000'000;
volatile std::uint64_t probeSink = 0;

/**
 * A fixed scalar integer loop that uses nothing from the library.  Its
 * time tracks the host's momentary core speed, which on shared virtual
 * machines drifts by tens of percent between runs; run.py scales the
 * timings of a run by it.
 */
void
probeLoop(int steps)
{
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < steps; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        acc += static_cast<std::uint64_t>(std::popcount(x));
    }
    probeSink = probeSink + acc;
}

double
probeSeconds()
{
    const auto t0 = Clock::now();
    probeLoop(kProbeSteps);
    return seconds(t0, Clock::now());
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Correctness and accounting shared by every workload. */
struct Outcome
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t mismatches = 0;
    std::vector<std::string> errors;
    std::vector<double> probes; ///< host-speed probe times of the run

    void mismatch(const std::string &what)
    {
        ++mismatches;
        if (errors.size() < 8)
            errors.push_back(what);
    }

    double probe()
    {
        probes.push_back(probeSeconds());
        return probes.back();
    }
};

/**
 * Samples the speed of a set of CPUs while their owners idle: one probe
 * thread per CPU, pinned there under SCHED_IDLE, so it runs only when
 * nothing else wants the CPU and gives way at once to a waking worker.
 * Each sample is the thread CPU time of a tenth of the probe loop,
 * scaled to a whole probe, so it reads like probeSeconds() and does not
 * count the time the worker held the CPU.
 */
class IdleProbes
{
  public:
    IdleProbes(const std::vector<int> &cpus, Clock::time_point origin)
        : origin_(origin), samples_(cpus.size())
    {
        for (std::size_t i = 0; i < cpus.size(); ++i) {
            samples_[i].reserve(1 << 15);
            threads_.emplace_back([this, cpu = cpus[i], &out = samples_[i]] {
                // A probe that cannot sit on its CPU at idle priority
                // would compete with the worker: it records nothing, and
                // run.py falls back to the set-up probes.
                const sched_param idle{};
                if (!pinThread(static_cast<pid_t>(syscall(SYS_gettid)), cpu) ||
                    sched_setscheduler(0, SCHED_IDLE, &idle) != 0)
                    return;
                try {
                    while (!stop_.load(std::memory_order_relaxed)) {
                        const double c0 = threadCpuSeconds();
                        probeLoop(kProbeSteps / kSlices);
                        const double cpuSeconds = threadCpuSeconds() - c0;
                        out.emplace_back(seconds(origin_, Clock::now()),
                                         cpuSeconds * kSlices);
                    }
                } catch (const std::bad_alloc &) {
                    std::fprintf(stderr, "scbench: idle probe on CPU %d "
                                         "stopped: out of memory\n", cpu);
                }
            });
        }
    }

    IdleProbes(const IdleProbes &) = delete;
    IdleProbes &operator=(const IdleProbes &) = delete;
    ~IdleProbes() { stop(); }

    void stop()
    {
        stop_.store(true);
        for (std::thread &t : threads_)
            if (t.joinable())
                t.join();
    }

    /** {"at": [...], "seconds": [...]}: every CPU's samples, the time
     *  each ended (seconds since the origin) and its probe-equivalent. */
    std::string json() const
    {
        std::vector<double> at, secs;
        for (const auto &cpu : samples_)
            for (const auto &[t, v] : cpu) {
                at.push_back(t);
                secs.push_back(v);
            }
        return "{\"at\":" + numArray(at) + ",\"seconds\":" + numArray(secs) +
               "}";
    }

  private:
    static constexpr int kSlices = 10;
    Clock::time_point origin_;
    std::atomic<bool> stop_{false};
    std::vector<std::vector<std::pair<double, double>>> samples_;
    std::vector<std::thread> threads_;
};

/** Set-up figures common to every workload. */
struct SetupTimes
{
    std::vector<double> setup;        ///< whole set-up, per repetition
    std::vector<double> probe;        ///< host probe before each one
    std::vector<double> coldCompile;  ///< engine compile, cache empty
    std::vector<double> workspaceMs;  ///< CohortWorkspace construction
    double warmCompile = 0.0;         ///< engine compile, cache warm
    double residentBytes = 0.0;       ///< PlanCache resident stream bytes

    std::string json() const
    {
        return JsonObject()
            .raw("setup_s", numArray(setup))
            .raw("probe_s", numArray(probe))
            .raw("cold_compile_s", numArray(coldCompile))
            .raw("workspace_build_ms", numArray(workspaceMs))
            .set("warm_compile_s", warmCompile)
            .set("resident_bytes", residentBytes)
            .str();
    }
};

/** Compile the same spec again while the first engine is alive: a
 *  PlanCache hit, so this is the warm compile time. */
double
warmCompileSeconds(const Workload &w, const std::string &model_path)
{
    core::InferenceSession twin(loadNetwork(w, model_path),
                                engineOptions(w, w.streamLen));
    const auto t0 = Clock::now();
    twin.engine();
    return seconds(t0, Clock::now());
}

// ------------------------------------------------------ traced replay

/** "s<i>_<kind>" key of stage @p i, kind from the stage's name. */
std::string
stageKey(const core::ScStage &stage, std::size_t i)
{
    const std::string name = stage.name();
    std::string kind = "stage";
    if (stage.terminal())
        kind = "out";
    else if (name.find("Conv") != std::string::npos)
        kind = "conv";
    else if (name.find("Pool") != std::string::npos)
        kind = "pool";
    else if (name.find("Dense") != std::string::npos)
        kind = "dense";
    return "s" + std::to_string(i) + "_" + kind;
}

/** Accumulated per-stage replay time of one engine. */
struct StageTotals
{
    std::vector<double> stageSeconds;
    double sngSeconds = 0.0;
    double cohortSeconds = 0.0;
    std::size_t images = 0;
};

/**
 * Replays inferCohort from outside the engine: arms each context with
 * sc::deriveStreamSeed, encodes inputs with StreamMatrix::fillBipolar
 * (one span) and runs every stage's runCohortSpan over the full stream
 * (one span per stage), all under one cohort span.
 */
class CohortReplay
{
  public:
    CohortReplay(const core::ScNetworkEngine &engine, std::size_t capacity)
        : engine_(engine), plan_(engine.plan()), slots_(capacity),
          views_(capacity)
    {
        for (Slot &slot : slots_)
            for (std::size_t s = 0; s < plan_.stageCount(); ++s)
                slot.scratch.push_back(plan_.stage(s).makeScratch());
        totals_.stageSeconds.assign(plan_.stageCount(), 0.0);
        for (std::size_t s = 0; s < plan_.stageCount(); ++s)
            keys_.push_back(stageKey(plan_.stage(s), s));
    }

    /** Replay one cohort; @p out receives the terminal scores. */
    void run(const nn::Tensor *const images[], const std::size_t indices[],
             std::size_t count, std::vector<double> out[], TraceLog &trace,
             int tid)
    {
        const core::ScEngineConfig &cfg = engine_.config();
        const auto c0 = Clock::now();
        for (std::size_t c = 0; c < count; ++c) {
            Slot &slot = slots_[c];
            slot.ctx.imageSeed = sc::deriveStreamSeed(cfg.seed, indices[c]);
            slot.ctx.image = images[c];
            slot.ctx.values.clear();
            slot.ctx.scores.clear();
            slot.ctx.deterministicSpans = true;
            slot.input.reset(images[c]->size(), plan_.streamLen);
            sc::Xoshiro256StarStar rng(slot.ctx.imageSeed ^ 0xABCDEF12345ULL);
            for (std::size_t i = 0; i < images[c]->size(); ++i)
                slot.input.fillBipolar(i, (*images[c])[i], cfg.rngBits, rng);
        }
        const auto c1 = Clock::now();
        totals_.sngSeconds += seconds(c0, c1);
        trace.complete("sc.sng", tid, c0, c1);

        int flip = 0;
        for (std::size_t s = 0; s < plan_.stageCount(); ++s) {
            const core::ScStage &stage = plan_.stage(s);
            for (std::size_t c = 0; c < count; ++c) {
                Slot &slot = slots_[c];
                views_[c] = core::CohortSlot{
                    s == 0 ? &slot.input : &slot.pingPong[flip ^ 1],
                    &slot.pingPong[flip], &slot.ctx, slot.scratch[s].get()};
            }
            const auto s0 = Clock::now();
            stage.runCohortSpan(views_.data(), count, 0,
                                plan_.stageStreamLens[s]);
            const auto s1 = Clock::now();
            totals_.stageSeconds[s] += seconds(s0, s1);
            trace.complete("stages." + keys_[s], tid, s0, s1,
                           "{\"stage\":" + quote(stage.name()) + "}");
            if (stage.terminal())
                break;
            flip ^= 1;
        }
        for (std::size_t c = 0; c < count; ++c)
            out[c] = slots_[c].ctx.scores;
        const auto c2 = Clock::now();
        totals_.cohortSeconds += seconds(c0, c2);
        totals_.images += count;
        trace.complete("cohort", tid, c0, c2,
                       "{\"images\":" + std::to_string(count) + "}");
    }

    /** Per-stage static description plus accumulated times. */
    std::string json(const nn::Network &net) const
    {
        // Modeled hardware energy per stage: AQFP per-block cost for the
        // sorter backend, CMOS per-block cost for the SC-DCNN baseline.
        const core::NetworkHardware hw =
            core::analyzeNetworkHardware(net, plan_.streamLen, {}, {}, true);
        const bool aqfp = engine_.backendName() == "aqfp-sorter";
        std::string stages = "[";
        for (std::size_t s = 0; s < plan_.stageCount(); ++s) {
            const core::ScStage &stage = plan_.stage(s);
            const std::size_t cycles = plan_.stageStreamLens[s];
            const std::size_t rows =
                stage.terminal() ? slots_[0].ctx.scores.size()
                                 : stage.footprint().outputRows;
            double energy = 0.0;
            if (hw.layers.size() == plan_.stageCount()) {
                const core::LayerHardware &l = hw.layers[s];
                energy = static_cast<double>(l.instances) *
                         (aqfp ? l.aqfpPerBlock.energyPerStreamJ(cycles)
                               : l.cmosPerBlock.energyPerStreamJ(cycles));
            }
            stages += std::string(s ? ",\n" : "\n") +
                      JsonObject()
                          .set("key", keys_[s])
                          .set("name", stage.name())
                          .set("rows", static_cast<double>(rows))
                          .set("cycles", static_cast<double>(cycles))
                          .set("model_energy_j", energy)
                          .set("seconds", totals_.stageSeconds[s])
                          .str();
        }
        return JsonObject()
            .raw("stages", stages + "]")
            .set("sng_seconds", totals_.sngSeconds)
            .set("cohort_seconds", totals_.cohortSeconds)
            .set("images", static_cast<double>(totals_.images))
            .str();
    }

  private:
    struct Slot
    {
        sc::StreamMatrix input;
        sc::StreamMatrix pingPong[2];
        std::vector<std::unique_ptr<core::StageScratch>> scratch;
        core::StageContext ctx;
    };

    const core::ScNetworkEngine &engine_;
    const core::stages::ExecutionPlan &plan_;
    std::vector<Slot> slots_;
    std::vector<core::CohortSlot> views_;
    std::vector<std::string> keys_;
    StageTotals totals_;
};

/** One cohort's argument tables. */
struct CohortArgs
{
    std::vector<const nn::Tensor *> images;
    std::vector<std::size_t> indices;
};

/**
 * The traced per-stage loop shared by all workloads: for each cohort,
 * time engine.inferCohort (untraced engine loop), replay it stage by
 * stage (traced) and require bit-identical terminal scores.  When
 * @p *replayed_cohorts is 0 it runs until @p budget seconds have passed
 * (at least one cohort) and stores the count there; otherwise it replays
 * exactly that many cohorts, so a 2N pass covers the same images.
 * Returns the JSON of the replay plus the untraced loop time.
 */
std::string
traceStages(const core::ScNetworkEngine &engine, const nn::Network &net,
            const std::vector<CohortArgs> &cohorts, std::size_t capacity,
            double budget, TraceLog &trace, int tid, Outcome &outcome,
            std::size_t *replayed_cohorts)
{
    core::CohortWorkspace ws(engine, capacity);
    CohortReplay replay(engine, capacity);
    std::vector<core::ScPrediction> direct(capacity);
    std::vector<std::vector<double>> scores(capacity);
    double loopSeconds = 0.0;
    std::size_t loopImages = 0;
    std::size_t done = 0;
    const std::size_t matched = *replayed_cohorts;
    const auto start = Clock::now();
    while (matched ? done < matched
                   : done == 0 || seconds(start, Clock::now()) < budget) {
        const CohortArgs &a = cohorts[done % cohorts.size()];
        const std::size_t n = a.images.size();
        const auto l0 = Clock::now();
        engine.inferCohort(a.images.data(), a.indices.data(), n, ws,
                           direct.data());
        loopSeconds += seconds(l0, Clock::now());
        loopImages += n;
        replay.run(a.images.data(), a.indices.data(), n, scores.data(), trace,
                   tid);
        for (std::size_t c = 0; c < n; ++c) {
            if (scores[c] != direct[c].scores)
                outcome.mismatch("traced replay != inferCohort (" +
                                 engine.backendName() + ", N=" +
                                 std::to_string(engine.plan().streamLen) +
                                 ", index " + std::to_string(a.indices[c]) +
                                 ")");
        }
        ++done;
    }
    *replayed_cohorts = done;
    return JsonObject()
        .raw("replay", replay.json(net))
        .set("loop_seconds", loopSeconds)
        .set("loop_images", static_cast<double>(loopImages))
        .str();
}

// ---------------------------------------------------- offline workloads

std::string
runOffline(const Workload &w, std::uint64_t seed, double budget, bool traced,
           const std::string &model_path, TraceLog &trace, Outcome &outcome)
{
    SetupTimes times;
    std::unique_ptr<core::InferenceSession> session;
    std::unique_ptr<core::CohortWorkspace> workspace;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        times.probe.push_back(outcome.probe());
        workspace.reset();
        session.reset();
        core::PlanCache::instance().clear();
        const auto t0 = Clock::now();
        session = std::make_unique<core::InferenceSession>(
            loadNetwork(w, model_path), engineOptions(w, w.streamLen));
        const auto t1 = Clock::now();
        const core::ScNetworkEngine &engine = session->engine();
        const auto t2 = Clock::now();
        workspace = std::make_unique<core::CohortWorkspace>(
            engine, static_cast<std::size_t>(w.cohort));
        const auto t3 = Clock::now();
        times.setup.push_back(seconds(t0, t3));
        times.coldCompile.push_back(seconds(t1, t2));
        times.workspaceMs.push_back(seconds(t2, t3) * 1e3);
    }
    times.residentBytes = static_cast<double>(
        core::PlanCache::instance().stats().residentBytes);
    times.warmCompile = warmCompileSeconds(w, model_path);
    const core::ScNetworkEngine &engine = session->engine();

    // The fixed evaluation set, in cohort-sized calls: each call is one
    // closed-loop request of the single client.
    const std::vector<nn::Sample> set =
        data::generateDigits(w.images, subSeed(seed, 2));
    std::vector<std::vector<nn::Sample>> calls;
    for (std::size_t b = 0; b < set.size(); b += w.cohort)
        calls.emplace_back(set.begin() + b,
                           set.begin() + std::min(set.size(),
                                                  b + w.cohort));

    // Reference: the single-image path (runInto, its own workspace), a
    // different code path from the cohort loop predict() runs.
    std::vector<std::vector<core::ScPrediction>> ref(calls.size());
    std::vector<std::size_t> refCorrect(calls.size(), 0);
    std::size_t correctTotal = 0;
    {
        core::StageWorkspace single(engine);
        for (std::size_t k = 0; k < calls.size(); ++k) {
            for (std::size_t j = 0; j < calls[k].size(); ++j) {
                ref[k].push_back(
                    engine.inferIndexed(calls[k][j].image, j, single));
                if (ref[k].back().label == calls[k][j].label)
                    ++refCorrect[k];
            }
            correctTotal += refCorrect[k];
        }
    }

    // Timed closed loop through the session's BatchRunner path.
    // predict() is evaluate() without the label scoring; it returns the
    // predictions, so every output of every call is checked.
    std::vector<double> callSeconds;
    std::vector<double> callProbes; ///< host probe just before each call
    std::vector<double> callImages;
    std::string traced_json = "null";
    if (!traced) {
        const auto start = Clock::now();
        for (std::size_t k = 0;
             k < calls.size() || seconds(start, Clock::now()) < budget;
             ++k) {
            const std::size_t b = k % calls.size();
            outcome.attempted += calls[b].size();
            const double probe = outcome.probe();
            try {
                const auto c0 = Clock::now();
                const std::vector<core::ScPrediction> got =
                    session->predict(calls[b]);
                callSeconds.push_back(seconds(c0, Clock::now()));
                callProbes.push_back(probe);
                callImages.push_back(static_cast<double>(got.size()));
                for (std::size_t j = 0; j < calls[b].size(); ++j)
                    if (j >= got.size() || !samePrediction(got[j], ref[b][j]))
                        outcome.mismatch("predict() != inferIndexed on call " +
                                         std::to_string(k) + " image " +
                                         std::to_string(j));
            } catch (const std::exception &e) {
                ++outcome.failed;
                std::fprintf(stderr, "scbench: predict() threw: %s\n",
                             e.what());
            }
        }
    } else {
        // core.batch: predict() time against the bare inferCohort loop
        // on the same calls; then the traced stage replay.
        double batchSeconds = 0.0;
        std::size_t batchImages = 0;
        double loopSeconds = 0.0;
        std::vector<core::ScPrediction> out(w.cohort);
        std::vector<CohortArgs> cohorts;
        for (const auto &batch : calls) {
            CohortArgs a;
            for (std::size_t j = 0; j < batch.size(); ++j) {
                a.images.push_back(&batch[j].image);
                a.indices.push_back(j);
            }
            cohorts.push_back(std::move(a));
        }
        const auto start = Clock::now();
        for (std::size_t k = 0;
             k < calls.size() || seconds(start, Clock::now()) < budget / 3;
             ++k) {
            const std::size_t b = k % calls.size();
            const auto e0 = Clock::now();
            const std::vector<core::ScPrediction> got =
                session->predict(calls[b]);
            const auto e1 = Clock::now();
            engine.inferCohort(cohorts[b].images.data(),
                               cohorts[b].indices.data(), calls[b].size(),
                               *workspace, out.data());
            const auto e2 = Clock::now();
            trace.complete("core.batch.predict", 2, e0, e1);
            trace.complete("core.engine.inferCohort", 2, e1, e2);
            batchSeconds += seconds(e0, e1);
            loopSeconds += seconds(e1, e2);
            batchImages += calls[b].size();
            for (std::size_t j = 0; j < calls[b].size(); ++j)
                if (!samePrediction(out[j], ref[b][j]) ||
                    !samePrediction(got[j], ref[b][j]))
                    outcome.mismatch("predict()/inferCohort != inferIndexed "
                                     "on call " +
                                     std::to_string(b));
        }
        outcome.attempted += batchImages;

        std::size_t replayed = 0;
        const std::string atN =
            traceStages(engine, session->network(), cohorts, w.cohort,
                        budget / 3, trace, 1, outcome, &replayed);
        // Stream-length guard: the same cohorts again at 2N.
        core::InferenceSession twice(loadNetwork(w, model_path),
                                     engineOptions(w, 2 * w.streamLen));
        const std::string at2N =
            traceStages(twice.engine(), twice.network(), cohorts, w.cohort,
                        budget / 3, trace, 3, outcome, &replayed);
        traced_json = JsonObject()
                          .set("batch_seconds", batchSeconds)
                          .set("batch_loop_seconds", loopSeconds)
                          .set("batch_images",
                               static_cast<double>(batchImages))
                          .raw("at_n", atN)
                          .raw("at_2n", at2N)
                          .str();
    }

    return JsonObject()
        .raw("setup", times.json())
        .raw("call_seconds", numArray(callSeconds))
        .raw("call_images", numArray(callImages))
        .raw("call_probe_seconds", numArray(callProbes))
        .set("accuracy", static_cast<double>(correctTotal) /
                             static_cast<double>(set.size()))
        .set("sim_cycles_per_img",
             static_cast<double>(engine.plan().fullRunCycles()))
        .raw("traced", traced_json)
        .str();
}

// ---------------------------------------------------- serving workload

constexpr double kArrivalRate = 36.0; ///< req/s, never recalibrated
constexpr double kGoldShare = 0.25;
constexpr std::size_t kCheckedRequests = 160;
/** Load offered before the measured window; run.py drops those requests
 *  from the latency figures (they are still checked). */
constexpr double kWarmupSeconds = 1.0;

struct Tenants
{
    serving::TenantConfig gold;
    serving::TenantConfig bulk;
};

Tenants
tenantConfigs()
{
    Tenants t;
    t.gold.name = "gold";
    t.gold.model = "tiny";
    t.gold.weight = 3.0;
    t.gold.deadlineSeconds = 0.100;
    t.gold.adaptive = true;
    t.gold.queueCapacity = 1024;
    t.bulk.name = "bulk";
    t.bulk.model = "tiny";
    t.bulk.deadlineSeconds = 0.400;
    t.bulk.adaptive = true;
    t.bulk.queueCapacity = 1024;
    return t;
}

std::string
runServing(const Workload &w, std::uint64_t seed, double budget, bool traced,
           const std::string &model_path, TraceLog &trace, Outcome &outcome)
{
    SetupTimes times;
    std::unique_ptr<serving::ServingFrontend> fe;
    // Set-up's two warm-up requests take ids 0 and 1.
    constexpr std::uint64_t warmups = 2;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        times.probe.push_back(outcome.probe());
        fe.reset();
        core::PlanCache::instance().clear();
        const auto t0 = Clock::now();
        serving::FrontendOptions fo;
        fo.workers = 2;
        fo.maxBatch = w.cohort;
        fo.policy = serving::SchedPolicy::Edf;
        fe = std::make_unique<serving::ServingFrontend>(fo);
        fe->addModel("tiny", loadNetwork(w, model_path),
                     engineOptions(w, w.streamLen));
        const Tenants tenants = tenantConfigs();
        const auto t1 = Clock::now();
        fe->addTenant(tenants.gold); // compiles the engine
        const auto t2 = Clock::now();
        fe->addTenant(tenants.bulk);
        fe->start();
        // Force the workers' lazy arena build: one request per tenant.
        fe->submit("gold", data::generateDigits(1, 7)[0].image).get();
        fe->submit("bulk", data::generateDigits(1, 7)[0].image).get();
        const auto t3 = Clock::now();
        times.setup.push_back(seconds(t0, t3));
        times.coldCompile.push_back(seconds(t1, t2));
    }
    times.residentBytes = static_cast<double>(
        core::PlanCache::instance().stats().residentBytes);
    times.warmCompile = warmCompileSeconds(w, model_path);
    const core::ScNetworkEngine &engine = fe->model("tiny").engine();
    {
        const auto t0 = Clock::now();
        core::CohortWorkspace probe(engine, static_cast<std::size_t>(w.cohort));
        times.workspaceMs.push_back(seconds(t0, Clock::now()) * 1e3);
    }
    // The generator and the watchdog keep one CPU; each worker gets one
    // of the others, where idle probes sample the host while it idles.
    const std::vector<int> workerCpus = spreadThreads(allowedCpus());

    // The open-loop schedule: a Poisson process conditioned on its count,
    // i.e. exactly rate x duration requests at sorted uniform times, so
    // the offered load is the same for every seed while the burstiness
    // stays Poisson.  Tenant and image per request, all from the seed.
    const std::vector<nn::Sample> pool =
        data::generateDigits(w.images, subSeed(seed, 2));
    std::mt19937_64 gen(subSeed(seed, 3));
    const double span = kWarmupSeconds + budget;
    std::uniform_real_distribution<double> at(0.0, span);
    std::bernoulli_distribution goldPick(kGoldShare);
    const auto n = static_cast<std::size_t>(std::lround(kArrivalRate * span));
    std::vector<double> due(n);
    std::vector<int> isGold(n);
    for (std::size_t i = 0; i < n; ++i) {
        due[i] = at(gen);
        isGold[i] = goldPick(gen) ? 1 : 0;
    }
    std::sort(due.begin(), due.end());

    std::vector<double> sent(n, 0.0);
    std::vector<std::optional<std::future<serving::ServedResult>>> futures(n);
    const auto origin = Clock::now() + std::chrono::milliseconds(20);
    IdleProbes idleProbes(workerCpus, origin);
    for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due[i])));
        sent[i] = seconds(origin, Clock::now());
        futures[i] = fe->trySubmit(isGold[i] ? "gold" : "bulk",
                                   pool[i % pool.size()].image);
    }
    outcome.attempted = n;

    std::vector<double> queue(n, 0.0), service(n, 0.0), done(n, -1.0);
    std::vector<double> cycles(n, 0.0), early(n, 0.0), missed(n, 0.0);
    std::vector<serving::ServedResult> results(n);
    std::vector<char> ok(n, 0);
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!futures[i]) {
            ++rejected;
            continue;
        }
        try {
            results[i] = futures[i]->get();
            ok[i] = 1;
        } catch (const std::exception &e) {
            ++outcome.failed;
            std::fprintf(stderr, "scbench: request failed: %s\n", e.what());
        }
    }
    const serving::TenantStats gs = fe->tenantStats("gold");
    const serving::TenantStats bs = fe->tenantStats("bulk");
    idleProbes.stop();
    fe->shutdown();
    outcome.failed += rejected;

    // Served results against the single-image adaptive path under the
    // policy the front end reports it applied.  Re-running every request
    // would cost as much as the run itself, so an evenly spread sample of
    // about kCheckedRequests is replayed (every request of short runs).
    const std::size_t checkStride = std::max<std::size_t>(
        1, n / kCheckedRequests);
    std::size_t correctLabels = 0, completed = 0;
    {
        core::StageWorkspace single(engine);
        for (std::size_t i = 0; i < n; ++i) {
            if (!ok[i])
                continue;
            const serving::ServedResult &r = results[i];
            ++completed;
            const nn::Sample &sample = pool[i % pool.size()];
            if (r.requestId != warmups + i)
                outcome.mismatch("request " + std::to_string(i) +
                                 " served under id " +
                                 std::to_string(r.requestId));
            if (i % checkStride == 0) {
                const core::AdaptivePrediction ref = engine.inferAdaptive(
                    sample.image, r.requestId, single, r.effectivePolicy);
                if (!samePrediction(r.prediction, ref.prediction) ||
                    r.consumedCycles != ref.consumedCycles ||
                    r.exitedEarly != ref.exitedEarly)
                    outcome.mismatch("served result != inferAdaptive for "
                                     "request " +
                                     std::to_string(r.requestId));
            }
            if (r.prediction.label == sample.label)
                ++correctLabels;
            queue[i] = r.queueSeconds;
            service[i] = r.serviceSeconds;
            done[i] = sent[i] + r.queueSeconds + r.serviceSeconds;
            cycles[i] = static_cast<double>(r.consumedCycles);
            early[i] = r.exitedEarly ? 1.0 : 0.0;
            missed[i] = r.deadlineMissed ? 1.0 : 0.0;
            if (traced) {
                const std::string args =
                    "{\"tenant\":" +
                    quote(isGold[i] ? "gold" : "bulk") +
                    ",\"cycles\":" + std::to_string(r.consumedCycles) + "}";
                const double base = trace.at(origin);
                trace.async("request", r.requestId, base + due[i],
                            base + done[i], args);
                trace.async("loadgen.lag", r.requestId, base + due[i],
                            base + sent[i]);
                trace.async("serving.queue", r.requestId, base + sent[i],
                            base + sent[i] + r.queueSeconds);
                trace.async("serving.service", r.requestId,
                            base + sent[i] + r.queueSeconds, base + done[i]);
            }
        }
    }

    std::string traced_json = "null";
    if (traced) {
        // Per-stage picture of the served engine: full-length replays of
        // the served images under their request ids, cohort = maxBatch.
        std::vector<CohortArgs> cohorts;
        for (std::size_t i = 0; i < n && cohorts.size() < 16;
             i += static_cast<std::size_t>(w.cohort)) {
            CohortArgs a;
            for (std::size_t j = i; j < std::min(n, i + w.cohort); ++j) {
                a.images.push_back(&pool[j % pool.size()].image);
                a.indices.push_back(warmups + j);
            }
            cohorts.push_back(std::move(a));
        }
        std::size_t replayed = 0;
        const std::string atN =
            traceStages(engine, fe->model("tiny").network(), cohorts,
                        w.cohort, budget / 4, trace, 1, outcome, &replayed);
        core::InferenceSession twice(loadNetwork(w, model_path),
                                     engineOptions(w, 2 * w.streamLen));
        const std::string at2N =
            traceStages(twice.engine(), twice.network(), cohorts, w.cohort,
                        budget / 4, trace, 3, outcome, &replayed);
        traced_json = JsonObject().raw("at_n", atN).raw("at_2n", at2N).str();
    }

    return JsonObject()
        .raw("setup", times.json())
        .set("warmup_s", kWarmupSeconds)
        .raw("worker_cpus", numArray(workerCpus))
        .raw("idle_probe", idleProbes.json())
        .raw("due", numArray(due))
        .raw("sent", numArray(sent))
        .raw("done", numArray(done))
        .raw("queue", numArray(queue))
        .raw("service", numArray(service))
        .raw("early", numArray(early))
        .raw("deadline_missed", numArray(missed))
        .raw("gold", numArray(isGold))
        .set("completed", static_cast<double>(completed))
        .set("rejected", static_cast<double>(rejected))
        .set("accuracy", completed ? static_cast<double>(correctLabels) /
                                         static_cast<double>(completed)
                                   : 0.0)
        .set("sim_cycles_per_img",
             completed ? [&] {
                 double sum = 0.0;
                 for (const double c : cycles)
                     sum += c;
                 return sum / static_cast<double>(completed);
             }()
                       : 0.0)
        .set("queue_depth_high_water",
             static_cast<double>(std::max(gs.queueDepthHighWater,
                                          bs.queueDepthHighWater)))
        .set("retried", static_cast<double>(gs.retried + bs.retried))
        .raw("traced", traced_json)
        .str();
}

// ------------------------------------------------------------ commands

const char *
argValue(int argc, char **argv, const char *key)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], key) == 0)
            return argv[i + 1];
    return nullptr;
}

int
cmdTrain(int argc, char **argv)
{
    const char *seedArg = argValue(argc, argv, "--seed");
    const char *out = argValue(argc, argv, "--out");
    if (!seedArg || !out) {
        std::fprintf(stderr, "usage: scbench train --seed S --out MODEL\n");
        return 2;
    }
    const std::uint64_t seed = std::strtoull(seedArg, nullptr, 10);
    nn::Network net = core::buildModel("tiny", kBuildSeed);
    std::vector<nn::Sample> train =
        data::generateDigits(kTrainSamples, subSeed(seed, 1));
    nn::TrainConfig cfg;
    cfg.epochs = kTrainEpochs;
    cfg.learningRate = 0.08f;
    cfg.shuffleSeed = static_cast<unsigned>(subSeed(seed, 4));
    net.train(train, cfg);
    net.quantizeParams(10);
    if (!net.saveModel(out)) {
        std::fprintf(stderr, "scbench: cannot write %s\n", out);
        return 1;
    }
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    const char *wl = argValue(argc, argv, "--workload");
    const char *seedArg = argValue(argc, argv, "--seed");
    const char *secArg = argValue(argc, argv, "--seconds");
    const char *traceArg = argValue(argc, argv, "--trace");
    const char *model = argValue(argc, argv, "--model");
    const char *raw = argValue(argc, argv, "--raw");
    const char *chrome = argValue(argc, argv, "--chrome");
    if (!wl || !seedArg || !secArg || !traceArg || !model || !raw) {
        std::fprintf(stderr,
                     "usage: scbench run --workload W --seed S --seconds T "
                     "--trace 0|1 --model MODEL --raw OUT [--chrome TRACE]\n");
        return 2;
    }
    const std::optional<Workload> w = findWorkload(wl);
    if (!w) {
        std::fprintf(stderr, "scbench: unknown workload '%s'\n", wl);
        return 2;
    }
    const std::uint64_t seed = std::strtoull(seedArg, nullptr, 10);
    const double budget = std::atof(secArg);
    const bool traced = std::atoi(traceArg) != 0;

    const auto origin = Clock::now();
    TraceLog trace(origin);
    Outcome outcome;
    std::string body;
    try {
        body = w->serving
                   ? runServing(*w, seed, budget, traced, model, trace,
                                outcome)
                   : runOffline(*w, seed, budget, traced, model, trace,
                                outcome);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "scbench: %s\n", e.what());
        return 1;
    }
    if (traced && chrome && !trace.write(chrome)) {
        std::fprintf(stderr, "scbench: cannot write %s\n", chrome);
        return 1;
    }

    const core::HostSimdInfo simd = core::hostSimdInfo();
    std::string errors = "[";
    for (std::size_t i = 0; i < outcome.errors.size(); ++i)
        errors += (i ? "," : "") + quote(outcome.errors[i]);
    errors += "]";
    const std::string text =
        JsonObject()
            .set("workload", w->name)
            .set("seed", static_cast<double>(seed))
            .set("trace", traced ? 1.0 : 0.0)
            .raw("stamp", JsonObject()
                              .set("simd_detected", simd.detected)
                              .set("simd_active", simd.active)
                              .set("kernel_variants", simd.variants)
                              .str())
            .set("attempted", static_cast<double>(outcome.attempted))
            .set("failed", static_cast<double>(outcome.failed))
            .set("mismatches", static_cast<double>(outcome.mismatches))
            .raw("probe_seconds", numArray(outcome.probes))
            .raw("errors", errors)
            .set("peak_rss_kib", static_cast<double>(peakRssKib()))
            .set("wall_seconds", seconds(origin, Clock::now()))
            .raw("result", body)
            .str();
    std::ofstream out(raw);
    out << text << "\n";
    if (!out) {
        std::fprintf(stderr, "scbench: cannot write %s\n", raw);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "train") == 0)
        return cmdTrain(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "run") == 0)
        return cmdRun(argc, argv);
    std::fprintf(stderr, "usage: scbench train|run ...\n");
    return 2;
}
