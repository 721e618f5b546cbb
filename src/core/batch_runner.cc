#include "batch_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "core/stages/stage_compiler.h"
#include "core/workspace.h"

namespace aqfpsc::core {

namespace {

int
resolveThreadCount(int requested)
{
    if (requested <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        requested = hw == 0 ? 1 : static_cast<int>(hw);
    }
    return std::clamp(requested, 1, 256);
}

/** A workspace checked out of the engine's idle pool for one worker's
 *  call and returned when the worker leaves, by return or by throw
 *  (the engine leaves an aborted workspace reusable). */
class PooledWorkspace
{
  public:
    PooledWorkspace(const ScNetworkEngine &engine, std::size_t capacity)
        : engine_(engine), workspace_(engine.acquireWorkspace(capacity))
    {
    }
    ~PooledWorkspace() { engine_.releaseWorkspace(std::move(workspace_)); }
    PooledWorkspace(const PooledWorkspace &) = delete;
    PooledWorkspace &operator=(const PooledWorkspace &) = delete;

    CohortWorkspace &operator*() const { return *workspace_; }

  private:
    const ScNetworkEngine &engine_;
    std::unique_ptr<CohortWorkspace> workspace_;
};

} // namespace

BatchRunner::BatchRunner(const ScNetworkEngine &engine, int threads,
                         int cohort)
    : engine_(engine), threads_(resolveThreadCount(threads)),
      cohort_(std::clamp(cohort, 1,
                         static_cast<int>(kMaxCohortImages)))
{
}

template <typename Fn>
void
BatchRunner::forEachCohort(std::size_t n, bool progress, const Fn &fn) const
{
    if (n == 0)
        return;

    const std::size_t cohort = static_cast<std::size_t>(cohort_);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::mutex print_mutex;

    // Capture the first failure instead of letting it escape a pooled
    // thread (which would std::terminate the process); rethrown to the
    // caller after the join, matching single-thread semantics.
    auto worker = [&]() {
        try {
            // One arena per worker, checked out of the engine's idle
            // pool and returned after the loop: scratch and stream
            // buffers are built once per worker over all calls, and the
            // per-cohort loop below never allocates inside the stage
            // pipeline.
            const PooledWorkspace held(engine_, cohort);
            CohortWorkspace &workspace = *held;
            for (;;) {
                const std::size_t base =
                    next.fetch_add(cohort, std::memory_order_relaxed);
                if (base >= n || failed.load(std::memory_order_relaxed))
                    return;
                const std::size_t count = std::min(cohort, n - base);
                fn(workspace, base, count);
                const std::size_t done =
                    completed.fetch_add(count,
                                        std::memory_order_relaxed) +
                    count;
                if (progress && done / 10 != (done - count) / 10) {
                    const std::lock_guard<std::mutex> lock(print_mutex);
                    std::printf(".");
                    std::fflush(stdout);
                }
            }
        } catch (...) {
            failed.store(true, std::memory_order_relaxed);
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!error)
                error = std::current_exception();
        }
    };

    const std::size_t cohorts = (n + cohort - 1) / cohort;
    const int workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(threads_), cohorts));
    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        for (auto &th : pool)
            th.join();
    }
    if (error)
        std::rethrow_exception(error);
    if (progress)
        std::printf("\n");
}

namespace {

std::size_t
resolveLimit(const std::vector<nn::Sample> &samples, int limit)
{
    return limit < 0 ? samples.size()
                     : std::min<std::size_t>(
                           samples.size(), static_cast<std::size_t>(limit));
}

/** Per-cohort pointer/index tables of the engine cohort entry points. */
struct CohortArgs
{
    const nn::Tensor *images[kMaxCohortImages];
    std::size_t indices[kMaxCohortImages];

    CohortArgs(const std::vector<nn::Sample> &samples, std::size_t base,
               std::size_t count)
    {
        for (std::size_t j = 0; j < count; ++j) {
            images[j] = &samples[base + j].image;
            indices[j] = base + j;
        }
    }
};

} // namespace

std::vector<ScPrediction>
BatchRunner::run(const std::vector<nn::Sample> &samples, int limit,
                 bool progress) const
{
    const std::size_t n = resolveLimit(samples, limit);
    std::vector<ScPrediction> predictions(n);
    forEachCohort(n, progress,
                  [&](CohortWorkspace &workspace, std::size_t base,
                      std::size_t count) {
                      const CohortArgs args(samples, base, count);
                      engine_.inferCohort(args.images, args.indices, count,
                                          workspace, &predictions[base]);
                  });
    return predictions;
}

std::vector<AdaptivePrediction>
BatchRunner::runAdaptive(const std::vector<nn::Sample> &samples,
                         const AdaptivePolicy &policy, int limit,
                         bool progress) const
{
    const std::size_t n = resolveLimit(samples, limit);
    std::vector<AdaptivePrediction> predictions(n);
    forEachCohort(n, progress,
                  [&](CohortWorkspace &workspace, std::size_t base,
                      std::size_t count) {
                      const CohortArgs args(samples, base, count);
                      engine_.inferAdaptiveCohort(args.images, args.indices,
                                                  count, workspace, policy,
                                                  &predictions[base]);
                  });
    return predictions;
}

AdaptiveEvalStats
BatchRunner::evaluateAdaptive(const std::vector<nn::Sample> &samples,
                              const AdaptivePolicy &policy, int limit,
                              bool progress) const
{
    const auto start = std::chrono::steady_clock::now();
    const std::vector<AdaptivePrediction> predictions =
        runAdaptive(samples, policy, limit, progress);
    const auto stop = std::chrono::steady_clock::now();

    AdaptiveEvalStats result;
    result.stats.images = predictions.size();
    result.stats.wallSeconds =
        std::chrono::duration<double>(stop - start).count();
    if (predictions.empty())
        return result;

    std::size_t correct = 0;
    std::size_t cycles = 0;
    for (std::size_t i = 0; i < predictions.size(); ++i) {
        if (predictions[i].prediction.label == samples[i].label)
            ++correct;
        cycles += predictions[i].consumedCycles;
        if (predictions[i].exitedEarly)
            ++result.earlyExits;
    }
    result.stats.accuracy = static_cast<double>(correct) /
                            static_cast<double>(predictions.size());
    result.stats.imagesPerSec =
        result.stats.wallSeconds > 0.0
            ? static_cast<double>(predictions.size()) /
                  result.stats.wallSeconds
            : 0.0;
    result.avgConsumedCycles =
        static_cast<double>(cycles) /
        static_cast<double>(predictions.size());
    if (progress) {
        std::printf("accuracy %.4f (%zu images, %.2f img/s, %d threads, "
                    "avg %.0f/%zu cycles, %zu early exits)\n",
                    result.stats.accuracy, result.stats.images,
                    result.stats.imagesPerSec, threads_,
                    result.avgConsumedCycles,
                    engine_.plan().fullRunCycles(), result.earlyExits);
        std::fflush(stdout);
    }
    return result;
}

ScEvalStats
BatchRunner::evaluate(const std::vector<nn::Sample> &samples, int limit,
                      bool progress) const
{
    const auto start = std::chrono::steady_clock::now();
    const std::vector<ScPrediction> predictions =
        run(samples, limit, progress);
    const auto stop = std::chrono::steady_clock::now();

    ScEvalStats stats;
    stats.images = predictions.size();
    stats.wallSeconds =
        std::chrono::duration<double>(stop - start).count();
    if (stats.images == 0)
        return stats;

    std::size_t correct = 0;
    for (std::size_t i = 0; i < predictions.size(); ++i) {
        if (predictions[i].label == samples[i].label)
            ++correct;
    }
    stats.accuracy = static_cast<double>(correct) /
                     static_cast<double>(stats.images);
    stats.imagesPerSec =
        stats.wallSeconds > 0.0
            ? static_cast<double>(stats.images) / stats.wallSeconds
            : 0.0;
    if (progress) {
        std::printf("accuracy %.4f (%zu images, %.2f img/s, %d threads)\n",
                    stats.accuracy, stats.images, stats.imagesPerSec,
                    threads_);
        std::fflush(stdout);
    }
    return stats;
}

} // namespace aqfpsc::core
