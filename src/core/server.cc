#include "server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/fault_injection.h"
#include "core/workspace.h"

namespace aqfpsc::core {

namespace {

int
resolveWorkerCount(int requested)
{
    if (requested <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        requested = hw == 0 ? 1 : static_cast<int>(hw);
    }
    return std::clamp(requested, 1, 256);
}

} // namespace

std::vector<std::string>
ServerOptions::validate() const
{
    std::vector<std::string> errors;
    if (workers < 0 || workers > 256) {
        errors.push_back(
            "workers " + std::to_string(workers) +
            " out of [0, 256]: 0 means one worker per hardware thread");
    }
    if (queueCapacity == 0 || queueCapacity > kMaxQueueCapacity) {
        errors.push_back(
            "queueCapacity " + std::to_string(queueCapacity) +
            " out of [1, " + std::to_string(kMaxQueueCapacity) +
            "]: pending requests own their image tensors, so the bound "
            "is what keeps a slow consumer from exhausting memory");
    }
    if (maxBatch < 1 ||
        static_cast<std::size_t>(maxBatch) > kMaxQueueCapacity) {
        errors.push_back(
            "maxBatch " + std::to_string(maxBatch) + " out of [1, " +
            std::to_string(kMaxQueueCapacity) +
            "]: it is the number of requests a worker pops per queue "
            "lock (micro-batching amortization) and each worker "
            "pre-reserves that many request slots");
    }
    if (adaptive) {
        for (const std::string &e : policy.validate())
            errors.push_back("policy: " + e);
    }
    if (!(timeoutSeconds >= 0.0) || !std::isfinite(timeoutSeconds)) {
        errors.push_back(
            "timeoutSeconds " + std::to_string(timeoutSeconds) +
            " must be a finite value >= 0 (0 disables the per-request "
            "deadline)");
    }
    return errors;
}

namespace {

/** Deadline of a request enqueued now under @p timeout_seconds. */
std::chrono::steady_clock::time_point
expiryFor(std::chrono::steady_clock::time_point enqueued,
          double timeout_seconds)
{
    if (timeout_seconds <= 0.0)
        return RunControl::kNoDeadline;
    return enqueued + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(timeout_seconds));
}

} // namespace

InferenceServer::InferenceServer(const InferenceSession &session,
                                 ServerOptions opts)
    : session_(session), opts_(std::move(opts))
{
    {
        const std::vector<std::string> errors = opts_.validate();
        if (!errors.empty()) {
            std::string msg = "invalid ServerOptions: ";
            for (std::size_t i = 0; i < errors.size(); ++i)
                msg += (i ? "; " : "") + errors[i];
            throw std::invalid_argument(msg);
        }
    }
    // Compile up front: serving threads must never pay (or race on) the
    // first-use engine build, and configuration errors — unknown
    // backend, adaptive on a non-resumable backend — surface here, not
    // inside a future.
    engine_ = &session_.engine(opts_.backend);
    if (opts_.adaptive) {
        std::string why_not;
        if (!engine_->supportsAdaptive(&why_not)) {
            throw std::invalid_argument(
                "adaptive serving unavailable on backend '" +
                engine_->backendName() + "': stage '" + why_not +
                "' is not resumable");
        }
    }
    // Non-adaptive serving is the never-exit policy: one full-length
    // block, or — with a timeout — 256-cycle blocks the deadline can
    // cancel between (the engine runs non-resumable plans in one block
    // regardless).  Either way results are bit-identical to full-length
    // inference (pinned in test_adaptive).
    if (opts_.adaptive)
        runPolicy_ = opts_.policy;
    else if (opts_.timeoutSeconds > 0.0)
        runPolicy_ = AdaptivePolicy::neverExit(256);
    else
        runPolicy_ = AdaptivePolicy::neverExit();
    workerCount_ = resolveWorkerCount(opts_.workers);
    threads_.reserve(static_cast<std::size_t>(workerCount_));
    for (int t = 0; t < workerCount_; ++t)
        threads_.emplace_back(&InferenceServer::workerLoop, this);
}

InferenceServer::~InferenceServer()
{
    shutdown();
}

std::future<ServedPrediction>
InferenceServer::enqueueLocked(nn::Tensor image)
{
    Request request;
    request.image = std::move(image);
    request.id = nextId_++;
    request.enqueued = std::chrono::steady_clock::now();
    request.expiry = expiryFor(request.enqueued, opts_.timeoutSeconds);
    std::future<ServedPrediction> future = request.promise.get_future();
    queue_.push_back(std::move(request));
    queueDepthHighWater_ = std::max(queueDepthHighWater_, queue_.size());
    return future;
}

std::future<ServedPrediction>
InferenceServer::submit(nn::Tensor image)
{
    std::future<ServedPrediction> future;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        notFull_.wait(lock, [&] {
            return stopping_ || queue_.size() < opts_.queueCapacity;
        });
        if (stopping_) {
            throw StatusError(
                StatusCode::Shutdown,
                "InferenceServer is shut down: request rejected");
        }
        future = enqueueLocked(std::move(image));
    }
    notEmpty_.notify_one();
    return future;
}

std::optional<std::future<ServedPrediction>>
InferenceServer::trySubmit(nn::Tensor image)
{
    std::optional<std::future<ServedPrediction>> future;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ || queue_.size() >= opts_.queueCapacity)
            return std::nullopt;
        future = enqueueLocked(std::move(image));
    }
    notEmpty_.notify_one();
    return future;
}

std::vector<std::future<ServedPrediction>>
InferenceServer::submitBatch(const std::vector<nn::Tensor> &images)
{
    std::vector<std::future<ServedPrediction>> futures;
    futures.reserve(images.size());
    for (const nn::Tensor &image : images)
        futures.push_back(submit(image));
    return futures;
}

void
InferenceServer::shutdown()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    notEmpty_.notify_all();
    notFull_.notify_all();
    const std::lock_guard<std::mutex> join_lock(joinMutex_);
    for (std::thread &t : threads_) {
        if (t.joinable())
            t.join();
    }
}

bool
InferenceServer::accepting() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return !stopping_;
}

ServerStats
InferenceServer::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    ServerStats s;
    s.submitted = nextId_;
    s.completed = completed_;
    s.failed = failed_;
    s.timedOut = timedOut_;
    s.earlyExits = earlyExits_;
    s.batches = batches_;
    s.avgConsumedCycles =
        completed_ == 0 ? 0.0
                        : static_cast<double>(consumedCycles_) /
                              static_cast<double>(completed_);
    s.avgBatchSize = batches_ == 0 ? 0.0
                                   : static_cast<double>(completed_ +
                                                         failed_) /
                                         static_cast<double>(batches_);
    s.queueDepthHighWater = queueDepthHighWater_;
    s.queueHistogram = queueHistogram_;
    s.serviceHistogram = serviceHistogram_;
    return s;
}

void
InferenceServer::workerLoop()
{
    // One arena per worker, built once: steady-state serving performs no
    // heap allocation inside the stage pipeline.  A popped micro-batch
    // is served as stage-major cohorts (requestId = image index keeps
    // every prediction the same pure function as per-request serving).
    const std::size_t cohortCap = std::min<std::size_t>(
        static_cast<std::size_t>(opts_.maxBatch), kMaxCohortImages);
    CohortWorkspace workspace(*engine_, cohortCap);
    std::vector<Request> batch;
    // A pop can never exceed what the queue may hold.
    batch.reserve(std::min(static_cast<std::size_t>(opts_.maxBatch),
                           opts_.queueCapacity));

    for (;;) {
        batch.clear();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            notEmpty_.wait(lock,
                           [&] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping, queue drained
            const std::size_t take = std::min(
                queue_.size(), static_cast<std::size_t>(opts_.maxBatch));
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            ++batches_;
        }
        // Space freed: wake blocked producers (all of them — several
        // slots may have opened).
        notFull_.notify_all();

        for (std::size_t off = 0; off < batch.size(); off += cohortCap)
            serveCohort(batch, off,
                        std::min(cohortCap, batch.size() - off),
                        workspace);
    }
}

void
InferenceServer::serveCohort(std::vector<Request> &batch, std::size_t off,
                             std::size_t count, CohortWorkspace &workspace)
{
    const auto picked = std::chrono::steady_clock::now();

    // Requests already past their deadline fail at pickup — their
    // budget is gone, so spending engine cycles on them only delays the
    // live ones behind them.
    const nn::Tensor *images[kMaxCohortImages];
    std::size_t ids[kMaxCohortImages];
    std::size_t slot[kMaxCohortImages];
    std::size_t live = 0;
    auto deadline = RunControl::kNoDeadline;
    for (std::size_t j = 0; j < count; ++j) {
        Request &request = batch[off + j];
        if (picked > request.expiry) {
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                ++failed_;
                ++timedOut_;
            }
            request.promise.set_exception(
                std::make_exception_ptr(StatusError(
                    StatusCode::Timeout,
                    "request " + std::to_string(request.id) +
                        " expired in the queue before a worker "
                        "picked it up")));
            continue;
        }
        images[live] = &request.image;
        ids[live] = request.id;
        slot[live] = off + j;
        deadline = std::min(deadline, request.expiry);
        ++live;
    }
    if (live == 0)
        return;

    // The cohort runs under the earliest deadline of its members: a
    // mid-run expiry aborts at the next checkpoint block and the
    // per-request isolation pass below sorts out who actually expired.
    RunControl control;
    control.rearm(deadline);

    AdaptivePrediction results[kMaxCohortImages];
    bool cohortOk = true;
    try {
        fault::injectDelay(FaultSite::WorkerSlowdown, ids[0], &control);
        fault::injectThrow(FaultSite::WorkerException, ids[0]);
        engine_->inferAdaptiveCohort(images, ids, live, workspace,
                                     runPolicy_, results, &control);
    } catch (...) {
        cohortOk = false;
    }
    const double serviceSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      picked)
            .count();

    for (std::size_t j = 0; j < live; ++j) {
        Request &request = batch[slot[j]];
        ServedPrediction served;
        served.requestId = request.id;
        served.queueSeconds =
            std::chrono::duration<double>(picked - request.enqueued)
                .count();
        // Execution is cohort-granular, so the measured service time is
        // shared by every request of the cohort.
        served.serviceSeconds = serviceSeconds;
        try {
            if (!cohortOk) {
                // Isolate the failure: re-run this request as a cohort
                // of one (bit-identical result) under its own deadline,
                // so one bad or expired request cannot fail its
                // cohort-mates.
                if (std::chrono::steady_clock::now() > request.expiry)
                    throw StatusError(
                        StatusCode::Timeout,
                        "request " + std::to_string(request.id) +
                            " deadline elapsed during service");
                RunControl solo;
                solo.rearm(request.expiry);
                engine_->inferAdaptiveCohort(&images[j], &ids[j], 1,
                                             workspace, runPolicy_,
                                             &results[j], &solo);
            }
            served.prediction = std::move(results[j].prediction);
            served.consumedCycles = results[j].consumedCycles;
            served.exitedEarly = results[j].exitedEarly;
            // Count before fulfilling: a caller returning from
            // future.get() must already see itself in stats().  All
            // counters are per image, never per cohort or queue pop.
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                ++completed_;
                consumedCycles_ += served.consumedCycles;
                if (served.exitedEarly)
                    ++earlyExits_;
                queueHistogram_.record(served.queueSeconds);
                serviceHistogram_.record(served.serviceSeconds);
            }
            request.promise.set_value(std::move(served));
        } catch (...) {
            // Futures carry the taxonomy, never a raw exception.
            const Status status = Status::fromCurrentException();
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                ++failed_;
                if (status.code == StatusCode::Timeout)
                    ++timedOut_;
            }
            request.promise.set_exception(
                std::make_exception_ptr(StatusError(status)));
        }
    }
}

} // namespace aqfpsc::core
