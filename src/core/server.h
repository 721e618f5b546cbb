/**
 * @file
 * InferenceServer: the async micro-batching serving front end.
 *
 * An InferenceSession answers synchronous calls; the server turns one
 * compiled engine into a request-at-a-time service for many concurrent
 * producers:
 *
 *   core::ServerOptions sopts;
 *   sopts.workers = 4;          // worker threads, each with own arena
 *   sopts.adaptive = true;      // early-exit under sopts.policy
 *   core::InferenceServer server(session, sopts);
 *   std::future<core::ServedPrediction> f = server.submit(image);
 *   ...
 *   core::ServedPrediction r = f.get();  // r.prediction, r.consumedCycles
 *
 * Design:
 *
 *  - **Bounded MPMC queue.**  submit() enqueues a request and returns a
 *    std::future; when queueCapacity requests are already waiting it
 *    blocks (backpressure) until a worker drains space or the server
 *    shuts down.  Any number of producer threads may submit
 *    concurrently.
 *  - **Micro-batching workers.**  Each worker pops up to maxBatch
 *    requests in one critical section and serves them as stage-major
 *    execution cohorts from its thread-local CohortWorkspace — queue
 *    lock traffic is amortized over the batch, and every stage's weight
 *    streams are traversed once per cohort instead of once per request,
 *    which is what the interleaved kernel cores want.  Per-request work
 *    may vary wildly (adaptive early exit compacts the cohort in
 *    place); idle workers simply pop the next batch.
 *  - **Deterministic identity.**  Every request gets a monotonically
 *    increasing requestId used as the inference image index, so a
 *    request's prediction is the pure function
 *    (model, options, image, requestId) — independent of worker count,
 *    batching and arrival interleaving — and equals
 *    engine.inferIndexed(image, requestId) / inferAdaptive(...) exactly.
 *  - **Lossless shutdown.**  shutdown() (also run by the destructor)
 *    stops new submissions (they throw StatusError{Shutdown}), drains
 *    every already-accepted request, and joins the workers: every future
 *    obtained from submit() is eventually satisfied — with a value, or
 *    with the exception the inference raised.  No future is ever lost or
 *    fulfilled twice (fuzzed under ASan/UBSan in tests/test_server.cc).
 *  - **Structured failures.**  A future never carries a raw foreign
 *    exception: every failure is a core::StatusError whose status().code
 *    says what happened (Timeout, ExecutionFailed, Shutdown, ...), so
 *    callers branch on the taxonomy instead of parsing what() strings.
 *  - **Per-request timeouts.**  With ServerOptions::timeoutSeconds > 0
 *    each request carries a hard deadline from submission.  Requests
 *    already expired at worker pickup fail immediately with
 *    StatusError{Timeout}; requests that expire mid-run are cancelled
 *    cooperatively at the next checkpoint block (timed non-adaptive
 *    serving runs the never-exit policy in 256-cycle blocks, which is
 *    bit-identical to full-length inference, so a timed-out request
 *    frees its worker instead of wedging it for the rest of the
 *    stream).  Backends without resumable stages run one block, so
 *    there the deadline is enforced before the run starts only.
 *
 * Thread safety: submit()/trySubmit()/submitBatch()/stats()/accepting()
 * may be called from any thread at any time; shutdown() from any
 * thread, idempotently.  The referenced InferenceSession must outlive
 * the server.
 */

#ifndef AQFPSC_CORE_SERVER_H
#define AQFPSC_CORE_SERVER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/latency_histogram.h"
#include "core/sc_engine.h"
#include "core/session.h"

namespace aqfpsc::core {

/** Configuration of one InferenceServer. */
struct ServerOptions
{
    int workers = 1;                 ///< worker threads (0 = one per hw thread)
    std::size_t queueCapacity = 256; ///< pending-request bound (backpressure)
    /** Max requests popped per worker wake; also the execution cohort
     *  size (clamped to kMaxCohortImages for the stage-major kernels). */
    int maxBatch = 8;
    /** Serve with adaptive early exit under @ref policy instead of
     *  full-length inference (requires a resumable backend). */
    bool adaptive = false;
    AdaptivePolicy policy;           ///< early-exit policy when adaptive
    std::string backend;             ///< registry name; empty = session default
    /** Hard per-request budget measured from submission; 0 disables.
     *  Expired requests fail with StatusError{Timeout} — at worker
     *  pickup, or mid-run at the next checkpoint block on resumable
     *  backends (see the file comment). */
    double timeoutSeconds = 0.0;

    /** Hard bound on queueCapacity (memory: pending requests own their
     *  image tensors). */
    static constexpr std::size_t kMaxQueueCapacity = std::size_t{1} << 20;

    /** All configuration errors, each actionable; empty means valid. */
    std::vector<std::string> validate() const;
};

/** One served request: the prediction plus serving metadata. */
struct ServedPrediction
{
    ScPrediction prediction;
    std::uint64_t requestId = 0;    ///< submission order = inference index
    std::size_t consumedCycles = 0; ///< stream cycles executed
    bool exitedEarly = false;       ///< adaptive early exit taken
    double queueSeconds = 0.0;      ///< submit -> worker pickup
    double serviceSeconds = 0.0;    ///< worker pickup -> done
};

/**
 * Counters since construction (monotonic, racy-read consistent).
 *
 * All counters are cohort-aware, i.e. per *image*: completed/failed/
 * earlyExits count individual requests and avgConsumedCycles averages
 * per-request cycles, no matter how many requests one cohort execution
 * served.  Only batches counts worker queue pops, so avgBatchSize =
 * images per pop — the micro-batching (and cohort) amortization factor.
 */
struct ServerStats
{
    std::uint64_t submitted = 0;    ///< requests accepted into the queue
    std::uint64_t completed = 0;    ///< futures satisfied with a value
    std::uint64_t failed = 0;       ///< futures satisfied with an exception
    std::uint64_t timedOut = 0;     ///< subset of failed: deadline expiry
    std::uint64_t earlyExits = 0;   ///< completed with exitedEarly
    std::uint64_t batches = 0;      ///< worker micro-batch pops
    double avgConsumedCycles = 0.0; ///< mean cycles over completed images
    double avgBatchSize = 0.0;      ///< images per pop: (completed + failed) / batches
    /** Deepest the pending queue has ever been (admission-control and
     *  capacity-planning signal; never exceeds queueCapacity). */
    std::size_t queueDepthHighWater = 0;
    /** submit -> worker pickup latency of completed requests. */
    LatencyHistogram queueHistogram;
    /** worker pickup -> completion latency of completed requests. */
    LatencyHistogram serviceHistogram;
};

/**
 * Async micro-batching inference server over one InferenceSession
 * backend (see the file comment for the full design contract).
 */
class InferenceServer
{
  public:
    /**
     * Compile the backend engine (first use), validate @p opts and start
     * the worker pool.
     * @param session Must outlive the server.
     * @throws std::invalid_argument on invalid options, unknown
     *         backends, or adaptive serving on a non-resumable backend.
     */
    explicit InferenceServer(const InferenceSession &session,
                             ServerOptions opts = {});

    /** shutdown(), then destroy. */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * Enqueue one image (copied into the request) and return the future
     * of its prediction.  Blocks while the queue is at capacity.
     * @throws StatusError{Shutdown} (a std::runtime_error) once
     *         shutdown has begun.
     */
    std::future<ServedPrediction> submit(nn::Tensor image);

    /**
     * Non-throwing, non-blocking admission-control variant of submit():
     * returns std::nullopt instead of blocking when the queue is at
     * capacity, and instead of throwing once shutdown has begun.
     * Callers implementing load shedding (serving::ServingFrontend,
     * open-loop load generators) use this to count rejects without
     * paying exception control flow on the overload path.
     */
    std::optional<std::future<ServedPrediction>> trySubmit(nn::Tensor image);

    /** submit() every image of @p images, in order (their requestIds are
     *  consecutive).  Same blocking/throwing behavior. */
    std::vector<std::future<ServedPrediction>>
    submitBatch(const std::vector<nn::Tensor> &images);

    /**
     * Stop accepting, serve every already-accepted request, join the
     * workers.  Idempotent; safe from any thread.  After return, every
     * future from submit() is ready.
     */
    void shutdown();

    /** True until shutdown() begins. */
    bool accepting() const;

    /** The worker count actually running. */
    int workers() const { return workerCount_; }

    /** Serving options (validated, backend resolved). */
    const ServerOptions &options() const { return opts_; }

    /** Counter snapshot. */
    ServerStats stats() const;

  private:
    struct Request
    {
        nn::Tensor image;
        std::promise<ServedPrediction> promise;
        std::uint64_t id = 0;
        std::chrono::steady_clock::time_point enqueued;
        /** Hard deadline (RunControl::kNoDeadline when untimed). */
        std::chrono::steady_clock::time_point expiry =
            RunControl::kNoDeadline;
    };

    void workerLoop();

    /** Serve batch[off, off + count) as one stage-major cohort. */
    void serveCohort(std::vector<Request> &batch, std::size_t off,
                     std::size_t count, CohortWorkspace &workspace);

    const InferenceSession &session_;
    ServerOptions opts_;
    const ScNetworkEngine *engine_ = nullptr; ///< compiled once, up front
    int workerCount_ = 0;
    /** The policy every cohort runs: opts_.policy when adaptive, else
     *  the never-exit policy (in blocks a timeout can stop between). */
    AdaptivePolicy runPolicy_;

    mutable std::mutex mutex_;
    std::condition_variable notEmpty_; ///< workers wait: work or stop
    std::condition_variable notFull_;  ///< producers wait: space or stop
    std::deque<Request> queue_;
    bool stopping_ = false;
    std::uint64_t nextId_ = 0;

    /** Build one pending Request for @p image and hand back its future;
     *  must be called with mutex_ held and space available. */
    std::future<ServedPrediction> enqueueLocked(nn::Tensor image);

    // Stats (under mutex_).
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t timedOut_ = 0;
    std::uint64_t earlyExits_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t consumedCycles_ = 0;
    std::size_t queueDepthHighWater_ = 0;
    LatencyHistogram queueHistogram_;
    LatencyHistogram serviceHistogram_;

    /** Serializes concurrent shutdown() callers around the joins. */
    std::mutex joinMutex_;
    std::vector<std::thread> threads_;
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_SERVER_H
