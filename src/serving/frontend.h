/**
 * @file
 * ServingFrontend: the library's one serving front end.
 *
 * It turns compiled engines into an async service: named models (lazy
 * per-backend engine compile through their InferenceSessions), tenants
 * with per-tenant bounded queues and admission control, a pluggable
 * scheduler over one shared worker pool, and graceful overload
 * degradation — under load the front end sheds *cycles* (slightly lower
 * SC precision via a tightened early-exit margin) before it sheds
 * *requests*.  One tenant on one model is a plain async
 * micro-batching server (aqfpsc_cli serve, bench_adaptive_serving);
 * more tenants add QoS:
 *
 *   serving::ServingFrontend fe({.workers = 2, .policy =
 *                                serving::SchedPolicy::WeightedFair});
 *   fe.addModelFromFile("m", "model.bin", engineOpts);
 *   serving::TenantConfig gold;
 *   gold.name = "gold"; gold.model = "m"; gold.weight = 3.0;
 *   gold.deadlineSeconds = 0.2;
 *   fe.addTenant(gold);
 *   ... more tenants ...
 *   fe.start();
 *   auto f = fe.trySubmit("gold", image);   // nullopt = admission reject
 *   if (f) serving::ServedResult r = f->get();
 *
 * Scheduling (SchedPolicy, one shared worker pool):
 *
 *  - **Fifo**: global arrival order across all tenants (a greedy tenant
 *    owns the pool; the baseline the bench compares against).
 *  - **Priority**: strict tenant priority, ties in arrival order.
 *    Starvation of low-priority tenants is *possible by design*; use
 *    WeightedFair when that is unacceptable.
 *  - **Edf**: earliest absolute deadline first (enqueue time + the
 *    tenant's deadlineSeconds; tenants without a deadline sort last).
 *  - **WeightedFair**: stride scheduling over tenant weights — each
 *    tenant's virtual pass advances by servedImages/weight, the
 *    smallest pass is picked next, and a tenant going busy re-enters at
 *    the current virtual time (no banked credit).  A greedy tenant
 *    cannot starve a low-rate one: the low-rate tenant's head request
 *    is picked after at most one in-flight batch per competing tenant
 *    (asserted by tests/test_serving.cc).
 *
 * A worker pick drains up to maxBatch requests from ONE tenant and
 * serves them as a stage-major execution cohort on that tenant's
 * engine: the queue lock is taken once per pick, and each stage's
 * weight streams are traversed once per cohort instead of once per
 * request.
 *
 * Shed-before-reject (ShedConfig): each pick computes the tenant's load
 * signal — max(queue depth / queueCapacity, head-of-line wait /
 * deadline) — and linearly tightens the adaptive policy's exitMargin
 * from the configured base down to marginFloor (and minCycles down to
 * minCyclesFloor) as the load crosses [startLoad, fullLoad].  Lower
 * margin = earlier exits = fewer cycles per request = more throughput
 * at slightly lower precision, so the queue drains before admission
 * control ever has to reject.  The *effective* policy applied to a
 * batch is recorded in every ServedResult, preserving the determinism
 * contract below.
 *
 * Determinism: every served prediction is the pure function
 * (model, backend, requestId, effective policy) — bit-identical to
 * engine.inferIndexed(image, requestId) (non-adaptive tenants) or
 * engine.inferAdaptive(image, requestId, result.effectivePolicy)
 * (adaptive tenants), independent of worker count, scheduling policy,
 * batching, arrival interleaving, retries and injected faults.
 * requestIds are assigned in global submission order across all
 * tenants.
 *
 * Failure model (PR 8; see docs/ARCHITECTURE.md "Failure model & fault
 * injection"):
 *
 *  - **Structured failures.**  A future never carries a raw foreign
 *    exception: every failure is a core::StatusError whose
 *    status().code says what happened (Timeout, Quarantined,
 *    WorkerCrashed, ...).
 *  - **Per-request timeouts + cooperative cancellation.**  With
 *    TenantConfig::timeoutSeconds > 0 each request carries a hard
 *    deadline; expiry fails it with StatusError{Timeout} at pickup or
 *    mid-run at the next checkpoint block (non-adaptive tenants run the
 *    never-exit policy in 256-cycle blocks — bit-identical to
 *    full-length inference — so their runs can be stopped too, except
 *    on non-resumable backends, which run one block).  A cancelled
 *    request frees its worker; it never wedges the pool.
 *  - **Bounded retry with backoff.**  Transient failures (a worker
 *    crash, a throwing serve path) requeue the request at the front of
 *    its tenant queue with an exponentially growing notBefore backoff,
 *    up to TenantConfig::maxRetries extra attempts; exhaustion fails
 *    the future with StatusError{Quarantined}, isolating poison
 *    requests instead of letting them eat the pool.
 *  - **Worker supervision.**  A watchdog thread samples each worker's
 *    RunControl beat counter every FrontendOptions::watchdogSeconds:
 *    a busy worker whose beats freeze for stallSeconds is *kicked*
 *    (its run is cancelled at the next checkpoint, the batch falls
 *    back to per-request isolation), and a dead worker thread is
 *    joined and respawned so the pool heals itself.  health() reports
 *    the HealthSnapshot: workers alive, respawns, kicks, and the
 *    failure/timeout/retry/quarantine totals.
 *  - **Health folds into shedding.**  Each tenant keeps an
 *    exponentially decaying failure load (~0.5 s half-life, +0.25 per
 *    failure/timeout/retry); the shed load signal is the max of queue
 *    fill, head-of-line wait and that failure load, so a tenant whose
 *    requests are failing degrades precision early instead of piling
 *    up retries at full cost.
 *
 * Lifecycle: addModel variants + addTenant, then start(), then
 * submit/trySubmit.  start() seals registration (addModel/addTenant
 * afterwards throw std::logic_error); workers themselves spawn in the
 * constructor unless startPaused, and registration while they run is
 * safe — they only observe tenants under the same lock.  shutdown() (also
 * run by the destructor) stops admission, drains every accepted
 * request and joins the workers — every obtained future is eventually
 * satisfied, even when shutdown() is called on a front end that was
 * never start()ed (the drain pool is spun up on demand).  Fuzzed under
 * ASan/UBSan in tests/test_serving.cc.
 *
 * Thread safety: submit/trySubmit/stats/tenantStats/accepting from any
 * thread at any time once start() returned; shutdown() from any
 * thread, idempotently.
 */

#ifndef AQFPSC_SERVING_FRONTEND_H
#define AQFPSC_SERVING_FRONTEND_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/latency_histogram.h"
#include "core/sc_engine.h"
#include "core/session.h"
#include "core/status.h"

namespace aqfpsc::serving {

/** Scheduler policy of the shared worker pool (see the file comment). */
enum class SchedPolicy
{
    Fifo,         ///< global arrival order
    Priority,     ///< strict tenant priority (may starve)
    Edf,          ///< earliest absolute deadline first
    WeightedFair, ///< stride scheduling over tenant weights
};

/** Canonical CLI/JSON name of @p policy ("fifo", "priority", "edf",
 *  "fair"). */
const char *schedPolicyName(SchedPolicy policy);

/** Parse a policy name; std::nullopt for unknown names. */
std::optional<SchedPolicy> parseSchedPolicy(const std::string &name);

/**
 * Per-tenant overload-degradation bounds: how far the front end may
 * tighten the tenant's adaptive early-exit policy before rejecting
 * requests (see the file comment's shed-before-reject contract).
 * Requires the tenant to serve adaptively (TenantConfig::adaptive).
 */
struct ShedConfig
{
    bool enabled = false;
    /** Load (0..1) where shedding starts; below it the base policy is
     *  served untouched. */
    double startLoad = 0.5;
    /** Load where the policy reaches the floor; loads beyond clamp. */
    double fullLoad = 0.95;
    /** exitMargin at full shed (must not exceed the base margin). */
    double marginFloor = 0.02;
    /** minCycles at full shed (must not exceed the base minCycles). */
    std::size_t minCyclesFloor = 64;
};

/** Configuration of one tenant (validated by ServingFrontend). */
struct TenantConfig
{
    std::string name;    ///< unique tenant id (stats/submission key)
    std::string model;   ///< registered model name to serve
    std::string backend; ///< registry name; empty = the model's default
    int priority = 0;    ///< SchedPolicy::Priority: higher = first
    double weight = 1.0; ///< SchedPolicy::WeightedFair share (> 0)
    std::size_t queueCapacity = 64; ///< pending bound (admission control)
    /** Per-request latency budget (submit -> completion) in seconds;
     *  0 = none.  Drives Edf ordering, the deadline-miss counter and
     *  the slack half of the shed load signal. */
    double deadlineSeconds = 0.0;
    /** Serve adaptively (early exit) under @ref policy. */
    bool adaptive = false;
    core::AdaptivePolicy policy; ///< base policy when adaptive
    ShedConfig shed;             ///< overload degradation bounds
    /** Hard per-request budget measured from submission; 0 disables.
     *  Expired requests fail with StatusError{Timeout} — at pickup, or
     *  mid-run at the next checkpoint block (see the file comment's
     *  failure model). */
    double timeoutSeconds = 0.0;
    /** Extra serve attempts granted to transient failures (worker
     *  crash / throwing serve path) before the request is failed with
     *  StatusError{Quarantined}.  0 = fail on first transient error. */
    int maxRetries = 0;
    /** Base retry backoff; attempt k re-enters the queue after
     *  retryBackoffSeconds * 2^(k-1). */
    double retryBackoffSeconds = 0.002;

    /** Hard bound on queueCapacity (pending requests own their image
     *  tensors). */
    static constexpr std::size_t kMaxQueueCapacity = std::size_t{1} << 20;
    /** Ceiling on every time budget: timeoutSeconds, deadlineSeconds,
     *  the last retry's backoff and FrontendOptions::watchdogSeconds.
     *  Budgets become steady_clock nanoseconds, which overflow int64
     *  above about 9.2e9 s. */
    static constexpr double kMaxBudgetSeconds = 1e6;

    /** All configuration errors, each actionable; empty means valid. */
    std::vector<std::string> validate() const;
};

/** Configuration of the front end itself. */
struct FrontendOptions
{
    int workers = 1; ///< shared pool size (0 = one per hw thread)
    /** Max requests drained from one tenant per pick; also the
     *  execution cohort size (clamped to kMaxCohortImages). */
    int maxBatch = 8;
    SchedPolicy policy = SchedPolicy::Fifo;
    /** Do not spawn workers in the constructor; serving begins at
     *  start().  Lets tests enqueue a known backlog first, making
     *  scheduling-order assertions deterministic. */
    bool startPaused = false;
    /** Supervision tick: how often the watchdog samples worker
     *  liveness, respawns dead workers and kicks stalled ones. */
    double watchdogSeconds = 0.05;
    /** A busy worker whose RunControl beats freeze this long is
     *  considered wedged and kicked (its run cancelled cooperatively at
     *  the next checkpoint block). */
    double stallSeconds = 1.0;

    /** All configuration errors, each actionable; empty means valid. */
    std::vector<std::string> validate() const;
};

/** One served request: the prediction plus serving metadata. */
struct ServedResult
{
    core::ScPrediction prediction;
    std::uint64_t requestId = 0; ///< global submission order = inference index
    std::size_t consumedCycles = 0; ///< stream cycles executed
    bool exitedEarly = false;       ///< adaptive early exit taken
    bool adaptive = false;          ///< served through the adaptive path
    /** The policy actually applied to this request's batch (equals the
     *  tenant's base policy when no shedding occurred; non-adaptive
     *  tenants run AdaptivePolicy::neverExit). */
    core::AdaptivePolicy effectivePolicy;
    bool shed = false; ///< effectivePolicy was tightened below the base
    double queueSeconds = 0.0;   ///< submit -> worker pickup
    double serviceSeconds = 0.0; ///< worker pickup -> cohort done
    /** Deadline budget applied (the tenant's; 0 = none). */
    double deadlineSeconds = 0.0;
    bool deadlineMissed = false; ///< completed after the budget elapsed
    /** Global completion sequence number (0 = first request the front
     *  end completed).  Scheduling-order tests assert on this instead
     *  of wall time. */
    std::uint64_t completionSeq = 0;
    /** Serve attempts this request took (1 = no retries).  Retries
     *  never change the prediction: the requestId is the seed. */
    int attempts = 1;
};

/** Per-tenant counters since construction (racy-read consistent). */
struct TenantStats
{
    std::uint64_t submitted = 0;      ///< accepted into the queue
    std::uint64_t rejected = 0;       ///< admission-control rejects
    std::uint64_t completed = 0;      ///< futures satisfied with a value
    std::uint64_t failed = 0;         ///< futures satisfied with an exception
    std::uint64_t timedOut = 0;       ///< subset of failed: deadline expiry
    std::uint64_t retried = 0;        ///< transient-failure requeues
    std::uint64_t quarantined = 0;    ///< subset of failed: retries exhausted
    std::uint64_t earlyExits = 0;     ///< completed with exitedEarly
    std::uint64_t shedServed = 0;     ///< completed under a tightened policy
    std::uint64_t deadlineMissed = 0; ///< completed past the budget
    /** Worker picks that drained at least one request from the tenant
     *  (images per pick = (completed + failed) / batches when nothing
     *  was retried or rejected as malformed). */
    std::uint64_t batches = 0;
    double avgConsumedCycles = 0.0;   ///< mean cycles over completed
    std::size_t queueDepth = 0;       ///< pending right now
    std::size_t queueDepthHighWater = 0;
    core::LatencyHistogram queueHistogram;   ///< submit -> pickup
    core::LatencyHistogram serviceHistogram; ///< pickup -> done
};

/**
 * Supervision snapshot: the state of the worker pool plus failure
 * totals summed across tenants (racy-read consistent).  The watchdog
 * keeps workersAlive at workersConfigured by respawning dead workers;
 * a persistent gap means respawns are losing a crash race and is the
 * first thing to alert on.
 */
struct HealthSnapshot
{
    int workersConfigured = 0;       ///< pool size the front end runs
    int workersAlive = 0;            ///< worker threads currently live
    int workersBusy = 0;             ///< workers serving a batch right now
    std::uint64_t respawns = 0;      ///< dead workers joined + replaced
    std::uint64_t watchdogKicks = 0; ///< wedged runs cancelled
    std::uint64_t watchdogTicks = 0; ///< supervision passes completed
    // Failure totals summed over tenants (same meaning as TenantStats).
    std::uint64_t failed = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t retried = 0;
    std::uint64_t quarantined = 0;
    /** Process-wide core::PlanCache counters: how much compiled-plan and
     *  weight-stream state the resident models share (identical
     *  (model, backend) pairs compile once and reference one plan). */
    core::PlanCacheStats planCache;
};

/**
 * Multi-tenant, QoS-aware serving front end over named
 * InferenceSessions (see the file comment for the full contract).
 */
class ServingFrontend
{
  public:
    /** Validate @p opts; workers spawn here unless startPaused. */
    explicit ServingFrontend(FrontendOptions opts = {});

    /** shutdown(), then destroy. */
    ~ServingFrontend();

    ServingFrontend(const ServingFrontend &) = delete;
    ServingFrontend &operator=(const ServingFrontend &) = delete;

    /**
     * Register @p net under @p name (engines compile lazily per
     * backend, exactly like a standalone InferenceSession).
     * @throws std::invalid_argument on duplicate names or bad options,
     *         std::logic_error after start().
     */
    void addModel(const std::string &name, nn::Network net,
                  core::EngineOptions opts = {});

    /** addModel() a saveModel artifact. */
    void addModelFromFile(const std::string &name, const std::string &path,
                          core::EngineOptions opts = {});

    /** addModel() a freshly built zoo architecture. */
    void addModelFromZoo(const std::string &name, const std::string &zoo,
                         core::EngineOptions opts = {},
                         unsigned buildSeed = 1);

    /** The registered model's session.  @throws std::invalid_argument
     *  for unknown names. */
    const core::InferenceSession &model(const std::string &name) const;

    /** Registered model names (sorted). */
    std::vector<std::string> modelNames() const;

    /**
     * Register a tenant; its engine compiles here (configuration
     * errors surface now, not inside a future).
     * @throws std::invalid_argument on invalid configs, duplicate or
     *         unknown names, adaptive serving on a non-resumable
     *         backend; std::logic_error after start().
     */
    void addTenant(TenantConfig cfg);

    /** Registered tenant names, in registration order. */
    std::vector<std::string> tenantNames() const;

    /** Spawn the worker pool (idempotent).  No-op when the front end
     *  was constructed without startPaused (already running). */
    void start();

    /**
     * Enqueue one image for @p tenant (copied into the request).  An
     * image the tenant's engine cannot run (wrong size for
     * plan().inputElements, or a non-finite pixel) is not queued: its
     * future is already failed with StatusCode::InvalidArgument, it
     * counts in TenantStats::failed and takes no request id.
     * @throws std::invalid_argument for unknown tenants,
     *         std::runtime_error when the tenant queue is full or
     *         shutdown has begun (admission control never blocks —
     *         callers on the overload path should use trySubmit()).
     */
    std::future<ServedResult> submit(const std::string &tenant,
                                     nn::Tensor image);

    /** Non-throwing admission control: std::nullopt when the tenant
     *  queue is full or shutdown has begun; a malformed image gets a
     *  failed future, as in submit().  @throws std::invalid_argument
     *  for unknown tenants (a caller bug). */
    std::optional<std::future<ServedResult>>
    trySubmit(const std::string &tenant, nn::Tensor image);

    /**
     * Stop admission, serve every accepted request, join the workers.
     * Idempotent; safe from any thread.  After return, every future is
     * ready.
     */
    void shutdown();

    /** True until shutdown() begins. */
    bool accepting() const;

    /** The worker count configured to run. */
    int workers() const { return workerCount_; }

    /** Front-end options (validated). */
    const FrontendOptions &options() const { return opts_; }

    /** Counter snapshot of @p tenant.  @throws std::invalid_argument
     *  for unknown names. */
    TenantStats tenantStats(const std::string &tenant) const;

    /** Supervision snapshot (see HealthSnapshot). */
    HealthSnapshot health() const;

  private:
    struct Request
    {
        nn::Tensor image;
        std::promise<ServedResult> promise;
        std::uint64_t id = 0;
        int attempt = 0; ///< completed serve attempts so far
        std::chrono::steady_clock::time_point enqueued;
        std::chrono::steady_clock::time_point deadline; ///< max() = none
        /** Hard timeout (max() = none); past it the request fails. */
        std::chrono::steady_clock::time_point expiry =
            core::RunControl::kNoDeadline;
        /** Retry backoff: not schedulable before this instant. */
        std::chrono::steady_clock::time_point notBefore =
            std::chrono::steady_clock::time_point::min();
    };

    struct Tenant
    {
        TenantConfig cfg;
        const core::ScNetworkEngine *engine = nullptr;
        std::deque<Request> queue; ///< invariant: ascending request id
        double pass = 0.0; ///< WeightedFair virtual finish time

        // Stats (under the front end's mutex_).
        std::uint64_t submitted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t timedOut = 0;
        std::uint64_t retried = 0;
        std::uint64_t quarantined = 0;
        std::uint64_t earlyExits = 0;
        std::uint64_t shedServed = 0;
        std::uint64_t deadlineMissed = 0;
        std::uint64_t batches = 0;
        std::uint64_t consumedCycles = 0;
        std::size_t queueDepthHighWater = 0;
        core::LatencyHistogram queueHist;
        core::LatencyHistogram serviceHist;

        /** Exponentially decaying failure pressure (under mutex_):
         *  folded into the shed load signal so health composes with
         *  overload degradation. */
        double failLoad = 0.0;
        std::chrono::steady_clock::time_point failLoadAt{};

        double failureLoadLocked(
            std::chrono::steady_clock::time_point now) const;
        void noteFailureLocked(std::chrono::steady_clock::time_point now);
    };

    /**
     * One supervised worker: its thread plus the shared state the
     * watchdog reads.  alive/busy are atomics (written by the worker
     * off-lock); lastBeats/lastProgress are watchdog-private.
     */
    struct WorkerSlot
    {
        std::thread thread;
        std::atomic<bool> alive{false};
        std::atomic<bool> busy{false};
        core::RunControl control;
        std::uint64_t lastBeats = 0;
        std::chrono::steady_clock::time_point lastProgress{};
    };

    /** One popped batch: requests + the effective policy to serve them
     *  under. */
    struct Batch
    {
        Tenant *tenant = nullptr;
        std::vector<Request> requests;
        /** Popped requests already past their hard deadline: failed
         *  with StatusError{Timeout} before any engine work. */
        std::vector<Request> expired;
        core::AdaptivePolicy policy;
        bool adaptive = false;
        bool shed = false;
        /** Requests[0, firstPending) are fulfilled/disposed; the crash
         *  recovery path requeues the rest. */
        std::size_t firstPending = 0;
        std::uint64_t seq = 0; ///< global pop sequence (fault keying)
    };

    Tenant &tenantOrThrow(const std::string &name);
    const Tenant &tenantOrThrow(const std::string &name) const;

    /** Enqueue into @p tenant; caller holds mutex_ and checked space. */
    std::future<ServedResult> enqueueLocked(Tenant &tenant,
                                            nn::Tensor image);

    /** Admission validation (caller holds mutex_): for an image the
     *  tenant's engine cannot run, a future already failed with
     *  InvalidArgument, counted in failed; std::nullopt otherwise. */
    std::optional<std::future<ServedResult>>
    rejectMalformedLocked(Tenant &tenant, const nn::Tensor &image);

    /** True when some tenant's head request is schedulable now (or
     *  already expired and needs failing).  Caller holds mutex_. */
    bool hasEligibleWorkLocked(
        std::chrono::steady_clock::time_point now) const;

    /** Scheduler: index of the tenant to drain next, per opts_.policy;
     *  npos when no tenant has an eligible head.  Caller holds mutex_. */
    std::size_t pickTenantLocked(
        std::chrono::steady_clock::time_point now) const;

    /** Pop up to maxBatch eligible requests from the picked tenant and
     *  compute the effective (possibly shed) policy; caller holds
     *  mutex_. */
    Batch popBatchLocked(std::chrono::steady_clock::time_point now);

    void spawnWorkersLocked();
    void workerLoop(WorkerSlot *slot);
    void watchdogLoop();

    /** Serve one popped batch as stage-major cohorts through
     *  @p workspace (the worker's arena for this batch's engine),
     *  under @p slot's RunControl. */
    void serveBatchWith(Batch &batch, core::CohortWorkspace &workspace,
                        WorkerSlot *slot);

    /** Fail batch.expired with StatusError{Timeout}. */
    void failExpired(Batch &batch);

    /** Retry-or-fail disposition of one failed request: transient
     *  status with attempts left -> ordered requeue with backoff;
     *  otherwise the future fails (Quarantined when retries ran out). */
    void disposeFailure(Tenant &tenant, Request &&request,
                        const core::Status &status);

    /** Crash recovery: dispose every not-yet-disposed request of
     *  @p batch as a WorkerCrashed transient failure. */
    void recoverBatch(Batch &batch);

    FrontendOptions opts_;
    int workerCount_ = 0;
    std::size_t cohortCap_ = 1;

    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::condition_variable drained_;  ///< shutdown waits for inflight 0
    std::condition_variable watchdogCv_;
    std::map<std::string, std::unique_ptr<core::InferenceSession>> models_;
    std::vector<std::unique_ptr<Tenant>> tenants_; ///< registration order
    std::map<std::string, std::size_t> tenantIndex_;
    std::vector<std::unique_ptr<WorkerSlot>> slots_;
    std::thread watchdogThread_;
    bool workersRunning_ = false;
    bool sealed_ = false; ///< start() called: registration is closed
    bool stopping_ = false;
    bool watchdogStop_ = false;
    std::uint64_t nextId_ = 0;
    std::uint64_t nextCompletionSeq_ = 0;
    std::uint64_t nextBatchSeq_ = 0;
    std::size_t totalQueued_ = 0;
    /** Requests popped but not yet fulfilled/requeued/failed; the
     *  shutdown drain waits for totalQueued_ == 0 && inFlight_ == 0. */
    std::size_t inFlight_ = 0;
    double virtualTime_ = 0.0; ///< WeightedFair global virtual time

    // Supervision counters (under mutex_).
    std::uint64_t respawns_ = 0;
    std::uint64_t watchdogKicks_ = 0;
    std::uint64_t watchdogTicks_ = 0;

    /** Serializes concurrent shutdown() callers around the joins. */
    std::mutex joinMutex_;
};

} // namespace aqfpsc::serving

#endif // AQFPSC_SERVING_FRONTEND_H
