#include "frontend.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/fault_injection.h"
#include "core/model_zoo.h"
#include "core/stages/stage.h"
#include "core/workspace.h"

namespace aqfpsc::serving {

using core::FaultSite;
using core::Status;
using core::StatusCode;
using core::StatusError;

namespace {

constexpr std::size_t kNoTenant = static_cast<std::size_t>(-1);

/** Half-life of a tenant's decaying failure-pressure signal. */
constexpr double kFailLoadHalfLifeSeconds = 0.5;
/** Failure pressure added per failure/timeout/retry event: four recent
 *  failures saturate the shed load signal. */
constexpr double kFailLoadPerEvent = 0.25;

/** @p base + @p seconds; validated configs keep @p seconds within
 *  TenantConfig::kMaxBudgetSeconds, so the conversion cannot overflow. */
std::chrono::steady_clock::time_point
addSeconds(std::chrono::steady_clock::time_point base, double seconds)
{
    return base + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(seconds));
}

/** Fail @p request's future, swallowing the (impossible in practice)
 *  double-fulfillment error so a disposal can never kill a worker. */
void
fulfillException(std::promise<ServedResult> &promise, const Status &status)
{
    try {
        promise.set_exception(
            std::make_exception_ptr(StatusError(status)));
    } catch (const std::future_error &) {
        // Already satisfied: nothing left to deliver.
    }
}

int
resolveWorkerCount(int requested)
{
    if (requested <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        requested = hw == 0 ? 1 : static_cast<int>(hw);
    }
    return std::clamp(requested, 1, 256);
}

/** The range every time budget must lie in, for validation messages. */
std::string
budgetRange()
{
    return "[0, " +
           std::to_string(
               static_cast<long long>(TenantConfig::kMaxBudgetSeconds)) +
           "] s";
}

void
throwJoined(const char *what, const std::vector<std::string> &errors)
{
    std::string msg = what;
    msg += ": ";
    for (std::size_t i = 0; i < errors.size(); ++i)
        msg += (i ? "; " : "") + errors[i];
    throw std::invalid_argument(msg);
}

} // namespace

const char *
schedPolicyName(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::Fifo:
        return "fifo";
      case SchedPolicy::Priority:
        return "priority";
      case SchedPolicy::Edf:
        return "edf";
      case SchedPolicy::WeightedFair:
        return "fair";
    }
    return "fifo";
}

std::optional<SchedPolicy>
parseSchedPolicy(const std::string &name)
{
    if (name == "fifo")
        return SchedPolicy::Fifo;
    if (name == "priority")
        return SchedPolicy::Priority;
    if (name == "edf")
        return SchedPolicy::Edf;
    if (name == "fair")
        return SchedPolicy::WeightedFair;
    return std::nullopt;
}

std::vector<std::string>
TenantConfig::validate() const
{
    std::vector<std::string> errors;
    if (name.empty())
        errors.push_back("tenant name must be non-empty");
    if (model.empty())
        errors.push_back("tenant '" + name +
                         "' must reference a registered model name");
    if (!(weight > 0.0) || !std::isfinite(weight)) {
        errors.push_back(
            "weight " + std::to_string(weight) +
            " must be a positive finite WeightedFair share");
    }
    if (queueCapacity == 0 || queueCapacity > kMaxQueueCapacity) {
        errors.push_back(
            "queueCapacity " + std::to_string(queueCapacity) +
            " out of [1, " + std::to_string(kMaxQueueCapacity) +
            "]: pending requests own their image tensors, so the bound "
            "is the admission-control backstop");
    }
    if (!(deadlineSeconds >= 0.0 && deadlineSeconds <= kMaxBudgetSeconds)) {
        errors.push_back("deadlineSeconds must lie in " + budgetRange() +
                         " (0 = no budget)");
    }
    if (!(timeoutSeconds >= 0.0 && timeoutSeconds <= kMaxBudgetSeconds)) {
        errors.push_back("timeoutSeconds must lie in " + budgetRange() +
                         " (0 = no hard per-request timeout)");
    }
    if (maxRetries < 0 || maxRetries > 16) {
        errors.push_back(
            "maxRetries " + std::to_string(maxRetries) +
            " out of [0, 16]: each retry re-serves the full request, so "
            "the budget must stay small");
    }
    if (!std::isfinite(retryBackoffSeconds) || retryBackoffSeconds < 0.0) {
        errors.push_back(
            "retryBackoffSeconds must be a finite value >= 0 (attempt k "
            "waits retryBackoffSeconds * 2^(k-1))");
    } else if (maxRetries >= 1 &&
               retryBackoffSeconds * std::exp2(maxRetries - 1) >
                   kMaxBudgetSeconds) {
        errors.push_back(
            "the last retry's backoff, retryBackoffSeconds * "
            "2^(maxRetries-1), must lie in " + budgetRange());
    }
    if (adaptive) {
        for (const std::string &e : policy.validate())
            errors.push_back("policy: " + e);
    }
    if (shed.enabled) {
        if (!adaptive) {
            errors.push_back(
                "shed.enabled requires adaptive serving: shedding "
                "tightens the early-exit margin, which only exists on "
                "the adaptive path");
        }
        if (std::isnan(shed.startLoad) || shed.startLoad < 0.0 ||
            !std::isfinite(shed.fullLoad) ||
            shed.fullLoad <= shed.startLoad) {
            errors.push_back(
                "shed loads must satisfy 0 <= startLoad < fullLoad "
                "(the margin tightens linearly across that band)");
        }
        if (std::isnan(shed.marginFloor) || shed.marginFloor < 0.0 ||
            shed.marginFloor > policy.exitMargin) {
            errors.push_back(
                "shed.marginFloor must lie in [0, policy.exitMargin]: "
                "shedding only ever tightens the margin");
        }
        if (shed.minCyclesFloor > policy.minCycles) {
            errors.push_back(
                "shed.minCyclesFloor must not exceed policy.minCycles: "
                "shedding only ever lowers the exit floor");
        }
    }
    return errors;
}

std::vector<std::string>
FrontendOptions::validate() const
{
    std::vector<std::string> errors;
    if (workers < 0 || workers > 256) {
        errors.push_back(
            "workers " + std::to_string(workers) +
            " out of [0, 256]: 0 means one worker per hardware thread");
    }
    if (maxBatch < 1 || static_cast<std::size_t>(maxBatch) >
                            TenantConfig::kMaxQueueCapacity) {
        errors.push_back(
            "maxBatch " + std::to_string(maxBatch) + " out of [1, " +
            std::to_string(TenantConfig::kMaxQueueCapacity) +
            "]: it is the number of requests drained from one tenant per "
            "scheduler pick");
    }
    if (!(watchdogSeconds > 0.0 &&
          watchdogSeconds <= TenantConfig::kMaxBudgetSeconds)) {
        errors.push_back(
            "watchdogSeconds must be a positive supervision tick within " +
            budgetRange());
    }
    if (!std::isfinite(stallSeconds) || stallSeconds <= 0.0) {
        errors.push_back(
            "stallSeconds must be a positive finite stall threshold");
    }
    return errors;
}

ServingFrontend::ServingFrontend(FrontendOptions opts)
    : opts_(std::move(opts))
{
    const std::vector<std::string> errors = opts_.validate();
    if (!errors.empty())
        throwJoined("invalid FrontendOptions", errors);
    workerCount_ = resolveWorkerCount(opts_.workers);
    cohortCap_ = std::min<std::size_t>(
        static_cast<std::size_t>(opts_.maxBatch), core::kMaxCohortImages);
    if (!opts_.startPaused) {
        const std::lock_guard<std::mutex> lock(mutex_);
        spawnWorkersLocked();
    }
}

ServingFrontend::~ServingFrontend()
{
    shutdown();
}

void
ServingFrontend::addModel(const std::string &name, nn::Network net,
                          core::EngineOptions opts)
{
    auto session = std::make_unique<core::InferenceSession>(
        std::move(net), std::move(opts));
    const std::lock_guard<std::mutex> lock(mutex_);
    if (sealed_) {
        throw std::logic_error(
            "addModel('" + name + "') after start(): register every "
            "model before serving begins");
    }
    if (!models_.emplace(name, std::move(session)).second)
        throw std::invalid_argument("model '" + name +
                                    "' is already registered");
}

void
ServingFrontend::addModelFromFile(const std::string &name,
                                  const std::string &path,
                                  core::EngineOptions opts)
{
    addModel(name, nn::Network::loadModel(path), std::move(opts));
}

void
ServingFrontend::addModelFromZoo(const std::string &name,
                                 const std::string &zoo,
                                 core::EngineOptions opts,
                                 unsigned buildSeed)
{
    addModel(name, core::buildModel(zoo, buildSeed), std::move(opts));
}

const core::InferenceSession &
ServingFrontend::model(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = models_.find(name);
    if (it == models_.end())
        throw std::invalid_argument("unknown model '" + name + "'");
    return *it->second;
}

std::vector<std::string>
ServingFrontend::modelNames() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(models_.size());
    for (const auto &[name, session] : models_)
        names.push_back(name);
    return names;
}

void
ServingFrontend::addTenant(TenantConfig cfg)
{
    const std::vector<std::string> errors = cfg.validate();
    if (!errors.empty())
        throwJoined(("invalid TenantConfig '" + cfg.name + "'").c_str(),
                    errors);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (sealed_) {
        throw std::logic_error(
            "addTenant('" + cfg.name + "') after start(): register "
            "every tenant before serving begins");
    }
    if (tenantIndex_.count(cfg.name))
        throw std::invalid_argument("tenant '" + cfg.name +
                                    "' is already registered");
    const auto it = models_.find(cfg.model);
    if (it == models_.end()) {
        throw std::invalid_argument(
            "tenant '" + cfg.name + "' references unknown model '" +
            cfg.model + "'");
    }
    // Compile now: serving threads must never pay (or race on) the
    // first-use engine build, and configuration errors — unknown
    // backend, adaptive on a non-resumable backend — surface here.
    const core::ScNetworkEngine &engine = it->second->engine(cfg.backend);
    if (cfg.adaptive) {
        std::string why_not;
        if (!engine.supportsAdaptive(&why_not)) {
            throw std::invalid_argument(
                "tenant '" + cfg.name +
                "': adaptive serving unavailable on backend '" +
                engine.backendName() + "': stage '" + why_not +
                "' is not resumable");
        }
    }
    auto tenant = std::make_unique<Tenant>();
    tenant->cfg = std::move(cfg);
    tenant->engine = &engine;
    tenantIndex_.emplace(tenant->cfg.name, tenants_.size());
    tenants_.push_back(std::move(tenant));
}

std::vector<std::string>
ServingFrontend::tenantNames() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(tenants_.size());
    for (const auto &t : tenants_)
        names.push_back(t->cfg.name);
    return names;
}

void
ServingFrontend::start()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    sealed_ = true;
    spawnWorkersLocked();
}

void
ServingFrontend::spawnWorkersLocked()
{
    if (workersRunning_)
        return;
    workersRunning_ = true;
    const auto now = std::chrono::steady_clock::now();
    slots_.reserve(static_cast<std::size_t>(workerCount_));
    for (int t = 0; t < workerCount_; ++t) {
        auto slot = std::make_unique<WorkerSlot>();
        slot->alive.store(true);
        slot->lastProgress = now;
        slot->thread =
            std::thread(&ServingFrontend::workerLoop, this, slot.get());
        slots_.push_back(std::move(slot));
    }
    watchdogThread_ = std::thread(&ServingFrontend::watchdogLoop, this);
}

double
ServingFrontend::Tenant::failureLoadLocked(
    std::chrono::steady_clock::time_point now) const
{
    if (failLoad <= 0.0)
        return 0.0;
    const double dt =
        std::chrono::duration<double>(now - failLoadAt).count();
    if (dt <= 0.0)
        return failLoad;
    return failLoad * std::exp2(-dt / kFailLoadHalfLifeSeconds);
}

void
ServingFrontend::Tenant::noteFailureLocked(
    std::chrono::steady_clock::time_point now)
{
    failLoad = failureLoadLocked(now) + kFailLoadPerEvent;
    failLoadAt = now;
}

ServingFrontend::Tenant &
ServingFrontend::tenantOrThrow(const std::string &name)
{
    const auto it = tenantIndex_.find(name);
    if (it == tenantIndex_.end())
        throw std::invalid_argument("unknown tenant '" + name + "'");
    return *tenants_[it->second];
}

const ServingFrontend::Tenant &
ServingFrontend::tenantOrThrow(const std::string &name) const
{
    const auto it = tenantIndex_.find(name);
    if (it == tenantIndex_.end())
        throw std::invalid_argument("unknown tenant '" + name + "'");
    return *tenants_[it->second];
}

std::future<ServedResult>
ServingFrontend::enqueueLocked(Tenant &tenant, nn::Tensor image)
{
    if (opts_.policy == SchedPolicy::WeightedFair &&
        tenant.queue.empty()) {
        // A tenant going busy re-enters at the current virtual time:
        // idle periods bank no credit, so a returning tenant cannot
        // monopolize the pool to "catch up".
        tenant.pass = std::max(tenant.pass, virtualTime_);
    }
    Request request;
    request.image = std::move(image);
    request.id = nextId_++;
    request.enqueued = std::chrono::steady_clock::now();
    request.deadline =
        tenant.cfg.deadlineSeconds > 0.0
            ? addSeconds(request.enqueued, tenant.cfg.deadlineSeconds)
            : std::chrono::steady_clock::time_point::max();
    request.expiry =
        tenant.cfg.timeoutSeconds > 0.0
            ? addSeconds(request.enqueued, tenant.cfg.timeoutSeconds)
            : core::RunControl::kNoDeadline;
    std::future<ServedResult> future = request.promise.get_future();
    tenant.queue.push_back(std::move(request));
    ++tenant.submitted;
    ++totalQueued_;
    tenant.queueDepthHighWater =
        std::max(tenant.queueDepthHighWater, tenant.queue.size());
    return future;
}

std::optional<std::future<ServedResult>>
ServingFrontend::rejectMalformedLocked(Tenant &tenant,
                                       const nn::Tensor &image)
{
    std::string error = tenant.engine->imageError(image);
    if (error.empty())
        return std::nullopt;
    // A client error: it costs no service work, so it adds no failure
    // pressure to the shed signal.
    ++tenant.failed;
    std::promise<ServedResult> promise;
    fulfillException(promise, Status{StatusCode::InvalidArgument,
                                     "tenant '" + tenant.cfg.name +
                                         "': " + std::move(error)});
    return promise.get_future();
}

std::future<ServedResult>
ServingFrontend::submit(const std::string &tenant, nn::Tensor image)
{
    std::future<ServedResult> future;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        Tenant &t = tenantOrThrow(tenant);
        if (stopping_) {
            throw StatusError(
                StatusCode::Shutdown,
                "ServingFrontend is shut down: request rejected");
        }
        if (auto failed = rejectMalformedLocked(t, image))
            return std::move(*failed);
        if (t.queue.size() >= t.cfg.queueCapacity) {
            ++t.rejected;
            throw StatusError(
                StatusCode::Overloaded,
                "tenant '" + tenant + "' queue is full (" +
                    std::to_string(t.cfg.queueCapacity) +
                    " pending): request rejected");
        }
        future = enqueueLocked(t, std::move(image));
    }
    notEmpty_.notify_one();
    return future;
}

std::optional<std::future<ServedResult>>
ServingFrontend::trySubmit(const std::string &tenant, nn::Tensor image)
{
    std::optional<std::future<ServedResult>> future;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        Tenant &t = tenantOrThrow(tenant);
        if (stopping_)
            return std::nullopt;
        if (auto failed = rejectMalformedLocked(t, image))
            return failed;
        if (t.queue.size() >= t.cfg.queueCapacity) {
            ++t.rejected;
            return std::nullopt;
        }
        future = enqueueLocked(t, std::move(image));
    }
    notEmpty_.notify_one();
    return future;
}

bool
ServingFrontend::hasEligibleWorkLocked(
    std::chrono::steady_clock::time_point now) const
{
    for (const auto &t : tenants_) {
        if (t->queue.empty())
            continue;
        const Request &head = t->queue.front();
        // Eligible: schedulable now, or already expired (a worker must
        // pick it up just to fail its future promptly).
        if (now > head.expiry || head.notBefore <= now)
            return true;
    }
    return false;
}

std::size_t
ServingFrontend::pickTenantLocked(
    std::chrono::steady_clock::time_point now) const
{
    std::size_t best = kNoTenant;
    double bestKey = 0.0;
    std::uint64_t bestSeq = 0;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        const Tenant &t = *tenants_[i];
        if (t.queue.empty())
            continue;
        const Request &head = t.queue.front();
        if (!(now > head.expiry || head.notBefore <= now))
            continue; // head waiting out a retry backoff
        double key = 0.0;
        switch (opts_.policy) {
          case SchedPolicy::Fifo:
            key = 0.0; // arrival order only
            break;
          case SchedPolicy::Priority:
            key = -static_cast<double>(t.cfg.priority);
            break;
          case SchedPolicy::Edf:
            key = head.deadline ==
                          std::chrono::steady_clock::time_point::max()
                      ? std::numeric_limits<double>::infinity()
                      : std::chrono::duration<double>(
                            head.deadline.time_since_epoch())
                            .count();
            break;
          case SchedPolicy::WeightedFair:
            key = t.pass;
            break;
        }
        if (best == kNoTenant || key < bestKey ||
            (key == bestKey && head.id < bestSeq)) {
            best = i;
            bestKey = key;
            bestSeq = head.id;
        }
    }
    return best;
}

ServingFrontend::Batch
ServingFrontend::popBatchLocked(std::chrono::steady_clock::time_point now)
{
    Batch batch;
    const std::size_t idx = pickTenantLocked(now);
    if (idx == kNoTenant)
        return batch;
    Tenant &t = *tenants_[idx];
    batch.tenant = &t;
    batch.adaptive = t.cfg.adaptive;
    // Non-adaptive tenants run the never-exit policy — bit-identical to
    // full-length inference — in 256-cycle blocks, so timeouts and
    // watchdog kicks can cancel the run between blocks instead of at
    // batch boundaries (non-resumable backends run one block).
    batch.policy = t.cfg.adaptive ? t.cfg.policy
                                  : core::AdaptivePolicy::neverExit(256);
    batch.seq = nextBatchSeq_++;

    // The load signal, sampled at dispatch: queue fill fraction; when
    // the tenant runs a deadline budget, how much of that budget the
    // head-of-line request has already burned waiting; and the decaying
    // failure pressure (failures/timeouts/retries degrade precision
    // early instead of piling retried work onto a struggling pool).
    if (t.cfg.shed.enabled) {
        const double fill =
            static_cast<double>(t.queue.size()) /
            static_cast<double>(t.cfg.queueCapacity);
        double load = fill;
        if (t.cfg.deadlineSeconds > 0.0) {
            const double headWait =
                std::chrono::duration<double>(now -
                                              t.queue.front().enqueued)
                    .count();
            load = std::max(load, headWait / t.cfg.deadlineSeconds);
        }
        load = std::max(load, std::min(1.0, t.failureLoadLocked(now)));
        const double f = std::clamp(
            (load - t.cfg.shed.startLoad) /
                (t.cfg.shed.fullLoad - t.cfg.shed.startLoad),
            0.0, 1.0);
        if (f > 0.0) {
            batch.shed = true;
            // Clamp: FP interpolation at f = 1 may land one ULP below
            // the configured floor, which the contract forbids.
            batch.policy.exitMargin = std::max(
                t.cfg.shed.marginFloor,
                batch.policy.exitMargin +
                    f * (t.cfg.shed.marginFloor - batch.policy.exitMargin));
            const double floorCycles =
                static_cast<double>(t.cfg.shed.minCyclesFloor);
            const double baseCycles =
                static_cast<double>(batch.policy.minCycles);
            batch.policy.minCycles = static_cast<std::size_t>(
                baseCycles + f * (floorCycles - baseCycles) + 0.5);
        }
    }

    // Drain up to maxBatch live requests.  Already-expired requests
    // siphon into batch.expired (failed before any engine work) without
    // consuming batch budget; a head waiting out its retry backoff
    // blocks the tenant's drain (keeps the id-order invariant).
    while (batch.requests.size() <
               static_cast<std::size_t>(opts_.maxBatch) &&
           !t.queue.empty()) {
        Request &head = t.queue.front();
        if (now > head.expiry) {
            batch.expired.push_back(std::move(head));
            t.queue.pop_front();
            --totalQueued_;
            continue;
        }
        if (head.notBefore > now)
            break;
        batch.requests.push_back(std::move(head));
        t.queue.pop_front();
        --totalQueued_;
    }
    ++t.batches; // the picked tenant's head is always drained
    inFlight_ += batch.requests.size() + batch.expired.size();
    if (opts_.policy == SchedPolicy::WeightedFair &&
        !batch.requests.empty()) {
        virtualTime_ = std::max(virtualTime_, t.pass);
        t.pass += static_cast<double>(batch.requests.size()) /
                  t.cfg.weight;
    }
    return batch;
}

void
ServingFrontend::workerLoop(WorkerSlot *slot)
{
    // One cohort arena per (worker, engine), built lazily on the first
    // batch of each tenant's engine and reused for the worker's
    // lifetime: steady-state serving allocates nothing in the stage
    // pipeline, and a front end with many tenants on one model shares
    // one arena per worker.
    std::map<const core::ScNetworkEngine *,
             std::unique_ptr<core::CohortWorkspace>>
        workspaces;

    for (;;) {
        Batch batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            for (;;) {
                if (stopping_ && totalQueued_ == 0) {
                    // Every queue drained.  In-flight work of other
                    // workers may still requeue a retry; the watchdog
                    // respawns a worker for it if so.
                    slot->alive.store(false);
                    drained_.notify_all();
                    return;
                }
                const auto now = std::chrono::steady_clock::now();
                if (totalQueued_ > 0 && hasEligibleWorkLocked(now))
                    break;
                if (totalQueued_ > 0) {
                    // Only backoff-delayed heads: poll for the nearest
                    // notBefore instead of sleeping until a submit.
                    notEmpty_.wait_for(lock, std::chrono::milliseconds(1));
                } else {
                    notEmpty_.wait(lock);
                }
            }
            batch = popBatchLocked(std::chrono::steady_clock::now());
        }
        failExpired(batch);
        if (batch.requests.empty())
            continue;
        slot->busy.store(true);
        bool crashed = false;
        try {
            auto &workspace = workspaces[batch.tenant->engine];
            if (!workspace) {
                workspace = std::make_unique<core::CohortWorkspace>(
                    *batch.tenant->engine, cohortCap_);
            }
            core::fault::injectThrow(FaultSite::WorkerCrash, batch.seq);
            serveBatchWith(batch, *workspace, slot);
        } catch (...) {
            // serveBatchWith disposes per-request failures itself, so
            // anything escaping it is a crash-class event: dispose what
            // the batch still owes, then let this thread die (the
            // watchdog joins and respawns it).
            recoverBatch(batch);
            crashed = true;
        }
        slot->busy.store(false);
        if (crashed) {
            slot->alive.store(false);
            return;
        }
    }
}

void
ServingFrontend::watchdogLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!watchdogStop_) {
        watchdogCv_.wait_for(
            lock, std::chrono::duration<double>(opts_.watchdogSeconds));
        if (watchdogStop_)
            break;
        const auto now = std::chrono::steady_clock::now();
        ++watchdogTicks_;
        for (const auto &slotPtr : slots_) {
            WorkerSlot &slot = *slotPtr;
            if (!slot.alive.load()) {
                // Dead workers only unlock-and-return after clearing
                // alive, so this join cannot deadlock on mutex_.
                if (slot.thread.joinable())
                    slot.thread.join();
                if (!stopping_ || totalQueued_ > 0) {
                    slot.control.rearm(core::RunControl::kNoDeadline);
                    slot.lastBeats = slot.control.beats();
                    slot.lastProgress = now;
                    slot.busy.store(false);
                    slot.alive.store(true);
                    slot.thread = std::thread(&ServingFrontend::workerLoop,
                                              this, &slot);
                    ++respawns_;
                }
                continue;
            }
            if (!slot.busy.load()) {
                slot.lastBeats = slot.control.beats();
                slot.lastProgress = now;
                continue;
            }
            const std::uint64_t beats = slot.control.beats();
            if (beats != slot.lastBeats) {
                slot.lastBeats = beats;
                slot.lastProgress = now;
                continue;
            }
            if (std::chrono::duration<double>(now - slot.lastProgress)
                    .count() >= opts_.stallSeconds) {
                // Busy with frozen beats for a full stall window: kick.
                // The run aborts at its next checkpoint (or, for an
                // injected hang, at its next 1 ms slice) and the batch
                // falls back to per-request isolation.
                slot.control.requestCancel();
                ++watchdogKicks_;
                slot.lastProgress = now;
            }
        }
    }
}

void
ServingFrontend::serveBatchWith(Batch &batch,
                                core::CohortWorkspace &workspace,
                                WorkerSlot *slot)
{
    Tenant &tenant = *batch.tenant;
    const core::ScNetworkEngine &engine = *tenant.engine;
    const auto picked = std::chrono::steady_clock::now();

    for (std::size_t off = 0; off < batch.requests.size();
         off += cohortCap_) {
        const std::size_t count =
            std::min(cohortCap_, batch.requests.size() - off);
        const nn::Tensor *images[core::kMaxCohortImages];
        std::size_t ids[core::kMaxCohortImages];
        auto chunkExpiry = core::RunControl::kNoDeadline;
        for (std::size_t j = 0; j < count; ++j) {
            const Request &request = batch.requests[off + j];
            images[j] = &request.image;
            ids[j] = request.id;
            chunkExpiry = std::min(chunkExpiry, request.expiry);
        }
        // Fault keying: the chunk key folds the head request's attempt
        // number in, so a retried request draws a fresh decision (the
        // transient fault pattern, not the request, is what repeats).
        const std::uint64_t chunkKey =
            static_cast<std::uint64_t>(ids[0]) ^
            (static_cast<std::uint64_t>(batch.requests[off].attempt)
             << 40);

        core::AdaptivePrediction results[core::kMaxCohortImages];
        bool cohortOk = true;
        try {
            slot->control.rearm(chunkExpiry);
            core::fault::injectDelay(FaultSite::WorkerHang, chunkKey,
                                     &slot->control);
            core::fault::injectDelay(FaultSite::WorkerSlowdown, chunkKey,
                                     &slot->control);
            core::fault::injectThrow(FaultSite::WorkerException, chunkKey);
            engine.inferAdaptiveCohort(images, ids, count, workspace,
                                       batch.policy, results,
                                       &slot->control);
        } catch (...) {
            cohortOk = false;
        }
        const auto done = std::chrono::steady_clock::now();
        const double serviceSeconds =
            std::chrono::duration<double>(done - picked).count();

        for (std::size_t j = 0; j < count; ++j) {
            Request &request = batch.requests[off + j];
            ServedResult served;
            served.requestId = request.id;
            served.adaptive = batch.adaptive;
            served.effectivePolicy = batch.policy;
            served.shed = batch.shed;
            served.deadlineSeconds = tenant.cfg.deadlineSeconds;
            served.attempts = request.attempt + 1;
            served.queueSeconds =
                std::chrono::duration<double>(picked - request.enqueued)
                    .count();
            // Execution is cohort-granular: the measured service time
            // is shared by every request of the cohort.
            served.serviceSeconds = serviceSeconds;
            served.deadlineMissed = done > request.deadline;
            if (!cohortOk) {
                // Isolate the failure: re-run this request as a cohort
                // of one (bit-identical result: the requestId is the
                // seed), so one bad request cannot fail its
                // cohort-mates.  Its own failure is disposed through
                // the retry/quarantine policy.
                try {
                    if (std::chrono::steady_clock::now() > request.expiry)
                        throw StatusError(
                            StatusCode::Timeout,
                            "request " + std::to_string(request.id) +
                                " deadline elapsed during service");
                    slot->control.rearm(request.expiry);
                    core::fault::injectThrow(
                        FaultSite::WorkerException,
                        static_cast<std::uint64_t>(request.id) ^
                            0x517CC1B727220A95ull ^
                            (static_cast<std::uint64_t>(request.attempt)
                             << 40));
                    engine.inferAdaptiveCohort(&images[j], &ids[j], 1,
                                               workspace, batch.policy,
                                               &results[j], &slot->control);
                } catch (...) {
                    disposeFailure(tenant, std::move(request),
                                   Status::fromCurrentException());
                    batch.firstPending = off + j + 1;
                    continue;
                }
            }
            served.prediction = std::move(results[j].prediction);
            served.consumedCycles = results[j].consumedCycles;
            served.exitedEarly = results[j].exitedEarly;
            // Count before fulfilling: a caller returning from
            // future.get() must already see itself in stats().
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                served.completionSeq = nextCompletionSeq_++;
                ++tenant.completed;
                tenant.consumedCycles += served.consumedCycles;
                if (served.exitedEarly)
                    ++tenant.earlyExits;
                if (served.shed)
                    ++tenant.shedServed;
                if (served.deadlineMissed)
                    ++tenant.deadlineMissed;
                tenant.queueHist.record(served.queueSeconds);
                tenant.serviceHist.record(served.serviceSeconds);
                --inFlight_;
                if (totalQueued_ == 0 && inFlight_ == 0)
                    drained_.notify_all();
            }
            try {
                request.promise.set_value(std::move(served));
            } catch (const std::future_error &) {
                // Already satisfied: nothing left to deliver.
            }
            batch.firstPending = off + j + 1;
        }
    }
}

void
ServingFrontend::failExpired(Batch &batch)
{
    if (batch.expired.empty())
        return;
    Tenant &tenant = *batch.tenant;
    const auto now = std::chrono::steady_clock::now();
    for (Request &request : batch.expired) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++nextCompletionSeq_;
            ++tenant.failed;
            ++tenant.timedOut;
            tenant.noteFailureLocked(now);
            --inFlight_;
            if (totalQueued_ == 0 && inFlight_ == 0)
                drained_.notify_all();
        }
        fulfillException(
            request.promise,
            Status{StatusCode::Timeout,
                   "request " + std::to_string(request.id) +
                       " expired in the queue before a worker picked "
                       "it up"});
    }
    batch.expired.clear();
}

void
ServingFrontend::disposeFailure(Tenant &tenant, Request &&request,
                                const core::Status &status)
{
    const auto now = std::chrono::steady_clock::now();
    if (status.transient() && request.attempt < tenant.cfg.maxRetries) {
        bool notify = false;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++request.attempt;
            request.notBefore = addSeconds(
                now, tenant.cfg.retryBackoffSeconds *
                         std::exp2(static_cast<double>(request.attempt -
                                                       1)));
            // Requeue in id order (the tenant-queue invariant): the
            // retried request re-enters ahead of younger requests, not
            // at the tail, so retries cannot starve behind fresh load.
            const auto pos = std::upper_bound(
                tenant.queue.begin(), tenant.queue.end(), request.id,
                [](std::uint64_t id, const Request &r) {
                    return id < r.id;
                });
            tenant.queue.insert(pos, std::move(request));
            ++totalQueued_;
            --inFlight_;
            ++tenant.retried;
            tenant.noteFailureLocked(now);
            notify = true;
        }
        if (notify)
            notEmpty_.notify_one();
        return;
    }
    Status terminal = status;
    if (status.transient()) {
        terminal = Status{
            StatusCode::Quarantined,
            "request " + std::to_string(request.id) +
                " quarantined after " +
                std::to_string(request.attempt + 1) +
                " failed attempts; last failure: " + status.toString()};
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++nextCompletionSeq_;
        ++tenant.failed;
        if (terminal.code == StatusCode::Timeout)
            ++tenant.timedOut;
        if (terminal.code == StatusCode::Quarantined)
            ++tenant.quarantined;
        tenant.noteFailureLocked(now);
        --inFlight_;
        if (totalQueued_ == 0 && inFlight_ == 0)
            drained_.notify_all();
    }
    fulfillException(request.promise, terminal);
}

void
ServingFrontend::recoverBatch(Batch &batch)
{
    // failExpired already ran (before anything could throw), so the
    // batch only owes its not-yet-disposed live requests.
    for (std::size_t i = batch.firstPending; i < batch.requests.size();
         ++i) {
        Request &request = batch.requests[i];
        const Status status{StatusCode::WorkerCrashed,
                            "worker thread died while serving request " +
                                std::to_string(request.id) + "'s batch"};
        disposeFailure(*batch.tenant, std::move(request), status);
    }
    batch.firstPending = batch.requests.size();
}

void
ServingFrontend::shutdown()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        // A never-started (startPaused) front end may hold accepted
        // requests; spin the pool up so the drain contract holds.
        spawnWorkersLocked();
    }
    notEmpty_.notify_all();
    const std::lock_guard<std::mutex> join_lock(joinMutex_);
    {
        // Drain: queued AND in-flight both zero.  In-flight failures
        // may requeue (retry), so neither alone proves completion.
        // Poll under the watchdog in case a drain notify is lost to a
        // respawn race.
        std::unique_lock<std::mutex> lock(mutex_);
        while (totalQueued_ > 0 || inFlight_ > 0)
            drained_.wait_for(lock, std::chrono::milliseconds(10));
        watchdogStop_ = true;
    }
    watchdogCv_.notify_all();
    if (watchdogThread_.joinable())
        watchdogThread_.join();
    // The watchdog is gone: no more respawns.  Wake every idle worker
    // (stopping_ + empty queues = exit) and join the pool.
    notEmpty_.notify_all();
    for (const auto &slot : slots_) {
        if (slot->thread.joinable())
            slot->thread.join();
    }
}

bool
ServingFrontend::accepting() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return !stopping_;
}

TenantStats
ServingFrontend::tenantStats(const std::string &tenant) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const Tenant &t = tenantOrThrow(tenant);
    TenantStats s;
    s.submitted = t.submitted;
    s.rejected = t.rejected;
    s.completed = t.completed;
    s.failed = t.failed;
    s.timedOut = t.timedOut;
    s.retried = t.retried;
    s.quarantined = t.quarantined;
    s.earlyExits = t.earlyExits;
    s.shedServed = t.shedServed;
    s.deadlineMissed = t.deadlineMissed;
    s.batches = t.batches;
    s.avgConsumedCycles =
        t.completed == 0 ? 0.0
                         : static_cast<double>(t.consumedCycles) /
                               static_cast<double>(t.completed);
    s.queueDepth = t.queue.size();
    s.queueDepthHighWater = t.queueDepthHighWater;
    s.queueHistogram = t.queueHist;
    s.serviceHistogram = t.serviceHist;
    return s;
}

HealthSnapshot
ServingFrontend::health() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    HealthSnapshot h;
    h.workersConfigured = workerCount_;
    for (const auto &slot : slots_) {
        if (slot->alive.load())
            ++h.workersAlive;
        if (slot->busy.load())
            ++h.workersBusy;
    }
    h.respawns = respawns_;
    h.watchdogKicks = watchdogKicks_;
    h.watchdogTicks = watchdogTicks_;
    for (const auto &t : tenants_) {
        h.failed += t->failed;
        h.timedOut += t->timedOut;
        h.retried += t->retried;
        h.quarantined += t->quarantined;
    }
    h.planCache = core::PlanCache::instance().stats();
    return h;
}

} // namespace aqfpsc::serving
