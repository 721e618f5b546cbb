/**
 * @file
 * Structured error taxonomy and cooperative cancellation.
 *
 * Production serving cannot reason about `catch (const std::exception &)`:
 * a timed-out request, a crashed worker, a corrupt model artifact and a
 * caller bug all need different handling (retry, respawn, reject,
 * surface).  core::Status is the one vocabulary every failure in the
 * serving stack speaks:
 *
 *  - **Status** = {StatusCode, message}.  The code drives policy (is the
 *    failure transient and retry-eligible?), the message stays
 *    actionable for humans.
 *  - **StatusError** is the exception form.  It derives from
 *    std::runtime_error, so legacy call sites that catch runtime_error
 *    keep working, while new call sites catch StatusError and branch on
 *    status().code.  Every exception that reaches a ServingFrontend
 *    future is wrapped into a StatusError (Status::fromCurrentException
 *    maps foreign exception types into the taxonomy).
 *  - **RunControl** is the cooperative cancellation primitive: a worker
 *    arms it with the request deadline before dispatching into the
 *    engine, the engine polls it between the checkpoint blocks of its
 *    one execution loop (ScNetworkEngine::inferAdaptiveCohort), and a
 *    watchdog may flip its cancel flag from another thread to reclaim a
 *    stuck worker.  poll() also counts "beats", which is how the
 *    ServingFrontend watchdog distinguishes a slow-but-alive worker
 *    (beats advance) from a wedged one (beats frozen).
 *
 * Thread safety: Status/StatusError are plain values.  RunControl's
 * cancel flag and beat counter are atomics — requestCancel() may be
 * called from any thread while the owning worker runs; rearm() must only
 * be called by the owning worker between runs.
 */

#ifndef AQFPSC_CORE_STATUS_H
#define AQFPSC_CORE_STATUS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>

namespace aqfpsc::core {

/** The failure taxonomy of the serving stack. */
enum class StatusCode : int
{
    Ok = 0,
    InvalidArgument,     ///< caller bug: bad config/image; never retried
    Timeout,             ///< per-request budget elapsed (queue or run)
    Cancelled,           ///< cooperative cancellation (not deadline-driven)
    Overloaded,          ///< admission control rejected the request
    Shutdown,            ///< the service stopped before serving it
    WorkerCrashed,       ///< a worker thread died serving it (transient)
    ExecutionFailed,     ///< the inference itself threw (transient)
    Quarantined,         ///< retries exhausted: poison request isolated
    ModelTruncated,      ///< artifact ends mid-structure (partial write)
    ModelCorrupted,      ///< artifact bytes fail verification (bit rot)
    EngineCompileFailed, ///< stage-graph compilation failed
    IoError,             ///< file system level failure
    Internal,            ///< unclassified; a bug in the mapping if seen
};

/** Stable upper-snake name of @p code (e.g. "TIMEOUT"). */
const char *statusCodeName(StatusCode code);

/**
 * True for failures worth retrying on another attempt/worker
 * (WorkerCrashed, ExecutionFailed).  Timeouts are NOT transient: the
 * budget is gone.  InvalidArgument is NOT transient: the same request
 * fails the same way forever — retrying it is how poison requests eat
 * a worker pool.
 */
bool statusCodeTransient(StatusCode code);

/** One structured outcome: a taxonomy code plus an actionable message. */
struct Status
{
    StatusCode code = StatusCode::Ok;
    std::string message;

    bool ok() const { return code == StatusCode::Ok; }
    bool transient() const { return statusCodeTransient(code); }

    /** "TIMEOUT: request budget of 20 ms elapsed ..." */
    std::string toString() const;

    /**
     * Map the in-flight exception (current_exception) into the
     * taxonomy: StatusError keeps its status, std::invalid_argument
     * becomes InvalidArgument, other std::exceptions become
     * ExecutionFailed, anything else Internal.  Call from a catch block.
     */
    static Status fromCurrentException();
};

/**
 * Exception form of Status.  Derives from std::runtime_error so
 * existing `catch (const std::runtime_error &)` sites (tests, CLI)
 * keep observing the message; taxonomy-aware callers catch StatusError
 * and switch on status().code.
 */
class StatusError : public std::runtime_error
{
  public:
    explicit StatusError(Status status)
        : std::runtime_error(status.toString()), status_(std::move(status))
    {
    }

    StatusError(StatusCode code, std::string message)
        : StatusError(Status{code, std::move(message)})
    {
    }

    const Status &status() const { return status_; }

    /** The current exception wrapped as a StatusError exception_ptr
     *  (the one thing futures are ever failed with). */
    static std::exception_ptr wrapCurrentException();

  private:
    Status status_;
};

/**
 * Cooperative cancellation + deadline + liveness for one worker.
 *
 * The owning worker calls rearm() with the earliest hard deadline of
 * the batch it is about to run, then passes the control into the
 * engine; the engine calls poll() between checkpoint blocks and aborts
 * with StatusError{Timeout|Cancelled} when the control fires, so a
 * cancelled request frees its worker at block granularity instead of
 * wedging it for the rest of the stream.  Any other thread (the
 * watchdog) may call requestCancel() at any time.
 *
 * poll() increments beats(): a monotonic progress counter the watchdog
 * samples to tell "slow but advancing" from "stuck" — deliberately, an
 * injected hang does NOT beat (it only watches cancelRequested()), so
 * the watchdog sees it as stuck and kicks it.
 */
class RunControl
{
  public:
    /** No deadline. */
    static constexpr std::chrono::steady_clock::time_point kNoDeadline =
        std::chrono::steady_clock::time_point::max();

    /** Owner only, between runs: clear the cancel flag and set the
     *  deadline of the next run.  beats() keeps counting monotonically. */
    void rearm(std::chrono::steady_clock::time_point deadline = kNoDeadline)
    {
        deadline_ = deadline;
        cancel_.store(false, std::memory_order_release);
    }

    /** Any thread: ask the current run to stop at its next checkpoint. */
    void requestCancel() { cancel_.store(true, std::memory_order_release); }

    /** True once requestCancel() was called for the current run.
     *  Does not beat — safe inside stall-detection windows. */
    bool cancelRequested() const
    {
        return cancel_.load(std::memory_order_acquire);
    }

    /** True once the armed deadline has passed.  Does not beat. */
    bool expired() const
    {
        return deadline_ != kNoDeadline &&
               std::chrono::steady_clock::now() > deadline_;
    }

    /** Monotonic checkpoint-progress counter (never reset). */
    std::uint64_t beats() const
    {
        return beats_.load(std::memory_order_relaxed);
    }

    /**
     * The engine-side check, called between checkpoint blocks: records
     * one beat and reports why the run must stop (Ok = keep going,
     * Cancelled = requestCancel() fired, Timeout = deadline passed).
     */
    StatusCode poll() const
    {
        beats_.fetch_add(1, std::memory_order_relaxed);
        if (cancel_.load(std::memory_order_acquire))
            return StatusCode::Cancelled;
        if (expired())
            return StatusCode::Timeout;
        return StatusCode::Ok;
    }

  private:
    std::atomic<bool> cancel_{false};
    mutable std::atomic<std::uint64_t> beats_{0};
    std::chrono::steady_clock::time_point deadline_ = kNoDeadline;
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_STATUS_H
