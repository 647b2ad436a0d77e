/**
 * @file
 * The adored serving daemon's core (DESIGN.md §15): a sharded job queue
 * over the ThreadPool, engineered failure-first.
 *
 * Lifecycle of a job:
 *
 *   submit ─▶ [admission control] ─▶ Queued ─▶ Running ─▶ Done
 *                    │                  ▲          │
 *                    ▼                  │ backoff  ├─▶ (retry) ─▶ Queued
 *               rejected                └──────────┤
 *            (queue_full +                         └─▶ DeadLetter
 *             retry_after_ms)                        (after maxAttempts)
 *
 * Failure handling, by layer:
 *
 *  - crash isolation: each attempt runs under try/catch; an exception
 *    (a throwing workload, an injected worker abort, a harness bug)
 *    poisons only its own job and becomes a machine-readable
 *    FailureRecord — workers and batch-mates are untouched;
 *  - deadlines: a monitor thread (the daemon-level layer of the
 *    two-layer watchdog; the simulated AdoreRuntime watchdog is the
 *    other) scans running attempts and raises the job's cooperative
 *    cancel flag when the host deadline passes; the run stops at the
 *    next cancel-check hook and the attempt records `timeout_host`;
 *  - retries: failed attempts requeue with exponential backoff + a
 *    deterministic per-(job, attempt) jitter, dead-lettering after
 *    maxAttempts with the full attempt history attached;
 *  - caching: results are served from a checksum-verified LRU keyed by
 *    a 128-bit content hash of the job's inputs — a corrupted entry is
 *    detected, evicted, and recomputed, never served;
 *  - admission: queued + running jobs are bounded; beyond the limit
 *    submit() rejects with `queue_full` and a retry-after hint instead
 *    of queuing unboundedly;
 *  - drain: drain() stops admission and completes every admitted job
 *    before stopping workers; shutdownNow() additionally dead-letters
 *    the still-queued jobs (`cancelled_shutdown`) and cancels running
 *    ones.  Either way no job is ever silently lost: every submitted
 *    job reaches Done or DeadLetter with a recorded reason.
 *
 * Determinism: simulation results are bit-identical to a one-shot
 * Experiment::run through the same buildRunConfig().  The injected
 * service faults (fault::ServiceFaultPlan) are stateless hashes of
 * (seed, job key, attempt), so which attempts abort/stall/corrupt is
 * reproducible across runs even though thread scheduling is not.
 */

#ifndef ADORE_SERVE_DAEMON_HH
#define ADORE_SERVE_DAEMON_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "compiler/hir.hh"
#include "fault/fault_plan.hh"
#include "observe/metrics_registry.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "support/thread_pool.hh"

namespace adore::serve
{

struct DaemonConfig
{
    /** Queue shards; jobs land on shard (id % shards). */
    unsigned shards = 4;
    /** Worker lanes; 0 = ThreadPool::defaultThreadCount(). */
    unsigned workers = 0;
    /** Max queued + running jobs before submit() load-sheds. */
    std::size_t admissionLimit = 256;
    /** Result-cache capacity in entries (0 disables caching). */
    std::size_t cacheCapacity = 512;
    /** Default attempt budget per job (requests may lower/raise it). */
    std::uint32_t maxAttempts = 3;
    /** Retry backoff: base * 2^(attempt-1) + jitter, capped. */
    std::uint64_t backoffBaseMs = 5;
    std::uint64_t backoffCapMs = 250;
    /** Default per-attempt host deadline. */
    std::uint64_t defaultDeadlineMs = 60'000;
    /** Monitor-thread scan period. */
    std::uint64_t monitorPeriodMs = 5;
    /** Default simulated-cycle budget for jobs that don't set one. */
    std::uint64_t defaultMaxCycles = 8'000'000;
    /** Cancel-hook period — part of the bit-identity contract. */
    std::uint64_t cancelCheckPeriod = 65'536;
    /** Injected service faults (all-zero = none). */
    fault::ServiceFaultConfig faults{};
    /** When nonempty, drain() writes the final Prometheus metrics
     *  snapshot here. */
    std::string metricsFlushPath;
};

enum class JobState : std::uint8_t
{
    Queued,
    Running,
    Done,
    DeadLetter
};

const char *jobStateName(JobState state);

/** One failed attempt, machine-readable.  `code` is closed-vocabulary:
 *  worker_exception | injected_worker_abort | invariant_violation |
 *  timeout_host | cancelled_shutdown | invalid_request. */
struct FailureRecord
{
    std::uint32_t attempt = 0;
    std::string code;
    std::string detail;
};

/** Externally visible snapshot of one job. */
struct JobStatus
{
    std::uint64_t id = 0;
    JobState state = JobState::Queued;
    std::uint32_t attempts = 0;       ///< attempts started so far
    std::uint32_t stallsInjected = 0;
    bool cacheHit = false;
    std::string cacheKey;             ///< 128-bit key, hex
    std::string resultJson;           ///< set when Done
    std::vector<FailureRecord> failures;
};

class Daemon
{
  public:
    explicit Daemon(const DaemonConfig &config);
    /** Equivalent to shutdownNow() when not already drained. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    struct SubmitResult
    {
        bool ok = false;
        std::uint64_t id = 0;
        std::string cacheKey;
        std::string error;            ///< queue_full | draining | invalid_request
        std::string detail;
        std::uint64_t retryAfterMs = 0;  ///< set with error=queue_full
    };

    /**
     * Validate, admit, and enqueue @p req.  Rejections are structured:
     * `invalid_request` (unknown workload / malformed kernel — detail
     * says why), `queue_full` (load shed; retry after retryAfterMs), or
     * `draining` (shutdown in progress).
     */
    SubmitResult submit(const JobRequest &req);

    std::optional<JobStatus> status(std::uint64_t id) const;

    /** Block until job @p id is terminal (Done/DeadLetter) or
     *  @p timeoutMs passes.  @return true when terminal. */
    bool wait(std::uint64_t id, std::uint64_t timeoutMs);

    /** Block until every admitted job is terminal. */
    void waitIdle();

    std::vector<JobStatus> deadLetters() const;

    /** serve.* metrics snapshot (jobs, queue, cache, faults). */
    observe::MetricsRegistry metrics() const;
    /** metrics() in Prometheus text exposition format. */
    std::string metricsPrometheus() const;

    /**
     * Graceful drain: stop admitting, run every already-admitted job to
     * a terminal state, stop workers and the monitor, flush the final
     * metrics snapshot to DaemonConfig::metricsFlushPath.  Idempotent.
     */
    void drain();

    /**
     * Fast shutdown: stop admitting, dead-letter every still-queued job
     * (`cancelled_shutdown`), cancel running attempts, then drain the
     * machinery.  Every job is still accounted for.  Idempotent.
     */
    void shutdownNow();

    bool draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    const DaemonConfig &config() const { return config_; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Job
    {
        std::uint64_t id = 0;
        JobRequest req;      ///< kernel text released when terminal
        hir::Program prog;   ///< released when terminal
        CacheKey key;
        std::uint64_t resolvedMaxCycles = 0;
        std::uint32_t maxAttempts = 0;
        std::uint64_t deadlineMs = 0;

        JobState state = JobState::Queued;
        std::uint32_t attempt = 0;       ///< attempts started
        std::uint32_t stallOccurrence = 0;
        bool cacheHit = false;
        std::string resultJson;
        std::vector<FailureRecord> failures;

        Clock::time_point notBefore{};   ///< backoff eligibility
        Clock::time_point deadline{};    ///< current attempt's deadline
        std::atomic<bool> cancel{false};
        /** Why the monitor/shutdown raised cancel (distinguishes
         *  timeout_host from cancelled_shutdown in the record). */
        std::atomic<bool> timedOut{false};
    };

    void workerLoop();
    void monitorLoop();
    /** Pop the next runnable job across shards, or nullptr. */
    Job *popEligibleLocked(Clock::time_point now);
    /** Run one attempt of @p job (no queue lock held). */
    void runAttempt(Job &job);
    void finishAttempt(Job &job, bool ok, FailureRecord failure);
    void requeueLocked(Job &job);
    /** Free what a terminal @p job no longer needs: its program and
     *  inline kernel text.  Status, failures and result stay. */
    void releaseLocked(Job &job);
    JobStatus snapshotLocked(const Job &job) const;
    std::uint64_t backoffMs(const Job &job) const;
    bool allTerminalLocked() const;
    void stopMachinery();

    DaemonConfig config_;
    ResultCache cache_;
    std::optional<fault::ServiceFaultPlan> faults_;
    ThreadPool pool_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_;   ///< workers: work may be ready
    std::condition_variable doneCv_;   ///< waiters: a job went terminal
    std::vector<std::deque<Job *>> shards_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Job>> jobs_;
    std::vector<Job *> running_;
    std::uint64_t nextId_ = 1;
    std::size_t queuedCount_ = 0;
    bool stopWorkers_ = false;
    /** Set by shutdownNow(): failed attempts dead-letter instead of
     *  retrying (guarded by mutex_). */
    bool shuttingDown_ = false;

    std::thread monitor_;
    std::atomic<bool> stopMonitor_{false};
    std::atomic<bool> draining_{false};
    bool machineryStopped_ = false;
    std::mutex lifecycleMutex_;  ///< serializes drain()/shutdownNow()

    // serve.* counters (relaxed: volume gauges, not ordering points).
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> rejectedFull_{0};
    std::atomic<std::uint64_t> rejectedInvalid_{0};
    std::atomic<std::uint64_t> rejectedDraining_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> deadLettered_{0};
    std::atomic<std::uint64_t> retries_{0};
    std::atomic<std::uint64_t> timeouts_{0};
    std::atomic<std::uint64_t> cancelled_{0};
    std::atomic<std::uint64_t> stallRequeues_{0};
    std::atomic<std::uint64_t> drains_{0};
};

} // namespace adore::serve

#endif // ADORE_SERVE_DAEMON_HH
