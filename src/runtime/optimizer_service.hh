/**
 * @file
 * Concurrent optimizer service: runs the ADORE optimizer (phase
 * detection -> trace selection -> slicing -> prefetch generation ->
 * commit) on a real worker thread behind bounded SPSC queues
 * (DESIGN.md §11).
 *
 * The paper's optimizer is a second thread that shares the process with
 * the mutator; this service reproduces that shape with three explicit
 * contracts:
 *
 *  1. *Bounded sample queue with backpressure accounting.*  SSB
 *     overflow batches flow main -> worker through a BoundedSpscQueue.
 *     When the worker is behind, tryPush fails, the Sampler counts a
 *     consumer-behind drop (pmu.dropped_consumer_behind, distinct from
 *     the injected-fault drops), the service counts it too
 *     (optimizer.queue_dropped), and the worker emits an
 *     OptimizerQueueEvent when it next runs.
 *
 *  2. *Quiesce-safe patching.*  The interpreter executes raw Bundle
 *     pointers, so code mutation from another thread is never safe.
 *     In free-running mode the worker only *plans* commits and reverts;
 *     the main thread applies them at its poll hook — a natural safe
 *     point between interpreted bundles — under patchMutex_, and the
 *     worker reads code (trace selection) only under the same mutex.
 *     CodeImage::patchEpoch() is the seqlock sequence word: each plan
 *     carries the epoch it was derived from, and an apply whose
 *     per-head validation fails is acked as Stale rather than patched.
 *
 *  3. *Watchdog.*  Two layers: a deterministic virtual-time layer (an
 *     injected FaultPlan::optimizerStall() beyond
 *     AdoreConfig::watchdogDeadlineCycles cancels the phase, in every
 *     mode), and a host-time layer for free-running mode (the main
 *     thread's poll observes a phase running longer than
 *     watchdogDeadlineNs and requests cancellation; the worker checks
 *     between traces and between load classifications).  Both degrade
 *     through Guardrails::noteWatchdogFire, stepping the prefetch
 *     throttle down.
 *
 * Modes (AdoreConfig::mode; the default, Synchronous, runs no service):
 *  - AsyncBarrier: the worker runs the *unchanged* poll body while the
 *    main thread blocks at the poll hook.  The mutex/condvar handshake
 *    orders every access in both directions, so the execution is
 *    bit-identical to Synchronous (tests/test_toggle_sweep.cc proves it
 *    across the workload registry) and race-free under TSan.  It is the
 *    deterministic oracle for the worker and queue code FreeRunning
 *    runs; the per-poll handshake costs host time, so it is not the
 *    harness default.
 *  - FreeRunning: the worker runs concurrently with the interpreter,
 *    fed by sample batches and per-poll TickMsgs; commits/reverts are
 *    applied by main as described above.  Not bit-identical (commit
 *    timing shifts by up to one poll) — this is the stress/soak mode.
 */

#ifndef ADORE_RUNTIME_OPTIMIZER_SERVICE_HH
#define ADORE_RUNTIME_OPTIMIZER_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "fault/fault_plan.hh"
#include "pmu/sampler.hh"
#include "runtime/spsc_queue.hh"
#include "runtime/trace.hh"
#include "support/stat_fields.hh"

namespace adore
{

class AdoreRuntime;

/** One poll's worth of main-thread observations (main -> worker). */
struct TickMsg
{
    Cycle now = 0;
    std::uint64_t prefetchIssuedDelta = 0;
    std::uint64_t prefetchDroppedDelta = 0;
    /** Hardware-prefetcher issue/drop deltas, snapshotted on the main
     *  thread (the engine is main-owned) for the guardrail arbitration. */
    std::uint64_t hwIssuedDelta = 0;
    std::uint64_t hwDroppedDelta = 0;
    /** Snapshot of the *main-owned* fault channels (PMU + memory);
     *  the worker-owned channels are zero here and merged live. */
    bool haveFaults = false;
    fault::FaultStats mainFaults{};
};

/** One planned trace commit (worker -> main). */
struct CommitPlanItem
{
    Trace trace;
    std::vector<Bundle> initBundles;
};

struct CommitRequest
{
    std::uint64_t token = 0;
    double cpiBefore = 0.0;
    std::uint64_t epoch = 0;  ///< CodeImage::patchEpoch at plan time
    std::vector<CommitPlanItem> items;
};

enum class CommitOutcome
{
    Patched,
    PoolFull,
    Stale,  ///< per-head validation failed at apply time
};

struct CommitAckItem
{
    Addr head = 0;
    Addr base = 0;
    std::uint32_t bodyBundles = 0;
    std::uint32_t initBundles = 0;
    std::size_t totalBundles = 0;
    CommitOutcome outcome = CommitOutcome::Stale;
};

struct CommitAck
{
    std::uint64_t token = 0;
    double cpiBefore = 0.0;
    std::vector<CommitAckItem> items;
};

/** Why a set of heads is being unpatched (ack bookkeeping differs). */
enum class UnpatchKind
{
    Staged,  ///< guardrail stage-1 single-trace revert
    Full,    ///< guardrail stage-2 whole-batch revert
};

struct UnpatchRequest
{
    std::uint64_t token = 0;
    std::size_t batchIndex = 0;
    UnpatchKind kind = UnpatchKind::Staged;
    std::vector<Addr> heads;
};

struct UnpatchAck
{
    std::uint64_t token = 0;
    std::size_t batchIndex = 0;
    UnpatchKind kind = UnpatchKind::Staged;
    std::vector<Addr> heads;
    std::vector<bool> done;  ///< head i was patched and got unpatched
};

/** OptimizerServiceStats fields, X(type, member, metric, description,
 *  class) (support/stat_fields.hh); exported as "optimizer.<metric>".
 *  All Host: they count the worker's queues and handshakes, which
 *  Synchronous mode does not have. */
#define ADORE_OPTIMIZER_SERVICE_STATS(X)                               \
    X(std::uint64_t, batchesEnqueued, "queue_enqueued",                \
      "sample batches accepted by the bounded queue", Host)            \
    X(std::uint64_t, batchesDropped, "queue_dropped",                  \
      "sample batches refused: bounded queue full", Host)              \
    X(std::uint64_t, ticksDropped, "ticks_dropped",                    \
      "poll ticks dropped (deltas carried to the next tick)", Host)    \
    X(std::uint64_t, requestsDropped, "requests_dropped",              \
      "commit/unpatch requests refused: queue full", Host)             \
    X(std::uint64_t, acksLost, nullptr,                                \
      "acks refused: ack queue full (never expected)", Host)           \
    X(std::uint64_t, ticksProcessed, "ticks_processed",                \
      "free-running poll ticks processed by the worker", Host)         \
    X(std::uint64_t, barrierPolls, "barrier_polls",                    \
      "barrier-mode polls executed by the worker", Host)               \
    X(std::uint64_t, commitsApplied, "commits_applied",                \
      "planned trace commits applied at safe points", Host)            \
    X(std::uint64_t, commitsStale, "commits_stale",                    \
      "planned trace commits refused stale at apply", Host)            \
    X(std::uint64_t, epochStaleRequests, nullptr,                      \
      "requests refused: plan epoch differs from apply epoch", Host)   \
    X(std::uint64_t, watchdogHostCancels, "watchdog_host_cancels",     \
      "host-time watchdog cancellations requested", Host)

/**
 * Backpressure and apply accounting (the `optimizer.*` metrics).
 * Counters are split by owning thread; read the snapshot only after
 * shutdown() (the join provides the happens-before), except the
 * atomics, which may be read at any time.
 */
struct OptimizerServiceStats
{
    ADORE_STAT_FIELDS(OptimizerServiceStats, ADORE_OPTIMIZER_SERVICE_STATS)
};

class OptimizerService
{
  public:
    explicit OptimizerService(AdoreRuntime &rt);
    ~OptimizerService();

    OptimizerService(const OptimizerService &) = delete;
    OptimizerService &operator=(const OptimizerService &) = delete;

    /** Spawn the worker thread (call once, after attach wiring). */
    void start();

    /**
     * Stop and join the worker, then drain the leftover queues on the
     * calling thread (single-threaded by then): pending acks are
     * applied so stats stay consistent; pending requests and sample
     * batches are discarded and counted.  Idempotent.
     */
    void shutdown();

    bool running() const { return running_; }

    // --- main-thread producer side --------------------------------
    /** Sampler overflow handler: false = queue full (consumer behind). */
    bool enqueueBatch(const std::vector<Sample> &ssb);

    /** The periodic poll hook body for both async modes. */
    void poll(Cycle now);

    // --- worker-side helpers (called from AdoreRuntime code that
    // --- executes on the worker thread) ---------------------------
    /** Worker's view: is @p head patched or about to be? */
    bool shadowPatched(Addr head) const;

    /** Worker's view: patched and no unpatch in flight. */
    bool shadowRevertible(Addr head) const;

    /** Queue a commit plan for main to apply at its next safe point. */
    void requestCommit(double cpi_before,
                       std::vector<CommitPlanItem> items);

    /** Queue an unpatch for main to apply at its next safe point. */
    void requestUnpatch(std::size_t batch_index, std::vector<Addr> heads,
                        UnpatchKind kind);

    /** Phase-detector doubleWindow deferred to main (sampler owner). */
    void requestDoubleWindow();

    /** Guardrail sampling-interval retiming deferred to main. */
    void publishSamplingInterval(Cycle interval);

    /** Mark the start/end of one optimizePhase (host watchdog scope). */
    void beginPhase();
    void endPhase();

    /** Has the host watchdog cancelled the phase begun by beginPhase? */
    bool cancelled() const;

    /** Lock guarding all CodeImage access shared with the worker. */
    std::unique_lock<std::mutex> lockPatches();

    bool freeRunning() const;

    /** Stats snapshot; fully consistent only after shutdown(). */
    OptimizerServiceStats statsSnapshot() const;

    std::size_t sampleQueueCapacity() const
    {
        return sampleQueue_.capacity();
    }

  private:
    void run();  ///< worker thread body
    void runBarrier(std::unique_lock<std::mutex> &lk);
    void runFree(std::unique_lock<std::mutex> &lk);

    /** Drain queued sample batches into the UEB (worker side). */
    void drainSamples();
    /** Emit an OptimizerQueueEvent if the drop counter advanced. */
    void noteQueueDrops();
    void processTick(const TickMsg &tick);
    void drainAcks();
    void applyCommitAck(const CommitAck &ack);
    void applyUnpatchAck(const UnpatchAck &ack);

    /** Main side: apply pending commit/unpatch requests (safe point). */
    void applyRequests();
    void applySamplerMailbox();
    void watchdogPoll();

    static std::uint64_t monotonicNs();

    AdoreRuntime &rt_;

    BoundedSpscQueue<std::vector<Sample>> sampleQueue_;
    BoundedSpscQueue<TickMsg> tickQueue_;
    BoundedSpscQueue<CommitRequest> commitReqQueue_;
    BoundedSpscQueue<CommitAck> commitAckQueue_;
    BoundedSpscQueue<UnpatchRequest> unpatchReqQueue_;
    BoundedSpscQueue<UnpatchAck> unpatchAckQueue_;

    /** Serializes CodeImage access between worker reads (trace
     *  selection) and main-thread patch application. */
    std::mutex patchMutex_;

    // Wakeup/handshake state (guarded by wakeMutex_).
    std::mutex wakeMutex_;
    std::condition_variable wakeCv_;  ///< main -> worker
    std::condition_variable doneCv_;  ///< worker -> main (barrier)
    bool stop_ = false;
    bool pollRequested_ = false;
    Cycle pollNow_ = 0;

    std::thread worker_;
    bool running_ = false;

    // Cross-thread counters/mailboxes.
    std::atomic<std::uint64_t> dropCounter_{0};
    std::atomic<std::uint64_t> doubleWindowRequests_{0};
    std::atomic<Cycle> samplingIntervalWanted_{0};
    std::atomic<std::uint64_t> phaseSeq_{0};
    std::atomic<std::uint64_t> phaseStartNs_{0};
    std::atomic<std::uint64_t> cancelSeq_{0};  ///< seq main cancelled
    std::atomic<std::uint64_t> hostCancels_{0};

    // Main-thread-owned bookkeeping.
    std::uint64_t batchesEnqueued_ = 0;
    std::uint64_t ticksDropped_ = 0;
    std::uint64_t acksLost_ = 0;
    std::uint64_t commitsApplied_ = 0;
    std::uint64_t commitsStale_ = 0;
    std::uint64_t epochStale_ = 0;
    std::uint64_t pendingIssuedDelta_ = 0;
    std::uint64_t pendingDroppedDelta_ = 0;
    std::uint64_t lastPrefIssued_ = 0;
    std::uint64_t lastPrefDropped_ = 0;
    std::uint64_t pendingHwIssuedDelta_ = 0;
    std::uint64_t pendingHwDroppedDelta_ = 0;
    std::uint64_t lastHwIssued_ = 0;
    std::uint64_t lastHwDropped_ = 0;
    std::uint64_t appliedDoubleWindows_ = 0;

    // Worker-thread-owned bookkeeping.
    std::uint64_t ticksProcessed_ = 0;
    std::uint64_t barrierPolls_ = 0;
    std::uint64_t requestsDropped_ = 0;
    std::uint64_t tokenCounter_ = 0;
    std::uint64_t lastDropSeen_ = 0;
    std::uint64_t phaseSeqLocal_ = 0;  ///< seq of the phase in progress
    /** Heads the worker believes are patched (updated at acks). */
    std::unordered_set<Addr> shadowPatched_;
    /** Heads with a commit request in flight. */
    std::unordered_set<Addr> commitPending_;
    /** Heads with an unpatch request in flight. */
    std::unordered_set<Addr> unpatchPending_;
};

} // namespace adore

#endif // ADORE_RUNTIME_OPTIMIZER_SERVICE_HH
