/**
 * @file
 * The ADORE runtime controller (paper Section 2.2, Fig. 3).
 *
 * attach() models dyn_open(): it creates the trace pool (lazily, inside
 * the CodeImage), initializes perfmon-style sampling (Sampler -> SSB,
 * overflow handler -> UEB), and registers the dynamic-optimizer poll.
 * The optimizer "thread" runs as a periodic hook every ~100 ms of
 * simulated time; per the paper, its work happens off the main thread's
 * critical path (the second CPU is idle almost always and the same
 * speedup is achieved on one CPU), so only sampling, SSB-copy and
 * patching overheads are charged to the main thread.
 *
 * The poll consumes new profile windows, runs phase detection, and on a
 * stable high-miss-rate phase performs trace selection, delinquent-load
 * analysis, prefetch generation/scheduling, trace commit, and patching.
 * Phases whose PCcenter lies in the trace pool are skipped (already
 * optimized), as are traces containing compiler-generated lfetch (the
 * O3 case) and traces in software-pipelined loops (the rotation-register
 * limitation of Section 4.3).
 */

#ifndef ADORE_RUNTIME_ADORE_HH
#define ADORE_RUNTIME_ADORE_HH

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "cpu/cpu.hh"
#include "fault/fault_plan.hh"
#include "observe/event_trace.hh"
#include "runtime/guardrails.hh"
#include "runtime/phase_detector.hh"
#include "runtime/prefetch_gen.hh"
#include "runtime/trace_selector.hh"
#include "support/stat_fields.hh"

namespace adore
{

struct AdoreConfig
{
    SamplerConfig sampler{};
    std::uint32_t uebMultiplier = 16;  ///< W: UEB = W profile windows
    Cycle pollPeriod = 64'000;         ///< scaled "100 ms" poll
    PhaseDetectorConfig phase{};
    TraceSelectorConfig traceSelect{};
    PrefetchGenConfig prefetchGen{};
    int maxPrefetchLoadsPerTrace = 3;  ///< top-3 rule (Section 3.1)
    /**
     * Minimum size for patching a *non-loop* trace: redirecting into a
     * trivially small straight-line trace costs two extra taken
     * branches per execution for no layout benefit.
     */
    std::size_t minNonLoopTraceBundles = 4;
    /** When false, everything runs except trace commit/patch — the
     *  "w/o prefetch insertion" overhead configuration of Fig. 11. */
    bool insertPrefetches = true;
    /** Main-thread cycles charged per patched trace (brief pause). */
    Cycle patchCyclesPerTrace = 400;
    /**
     * Optional filter: returns true when the given original pc belongs
     * to a software-pipelined loop the optimizer must not touch.
     */
    std::function<bool(Addr)> swpLoopFilter;
    /**
     * Self-healing guardrails (DESIGN.md §10): staged per-trace revert
     * with re-optimization backoff, sampling-rate backoff on phase
     * thrash, prefetch auto-throttle, and recoverable resource
     * failures.  Off by default to match the paper's system; the
     * staged revert is the paper's Section 2.3 "detect and fix
     * nonprofitable ones", which their implementation did not do
     * (`adore_report --figure ablation` §3 measures it).
     */
    GuardrailConfig guardrails{};
    /**
     * Fault-injection plan (not owned; may be null).  Wired into the
     * sampler at attach(); the memory-system channels are wired by the
     * harness, which owns the hierarchy.
     */
    fault::FaultPlan *faultPlan = nullptr;
    /**
     * Trace-pool capacity in bundles (0 = unlimited).  When bounded,
     * commitTrace treats exhaustion as a recoverable reject: the trace
     * is skipped, a stat and event are recorded, and the run continues.
     */
    std::size_t tracePoolCapacityBundles = 0;
    /**
     * Decision-event sink (not owned; may be null).  When null and
     * verbose logging is on, the runtime creates a private echo-only
     * trace so the decision lines still reach the log.
     */
    observe::EventTrace *events = nullptr;
    /**
     * Deterministic watchdog deadline in virtual cycles: an injected
     * optimizer stall (FaultConfig::optimizerStallRate) longer than
     * this cancels the phase optimization and degrades via the
     * guardrail throttle.
     */
    Cycle watchdogDeadlineCycles = 150'000;
};

/** AdoreStats fields, X(type, member, metric, description, class)
 *  (support/stat_fields.hh); exported as "adore.<metric>". */
#define ADORE_ADORE_STATS(X)                                           \
    X(std::uint64_t, windowsProcessed, "windows_processed",            \
      "profile windows consumed by the optimizer", Sim)                \
    X(std::uint64_t, windowDoublings, "window_doublings",              \
      "sampling-window doublings (unstable behaviour)", Sim)           \
    X(std::uint64_t, phasesDetected, "phases_detected",                \
      "stable phases detected", Sim)                                   \
    X(std::uint64_t, phaseChanges, "phase_changes", "phase changes", Sim) \
    X(std::uint64_t, phasesSkippedLowMiss, "phases_skipped_low_miss",  \
      "stable phases skipped: miss rate below threshold", Sim)         \
    X(std::uint64_t, phasesSkippedInPool, "phases_skipped_in_pool",    \
      "stable phases skipped: already running from the pool", Sim)     \
    X(std::uint64_t, phasesOptimized, "phases_optimized",              \
      "phases with at least one trace patched", Sim)                   \
    X(std::uint64_t, phasesPrefetched, "phases_prefetched",            \
      "phases with at least one prefetch inserted", Sim)               \
    X(std::uint64_t, tracesSelected, "traces_selected",                \
      "traces grown from the BTB path profile", Sim)                   \
    X(std::uint64_t, loopTraces, "loop_traces",                        \
      "selected traces ending in a backedge", Sim)                     \
    X(std::uint64_t, tracesPatched, "traces_patched",                  \
      "traces committed to the pool and patched", Sim)                 \
    X(std::uint64_t, tracesSkippedLfetch, "traces_skipped_lfetch",     \
      "traces skipped: compiler lfetch already covers them", Sim)      \
    X(std::uint64_t, tracesSkippedSwp, "traces_skipped_swp",           \
      "traces skipped: software-pipelined loop", Sim)                  \
    X(std::uint64_t, tracesSkippedPatched, "traces_skipped_patched",   \
      "traces skipped: head already patched", Sim)                     \
    X(int, directPrefetches, "prefetches_direct",                      \
      "direct-pattern prefetches inserted", Sim)                       \
    X(int, indirectPrefetches, "prefetches_indirect",                  \
      "indirect-pattern prefetches inserted", Sim)                     \
    X(int, pointerPrefetches, "prefetches_pointer",                    \
      "pointer-chasing prefetches inserted", Sim)                      \
    X(int, loadsSkippedNoRegs, "loads_skipped_no_regs",                \
      "delinquent loads dropped: reserved registers exhausted", Sim)   \
    X(int, loadsSkippedUnknown, "loads_skipped_unknown",               \
      "delinquent loads dropped: unknown reference pattern", Sim)      \
    X(int, bundlesInserted, "bundles_inserted",                        \
      "new body bundles inserted for prefetch code", Sim)              \
    X(int, slotsFilled, "slots_filled",                                \
      "prefetch instructions placed in free slots", Sim)               \
    X(std::uint64_t, phasesReverted, "phases_reverted",                \
      "optimization batches reverted as nonprofitable", Sim)           \
    X(std::uint64_t, tracesUnpatched, "traces_unpatched",              \
      "traces unpatched by reverts", Sim)                              \
    X(std::uint64_t, tracesRejectedPoolFull, "traces_rejected_pool_full", \
      "trace commits rejected: trace pool exhausted", Sim)             \
    X(std::uint64_t, tracesPatchFailed, "traces_patch_failed",         \
      "trace commits rejected: injected patch failure", Sim)           \
    X(std::uint64_t, phasesWatchdogCancelled, "phases_watchdog_cancelled", \
      "phase optimizations cancelled by the watchdog", Sim)            \
    X(std::uint64_t, regionGenBumps, "region_gen_bumps",               \
      "region generations bumped by runtime pool writes and patches", Sim)

/** The runtime's decision counters.  regionGenBumps measures how much
 *  region-keyed superblock and decoded-bundle state the runtime's
 *  mutations could have invalidated. */
struct AdoreStats
{
    ADORE_STAT_FIELDS(AdoreStats, ADORE_ADORE_STATS)
};

class AdoreRuntime
{
  public:
    AdoreRuntime(Cpu &cpu, const AdoreConfig &config);

    /** dyn_open(): start sampling and install the optimizer poll. */
    void attach();

    /** dyn_close(): stop sampling (stats remain readable). */
    void detach();

    const AdoreStats &stats() const { return stats_; }
    const AdoreConfig &config() const { return config_; }
    Sampler &sampler() { return sampler_; }
    UserEventBuffer &ueb() { return ueb_; }
    PhaseDetector &phaseDetector() { return phaseDetector_; }
    observe::EventTrace *events() const { return events_; }

    /** Guardrail state machines (null unless enabled in the config). */
    const Guardrails *guardrails() const { return guardrails_.get(); }

    /** Optimization batches committed so far (including reverted). */
    std::size_t batchCount() const { return batches_.size(); }

    /** Heads of batch @p index that are still patched. */
    std::vector<Addr> patchedHeadsOf(std::size_t index) const;

    /**
     * Revert a single optimized trace by its original head address —
     * any trace of any batch, not just the most recent.  Unpatches the
     * head, blacklists it, counts tracesUnpatched, and completes the
     * owning batch (phasesReverted) when its last head goes.
     * @return false when @p head is unknown or already unpatched.
     */
    bool revertTrace(Addr head);

    /**
     * Revert every still-patched trace of batch @p index (any batch,
     * not just the most recent).  @return false when @p index is out of
     * range or the batch was already reverted.
     */
    bool revertBatchAt(std::size_t index);

  private:
    void onPoll(Cycle now);

    /** The window-consumption loop of one poll (phase detection and
     *  the optimize/skip/revert decisions). */
    void consumeWindows(Cycle now);

    void optimizePhase();

    /** Aggregate DEAR samples into per-pc delinquent-load records. */
    struct DearAgg
    {
        std::uint64_t totalLatency = 0;
        std::uint64_t count = 0;
    };
    std::unordered_map<Addr, DearAgg>
    aggregateDear(const std::vector<Sample> &samples) const;

    /**
     * Commit an optimized trace to the pool: allocate pool space, write
     * the init/body/exit bundles (backedge retarget, branch elision),
     * and patch the head.  @return the trace's pool address, or badAddr
     * when the patch failed or the pool is exhausted.
     */
    Addr commitTrace(const Trace &trace,
                     const std::vector<Bundle> &init_bundles);

    /** One committed trace of a batch, with its pool footprint. */
    struct PatchedTrace
    {
        Addr head = 0;       ///< original-code head (patch site)
        Addr poolStart = 0;  ///< first pool byte of the trace
        Addr poolEnd = 0;    ///< one past the last pool byte
    };

    /** One optimization batch, remembered for profitability checks. */
    struct OptimizedBatch
    {
        double cpiBefore = 0.0;
        std::vector<PatchedTrace> traces;
        bool reverted = false;  ///< no patched head remains
        int revertStage = 0;    ///< guardrail staged-revert progress
    };

    /**
     * Unpatch one head of @p batch (stats + event + charge); marks the
     * batch reverted when its last head goes.  @p blacklist routes the
     * head to the permanent blacklist (external reverts) instead of the
     * guardrails' backoff.  @return false when not patched.
     */
    bool unpatchHead(OptimizedBatch &batch, Addr head, bool blacklist);

    /** Guardrail staged revert for an in-pool phase that regressed. */
    void guardrailProfitabilityCheck(const PhaseInfo &phase);

    /** End-of-poll guardrail feeding: feed the sw/hw prefetch
     *  issue/drop deltas, advance the state machines, retime the
     *  sampler. */
    void endPollGuardrails();

    /** Emit per-channel FaultInjectedEvents for this poll's deltas. */
    void emitFaultDeltas();

    Cpu &cpu_;
    AdoreConfig config_;
    Sampler sampler_;
    UserEventBuffer ueb_;
    PhaseDetector phaseDetector_;
    TraceSelector traceSelector_;
    PrefetchGenerator prefetchGen_;
    AdoreStats stats_;
    observe::EventTrace *events_ = nullptr;
    std::unique_ptr<observe::EventTrace> ownEvents_;
    std::uint64_t windowsConsumed_ = 0;
    bool attached_ = false;
    std::vector<OptimizedBatch> batches_;
    /** Heads of reverted traces: never re-optimized. */
    std::unordered_set<Addr> blacklist_;
    /** Guardrail state machines; null unless enabled. */
    std::unique_ptr<Guardrails> guardrails_;
    Cycle baseSamplingInterval_ = 0;  ///< pre-backoff sampling interval
    std::uint64_t lastPrefetchesIssued_ = 0;
    std::uint64_t lastPrefetchesDropped_ = 0;
    fault::FaultStats lastFaultStats_;  ///< per-poll delta reference
};

} // namespace adore

#endif // ADORE_RUNTIME_ADORE_HH
