/**
 * @file
 * Self-healing guardrails for the ADORE runtime (DESIGN.md §10).
 *
 * The paper's system assumes a well-behaved platform: PMU samples
 * arrive, patches succeed, and prefetches help.  Under the chaos
 * harness (src/fault) none of that holds, so the runtime grows four
 * small recovery state machines, all policy — the AdoreRuntime performs
 * the actual reverts/retiming and feeds observations in:
 *
 *  1. *Staged revert with re-optimization backoff.*  Profitability is
 *     monitored per trace: when the stable phase runs inside the trace
 *     pool and its CPI regressed past the pre-optimization CPI by
 *     revertCpiRatio, the runtime first unpatches only the trace whose
 *     pool range contains the phase's PCcenter (stage 1); if the same
 *     batch regresses again, the remaining batch members go too
 *     (stage 2).  A reverted head is not blacklisted outright — it is
 *     blocked for an exponentially growing number of optimizer polls
 *     (reoptBackoffInitialPolls doubling up to reoptBackoffMaxPolls);
 *     only after reoptMaxReverts reverts does it become permanent.
 *
 *  2. *Sampling-rate backoff.*  When the phase detector thrashes
 *     (>= thrashPhaseChanges phase changes within thrashWindowPolls
 *     polls) the sampling interval is doubled, up to samplingBackoffMax
 *     times the configured rate — noisy sampling is the usual cause,
 *     and a longer interval both steadies the detector and sheds
 *     sampling overhead.  After samplingRestorePolls consecutive calm
 *     polls the interval steps back down.
 *
 *  3. *Prefetch auto-throttle.*  When the memory system drops prefetches
 *     (bus saturated), issuing more only adds pressure.  The drop rate
 *     per poll drives Normal -> Damped (1 load/trace) -> Disabled
 *     (0 loads/trace); throttleRecoverPolls calm polls step back up.
 *
 *  4. *Recoverable resource failures.*  Trace-pool exhaustion and patch
 *     failures are counted and traced but never fatal: the optimizer
 *     skips the trace and retries on a later phase.
 *
 * Determinism: every transition is a pure function of the observation
 * stream, so a fixed fault seed replays the identical guardrail event
 * sequence.  All state machines are inert (and the class is not even
 * constructed) unless GuardrailConfig::enabled is set, keeping the
 * default configuration bit-identical to the pre-guardrail runtime.
 */

#ifndef ADORE_RUNTIME_GUARDRAILS_HH
#define ADORE_RUNTIME_GUARDRAILS_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "isa/insn.hh"
#include "observe/event_trace.hh"
#include "support/stat_fields.hh"

namespace adore
{

struct GuardrailConfig
{
    /** Master switch: everything below is inert when false. */
    bool enabled = false;

    // --- staged revert + re-optimization backoff ---
    /** CPI growth ratio (vs. pre-optimization CPI) that triggers a
     *  staged revert. */
    double revertCpiRatio = 1.05;
    /** Polls a head is blocked after its first revert. */
    std::uint32_t reoptBackoffInitialPolls = 8;
    /** Backoff ceiling (polls); doubling stops here. */
    std::uint32_t reoptBackoffMaxPolls = 128;
    /** Reverts of the same head before it is blacklisted for good. */
    std::uint32_t reoptMaxReverts = 3;

    // --- sampling-rate backoff ---
    /** Sliding window (in polls) over which thrash is measured. */
    std::uint32_t thrashWindowPolls = 8;
    /** Phase changes within the window that count as thrashing. */
    std::uint32_t thrashPhaseChanges = 6;
    /** Max sampling-interval multiplier (power of two). */
    std::uint32_t samplingBackoffMax = 8;
    /** Consecutive calm polls before the interval steps back down. */
    std::uint32_t samplingRestorePolls = 16;

    // --- prefetch auto-throttle ---
    /** Drop rate (dropped / (issued+dropped)) that damps prefetching. */
    double prefetchDampDropRate = 0.25;
    /** Drop rate that disables prefetch generation entirely. */
    double prefetchDisableDropRate = 0.50;
    /** Minimum prefetch events per poll before the rate is trusted. */
    std::uint64_t prefetchMinEvents = 8;
    /** Consecutive calm polls before the throttle steps back up. */
    std::uint32_t throttleRecoverPolls = 8;
};

/** GuardrailStats fields, X(type, member, metric, description, class)
 *  (support/stat_fields.hh); exported as "guardrail.<metric>". */
#define ADORE_GUARDRAIL_STATS(X)                                       \
    X(std::uint64_t, stagedReverts, "staged_reverts",                  \
      "single-trace reverts (stage 1)", Sim)                           \
    X(std::uint64_t, fullReverts, "full_reverts",                      \
      "whole-batch reverts (stage 2)", Sim)                            \
    X(std::uint64_t, reoptBlocked, "reopt_blocked",                    \
      "optimize attempts denied by re-optimization backoff", Sim)      \
    X(std::uint64_t, headsBlacklisted, "heads_blacklisted",            \
      "trace heads permanently blacklisted", Sim)                      \
    X(std::uint64_t, samplingBackoffs, "sampling_backoffs",            \
      "sampling-interval doublings on phase thrash", Sim)              \
    X(std::uint64_t, samplingRestores, "sampling_restores",            \
      "sampling-interval restorations after calm", Sim)                \
    X(std::uint64_t, prefetchDamped, "prefetch_damped",                \
      "prefetch throttle transitions to damped", Sim)                  \
    X(std::uint64_t, prefetchDisabled, "prefetch_disabled",            \
      "prefetch throttle transitions to disabled", Sim)                \
    X(std::uint64_t, prefetchRestored, "prefetch_restored",            \
      "prefetch throttle step-downs after calm", Sim)                  \
    X(std::uint64_t, poolExhaustedRejects, "pool_exhausted_rejects",   \
      "trace commits refused by pool exhaustion", Sim)                 \
    X(std::uint64_t, patchFailures, "patch_failures",                  \
      "patch failures absorbed by the guardrails", Sim)                \
    X(std::uint64_t, watchdogFires, "watchdog_fires",                  \
      "optimizer phases cancelled by the watchdog", Sim)

struct GuardrailStats
{
    ADORE_STAT_FIELDS(GuardrailStats, ADORE_GUARDRAIL_STATS)
};

class Guardrails
{
  public:
    /** Prefetch throttle position. */
    enum class Throttle
    {
        Normal,
        Damped,
        Disabled,
    };

    explicit Guardrails(const GuardrailConfig &config);

    void setEventTrace(observe::EventTrace *events) { events_ = events; }

    /** Start-of-poll bookkeeping (advances the poll clock). */
    void beginPoll();

    /**
     * End-of-poll: advance the thrash window, the sampling-restore and
     * throttle-recovery counters.  Call after feeding the poll's
     * observations (notePhaseChange / noteMemPressure).
     */
    void endPoll();

    /** The phase detector reported a phase change this poll. */
    void notePhaseChange();

    /**
     * Software prefetch (lfetch) issue/drop deltas observed since the
     * previous poll.  An lfetch is dropped by the same bus-backlog test
     * the hardware zoo's engines face, so its drop rate already measures
     * the shared bus.  Hardware drops are not counted: the throttle only
     * relieves software pressure, and hardware pressure alone would pin
     * it at Disabled.
     */
    void noteMemPressure(std::uint64_t issued_delta,
                         std::uint64_t dropped_delta);

    /** A trace head was reverted: schedule backoff or blacklist. */
    void noteTraceReverted(Addr head);

    /** Stage-1 revert executed: a single trace was unpatched. */
    void noteStagedRevert(Addr head);

    /** Stage-2 revert executed: @p traces batch members unpatched. */
    void noteFullRevert(Addr head, std::uint64_t traces);

    /** Trace-pool allocation was refused for @p head's trace. */
    void notePoolExhausted(Addr head);

    /** A live patch failed for @p head's trace. */
    void notePatchFailed(Addr head);

    /**
     * The watchdog cancelled a stalled phase optimization around
     * @p head (phase PCcenter; 0 when unknown) after @p stall_cycles.
     * Beyond counting, the throttle steps down one notch: a stalled
     * optimizer is a sign it is overloaded, so the next phases
     * are optimized more conservatively until calm polls recover it.
     */
    void noteWatchdogFire(Addr head, std::uint64_t stall_cycles);

    /** May the optimizer (re-)optimize @p head this poll? */
    bool allowOptimize(Addr head);

    /** Current sampling-interval multiplier (1 = configured rate). */
    std::uint32_t samplingMultiplier() const { return samplingMult_; }

    /** Throttled prefetch-loads-per-trace cap. */
    int prefetchLoadCap(int configured) const;

    Throttle throttle() const { return throttle_; }

    const GuardrailStats &stats() const { return stats_; }
    const GuardrailConfig &config() const { return config_; }
    std::uint64_t pollIndex() const { return pollIndex_; }

  private:
    void emit(const char *action, std::uint64_t addr, std::uint64_t value);

    GuardrailConfig config_;
    GuardrailStats stats_;
    observe::EventTrace *events_ = nullptr;  ///< not owned; may be null

    std::uint64_t pollIndex_ = 0;

    // Re-optimization backoff.
    std::unordered_map<Addr, std::uint64_t> blockedUntil_;  ///< poll index
    std::unordered_map<Addr, std::uint32_t> revertCount_;
    std::unordered_set<Addr> permanentBlacklist_;

    // Sampling backoff.
    std::vector<std::uint32_t> thrashWindow_;  ///< ring of per-poll counts
    std::size_t thrashHead_ = 0;
    std::uint32_t phaseChangesThisPoll_ = 0;
    std::uint32_t samplingMult_ = 1;
    std::uint32_t calmPolls_ = 0;

    // Prefetch throttle.
    Throttle throttle_ = Throttle::Normal;
    bool memCalmThisPoll_ = true;
    std::uint32_t throttleCalmPolls_ = 0;
};

/** Stable name for a throttle state ("normal" | "damped" | "disabled"). */
const char *throttleName(Guardrails::Throttle t);

/** Verdict of the after-the-fact CPI-margin gate. */
struct CpiMarginVerdict
{
    bool applicable = false;  ///< the baseline CPI was measurable
    bool ok = true;
    double ratio = 0.0;       ///< guarded / baseline (0 when n/a)
};

/**
 * The invariant the guardrails exist to uphold, evaluated post-run: a
 * guardrailed run's CPI must stay within @p margin times the
 * unoptimized baseline's.  Shared by the chaos soak (harness/chaos.cc)
 * and the fuzz harness (harness/fuzz.cc) so both gates agree on the
 * edge cases — an unmeasurable baseline (no retired instructions)
 * makes the check inapplicable rather than vacuously passing.
 */
CpiMarginVerdict checkCpiMargin(double baseline_cpi, double guarded_cpi,
                                double margin);

} // namespace adore

#endif // ADORE_RUNTIME_GUARDRAILS_HH
