/**
 * @file
 * Structured decision tracing for the ADORE runtime (DESIGN.md §9).
 *
 * The runtime's whole value proposition is *why* it made each decision —
 * which phase was detected, which traces were selected, how each
 * delinquent load was classified, which prefetches were scheduled and
 * where.  EventTrace records those decisions as typed events in a
 * fixed-capacity ring buffer:
 *
 *  - it is OFF by default: a disabled trace costs one predictable
 *    null-pointer/flag check on the (already cold) decision paths and
 *    nothing at all on the per-instruction hot path, so simulator
 *    speed is unaffected;
 *  - it can be compiled out entirely with -DADORE_OBSERVE_DISABLED
 *    (CMake option ADORE_DISABLE_EVENT_TRACE), which turns emit() into
 *    an empty inline and enabled() into a constant false;
 *  - the ring buffer has a fixed capacity chosen at construction; when
 *    it wraps, the *oldest* events are overwritten and counted in
 *    dropped() — emission never allocates after construction and never
 *    fails;
 *  - events are timestamped in simulated cycles.  Emitters that own a
 *    clock use emitAt(); emitters called from inside a decision (the
 *    trace selector, the slicer, the prefetch generator) inherit the
 *    cycle the runtime published with setNow(), so all events of one
 *    optimizer poll share its timestamp and the stream stays ordered by
 *    simulated cycle.
 *
 * One EventTrace belongs to one simulation run: Experiment::runMany
 * fans runs out across threads, so a trace must never be shared between
 * concurrently running specs.
 */

#ifndef ADORE_OBSERVE_EVENT_TRACE_HH
#define ADORE_OBSERVE_EVENT_TRACE_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace adore::observe
{

/** One profile window (SSB overflow) consumed by the optimizer poll. */
struct SamplingBatchEvent
{
    std::uint64_t windowIndex = 0;  ///< monotone window sequence number
    std::uint32_t samples = 0;      ///< samples in the window
};

/** The phase detector left a stable phase (or aborted a forming one). */
struct PhaseChangeEvent
{
    std::uint64_t phaseId = 0;  ///< id of the phase that ended
};

/** A new stable phase was detected (paper Section 2.3). */
struct StablePhaseEvent
{
    std::uint64_t phaseId = 0;
    double cpi = 0.0;
    double dpi = 0.0;           ///< D-cache load misses / instruction
    std::uint64_t pcCenter = 0;
    bool highMissRate = false;  ///< dpi above the optimization threshold
};

/** A stable phase the optimizer decided not to optimize. */
struct PhaseSkippedEvent
{
    const char *reason = "";  ///< "in-pool" | "low-miss-rate"
    double cpi = 0.0;
    /** For in-pool skips: CPI of the phase the optimization replaced
     *  (the profitability reference); 0 when unknown. */
    double cpiBefore = 0.0;
};

/** The trace selector grew one trace from the BTB path profile. */
struct TraceSelectedEvent
{
    std::uint64_t startAddr = 0;
    std::uint32_t bundles = 0;
    bool isLoop = false;
    std::uint64_t refCount = 0;  ///< path-profile references to the head
};

/** The dependence slicer classified one load's reference pattern. */
struct SliceClassifiedEvent
{
    int bundle = -1;             ///< trace-relative position of the load
    int slot = -1;
    const char *pattern = "";    ///< refPatternName() string
    std::int64_t strideBytes = 0;
};

/** A delinquent load selected for prefetching (paper Section 3.1). */
struct DelinquentLoadEvent
{
    std::uint64_t pc = 0;        ///< original-code pc of the load
    const char *pattern = "";    ///< refPatternName() string
    std::uint32_t avgLatency = 0;
    std::uint64_t samples = 0;   ///< deduplicated DEAR samples
    std::int64_t strideBytes = 0;
};

/** The prefetch generator scheduled prefetch code for one load. */
struct PrefetchInsertedEvent
{
    const char *kind = "";       ///< "direct" | "indirect" | "pointer-chasing"
    std::uint64_t loadPc = 0;
    std::uint32_t distanceIters = 0;
    int bundle = -1;             ///< body bundle holding the (final) lfetch
    bool filledFreeSlot = false; ///< placed in a nop slot (no new bundle)
};

/** An optimized trace was committed to the pool and patched live. */
struct TracePatchedEvent
{
    std::uint64_t origAddr = 0;
    std::uint64_t poolAddr = 0;
    std::uint32_t bodyBundles = 0;
    std::uint32_t initBundles = 0;
};

/** A nonprofitable optimization batch member was unpatched. */
struct TraceRevertedEvent
{
    std::uint64_t origAddr = 0;
};

/** A self-healing guardrail changed the runtime's behaviour. */
struct GuardrailEvent
{
    /** "staged-revert" | "full-revert" | "reopt-blocked" |
     *  "reopt-blacklist" | "sampling-backoff" | "sampling-restore" |
     *  "prefetch-damped" | "prefetch-disabled" | "prefetch-restored" |
     *  "pool-exhausted" | "patch-failed" | "watchdog-cancel" */
    const char *action = "";
    std::uint64_t addr = 0;   ///< affected trace head / pc (0 = global)
    std::uint64_t value = 0;  ///< action-specific magnitude (see action)
};

/** The fault plan fired one injected fault. */
struct FaultInjectedEvent
{
    /** FaultPlan channel name: "drop-batch" | "dup-batch" |
     *  "dear-alias" | "counter-jitter" | "btb-corrupt" |
     *  "patch-fail" | "optimizer-stall" | "mem-jitter" | "bus-squeeze" */
    const char *channel = "";
    std::uint64_t arg = 0;  ///< channel-specific detail (addr/cycles/...)
};

using EventPayload =
    std::variant<SamplingBatchEvent, PhaseChangeEvent, StablePhaseEvent,
                 PhaseSkippedEvent, TraceSelectedEvent, SliceClassifiedEvent,
                 DelinquentLoadEvent, PrefetchInsertedEvent,
                 TracePatchedEvent, TraceRevertedEvent, GuardrailEvent,
                 FaultInjectedEvent>;

struct Event
{
    std::uint64_t cycle = 0;  ///< simulated cycle of the decision
    EventPayload payload;
};

/** Stable kind name for an event ("StablePhase", "TracePatched", ...). */
const char *eventKindName(const Event &event);

/** One human-readable decision-log line (no trailing newline). */
std::string renderEventLine(const Event &event);

class EventTrace
{
  public:
    explicit EventTrace(std::size_t capacity = 4096);

    /** Turn recording on/off.  Off (the default) makes emit() a no-op. */
    void enable(bool on = true);

    bool
    enabled() const
    {
#ifdef ADORE_OBSERVE_DISABLED
        return false;
#else
        return enabled_;
#endif
    }

    /**
     * When echoing, every recorded event is also printed through
     * inform() as a decision-log line — the single formatting path the
     * runtime's old ad-hoc verbose prints were folded into.  Echo
     * respects the global verbose() switch like every inform().
     */
    void setEcho(bool on) { echo_ = on; }
    bool echo() const { return echo_; }

    /** Publish the current simulated cycle for clock-less emitters. */
    void setNow(std::uint64_t cycle) { now_ = cycle; }
    std::uint64_t now() const { return now_; }

    /** Record @p payload at the published cycle (setNow). */
    void
    emit(EventPayload payload)
    {
        emitAt(now_, std::move(payload));
    }

    /** Record @p payload at an explicit simulated cycle. */
    void
    emitAt(std::uint64_t cycle, EventPayload payload)
    {
#ifdef ADORE_OBSERVE_DISABLED
        (void)cycle;
        (void)payload;
#else
        if (!enabled_)
            return;
        record(cycle, std::move(payload));
#endif
    }

    /** Events currently retained (<= capacity). */
    std::size_t size() const { return retained_; }
    std::size_t capacity() const { return ring_.size(); }

    /** Events ever emitted while enabled (monotone). */
    std::uint64_t totalEmitted() const { return totalEmitted_; }

    /** Oldest events overwritten by ring wraparound. */
    std::uint64_t dropped() const { return overwritten_; }

    /** Retained events, oldest first. */
    std::vector<Event> snapshot() const;

    /** Drop all retained events (counters keep their totals). */
    void clear();

  private:
    void record(std::uint64_t cycle, EventPayload payload);

    std::vector<Event> ring_;
    std::size_t head_ = 0;      ///< next write position
    std::size_t retained_ = 0;
    std::uint64_t totalEmitted_ = 0;
    std::uint64_t overwritten_ = 0;
    std::uint64_t now_ = 0;
    bool enabled_ = false;
    bool echo_ = false;
};

} // namespace adore::observe

#endif // ADORE_OBSERVE_EVENT_TRACE_HH
