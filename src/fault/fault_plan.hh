/**
 * @file
 * Deterministic fault injection for chaos testing (DESIGN.md §10).
 *
 * ADORE patches a live binary from noisy PMU samples, so the runtime
 * must stay safe when sampling is unreliable, phases thrash, or
 * inserted prefetches saturate the bus.  A FaultPlan deliberately
 * manufactures those failures on three paths:
 *
 *  - the PMU path (Sampler): dropped and duplicated sample batches,
 *    DEAR miss-address aliasing, counter jitter, BTB path corruption;
 *  - the patching path (AdoreRuntime): refused patches — trace-pool
 *    exhaustion is configured separately (AdoreConfig) because it is a
 *    real capacity limit, not an injected fault;
 *  - the memory system (CacheHierarchy): per-fill latency jitter and
 *    bus-bandwidth squeeze.
 *
 * Determinism contract: every channel draws from its own xoshiro256**
 * stream seeded from FaultConfig::seed, and every decision is a
 * function of (seed, channel, number of prior decisions on that
 * channel).  Simulations are single-threaded and deterministic, so the
 * same seed replays the identical fault schedule — same metrics, same
 * decision-event stream.  Channels never read each other's streams, so
 * enabling one channel does not shift another's schedule.
 *
 * Zero-cost-when-off contract: nothing holds a FaultPlan unless the
 * run asked for faults; hook sites check one pointer against null.
 * With no plan attached every perturbed path computes exactly what it
 * computed before this subsystem existed (bit-identical metrics).
 */

#ifndef ADORE_FAULT_FAULT_PLAN_HH
#define ADORE_FAULT_FAULT_PLAN_HH

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "support/rng.hh"
#include "support/stat_fields.hh"

namespace adore::fault
{

struct FaultConfig
{
    /** Master seed: same seed ⇒ same fault schedule ⇒ same run. */
    std::uint64_t seed = 0;

    // --- PMU path -----------------------------------------------------
    /** Probability an SSB overflow batch is dropped before the UEB. */
    double dropBatchRate = 0.0;
    /** Probability an SSB overflow batch is delivered twice. */
    double dupBatchRate = 0.0;
    /** Probability a sample's DEAR miss address is aliased. */
    double dearAliasRate = 0.0;
    /** Bytes the aliased miss address may be displaced by (pow2 mask). */
    std::uint64_t dearAliasSpanBytes = 1 << 20;
    /** Probability a sample's PMU counters are jittered. */
    double counterJitterRate = 0.0;
    /** Max per-counter jitter, in per-mille of the sampled value. */
    std::uint32_t counterJitterPerMille = 50;
    /** Probability a sample's BTB path is corrupted (targets swapped). */
    double btbCorruptRate = 0.0;

    // --- patching path ------------------------------------------------
    /** Probability a trace commit/patch fails (rejected, no effect). */
    double patchFailRate = 0.0;

    // --- optimizer ----------------------------------------------------
    /**
     * Probability one phase optimization stalls (the optimizer wedges
     * on a lock, pages, or loops).  A stall longer than the
     * watchdog deadline (AdoreConfig::watchdogDeadlineCycles) cancels
     * the phase and degrades to unoptimized execution.
     */
    double optimizerStallRate = 0.0;
    /** Injected stall length in virtual cycles.  The default exceeds
     *  the default watchdog deadline, so every injected stall fires. */
    std::uint64_t optimizerStallCycles = 400'000;

    // --- memory system ------------------------------------------------
    /** Probability a memory fill pays extra latency. */
    double memJitterRate = 0.0;
    /** Max extra fill latency in cycles (uniform in [1, max]). */
    std::uint32_t memJitterMaxCycles = 96;
    /** Probability a memory fill occupies the bus for extra cycles. */
    double busSqueezeRate = 0.0;
    /** Extra bus occupancy per squeezed fill, in cycles. */
    std::uint32_t busSqueezeCycles = 24;

    /** True when any channel can fire (a plan is worth constructing). */
    bool
    any() const
    {
        return dropBatchRate > 0 || dupBatchRate > 0 ||
               dearAliasRate > 0 || counterJitterRate > 0 ||
               btbCorruptRate > 0 || patchFailRate > 0 ||
               optimizerStallRate > 0 || memJitterRate > 0 ||
               busSqueezeRate > 0;
    }
};

/** FaultStats fields, X(type, member, metric, description, class)
 *  (support/stat_fields.hh); exported as "fault.<metric>". */
#define ADORE_FAULT_STATS(X)                                           \
    X(std::uint64_t, batchesDropped, "batches_dropped",                \
      "SSB overflow batches dropped before the UEB", Sim)              \
    X(std::uint64_t, batchesDuplicated, "batches_duplicated",          \
      "SSB overflow batches delivered twice", Sim)                     \
    X(std::uint64_t, dearAliased, "dear_aliased",                      \
      "DEAR miss addresses aliased", Sim)                              \
    X(std::uint64_t, countersJittered, "counters_jittered",            \
      "samples with jittered PMU counters", Sim)                       \
    X(std::uint64_t, btbCorrupted, "btb_corrupted",                    \
      "samples with corrupted BTB paths", Sim)                         \
    X(std::uint64_t, patchesFailed, "patches_failed",                  \
      "trace commits refused by injected patch failure", Sim)          \
    X(std::uint64_t, optimizerStalls, "optimizer_stalls",              \
      "injected optimizer stalls (watchdog channel)", Sim)             \
    X(std::uint64_t, memFillsJittered, "mem_fills_jittered",           \
      "memory fills with injected extra latency", Sim)                 \
    X(std::uint64_t, busSqueezes, "bus_squeezes",                      \
      "memory fills with injected extra bus occupancy", Sim)

/** Count of injections per channel (the `fault.*` metrics). */
struct FaultStats
{
    ADORE_STAT_FIELDS(FaultStats, ADORE_FAULT_STATS)

    std::uint64_t
    total() const
    {
        return batchesDropped + batchesDuplicated + dearAliased +
               countersJittered + btbCorrupted + patchesFailed +
               optimizerStalls + memFillsJittered + busSqueezes;
    }
};

/**
 * One run's fault schedule.  Owned by the experiment harness; the
 * Sampler, AdoreRuntime, and CacheHierarchy hold non-owning pointers
 * (null = no faults).  One plan per simulation run, exactly like
 * EventTrace, and like it single-threaded: the simulation thread
 * drives every channel.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(const FaultConfig &config);

    const FaultConfig &config() const { return config_; }
    const FaultStats &stats() const { return stats_; }

    /// @name PMU-path decisions (called by Sampler)
    /// @{
    bool dropBatch();
    bool duplicateBatch();
    /** Maybe alias @p missAddr; @return true when mutated. */
    bool aliasDear(std::uint64_t &missAddr);
    /**
     * Maybe jitter the cumulative PMU counters of one sample.
     * Perturbs each value by up to counterJitterPerMille of itself
     * (never below zero).  @return true when mutated.
     */
    bool jitterCounters(std::uint64_t &cycles, std::uint64_t &misses,
                        std::uint64_t &retired);
    /**
     * Maybe corrupt a BTB path of @p n entries: pick two entries and
     * swap their targets (both stay plausible code addresses, but the
     * implied path is wrong).  @return the pair to swap via @p a/@p b,
     * or false to leave the path alone.
     */
    bool corruptBtbPath(std::uint32_t n, std::uint32_t &a,
                        std::uint32_t &b);
    /// @}

    /// @name Patching-path decisions (called by AdoreRuntime)
    /// @{
    bool patchFails();
    /// @}

    /// @name Optimizer decisions (called by AdoreRuntime)
    /// @{
    /**
     * Virtual cycles the next phase optimization stalls for (0 = no
     * stall).  Drawn once per optimizePhase entry; the watchdog cancels
     * the phase when the stall exceeds its deadline.
     */
    std::uint64_t optimizerStall();
    /// @}

    /// @name Memory-system decisions (called by CacheHierarchy)
    /// @{
    /** Extra cycles to add to the next memory-fill latency (0 = none). */
    std::uint32_t memLatencyJitter();
    /** Extra bus-occupancy cycles for the next fill (0 = none). */
    std::uint32_t busSqueeze();
    /// @}

  private:
    /** Independent per-channel stream: seed ^ a channel constant. */
    static Rng channelRng(std::uint64_t seed, std::uint64_t channel);

    FaultConfig config_;
    FaultStats stats_;
    Rng dropRng_;
    Rng dupRng_;
    Rng dearRng_;
    Rng counterRng_;
    Rng btbRng_;
    Rng patchRng_;
    Rng stallRng_;
    Rng memRng_;
    Rng busRng_;
};

/**
 * Service-layer fault channels (DESIGN.md §15): the failures the adored
 * serving daemon injects into *itself* — queue scheduling stalls,
 * worker aborts, and cache corruption-on-read — to prove the serving
 * infrastructure self-heals the same way the simulated machine's
 * guardrails do.
 *
 * Unlike the per-run FaultPlan channels above, these are drawn from
 * many worker threads at once, so they are *stateless*: every decision
 * is a pure hash of (seed, channel, job key, attempt, occurrence)
 * rather than a draw from a mutable RNG stream.  That makes them both
 * thread-safe without locks and deterministic *per job* regardless of
 * how the OS interleaves workers — two soak runs with the same seed
 * agree on exactly which (job, attempt) pairs abort, stall, or read a
 * corrupted cache entry, even though their wall-clock schedules differ.
 * Stats counters are relaxed atomics (they are volume gauges, not
 * ordering points).
 */
struct ServiceFaultConfig
{
    /** Master seed: same seed ⇒ same per-job fault decisions. */
    std::uint64_t seed = 0;

    /** Probability a dequeued job is stalled (requeued unexecuted). */
    double queueStallRate = 0.0;
    /** Hard per-job stall bound so a job cannot livelock in the queue. */
    std::uint32_t maxStallsPerJob = 4;
    /** Probability a worker attempt aborts with an injected exception
     *  before the simulation starts (exercises crash isolation). */
    double workerAbortRate = 0.0;
    /** Probability a result-cache read returns a corrupted payload
     *  (one byte flipped; the cache's checksum must catch it). */
    double cacheCorruptRate = 0.0;

    bool
    any() const
    {
        return queueStallRate > 0 || workerAbortRate > 0 ||
               cacheCorruptRate > 0;
    }
};

/** Snapshot of the service-channel injection counters. */
struct ServiceFaultStats
{
    std::uint64_t queueStalls = 0;
    std::uint64_t workerAborts = 0;
    std::uint64_t cacheCorruptions = 0;

    std::uint64_t
    total() const
    {
        return queueStalls + workerAborts + cacheCorruptions;
    }
};

class ServiceFaultPlan
{
  public:
    explicit ServiceFaultPlan(const ServiceFaultConfig &config)
        : config_(config)
    {
    }

    const ServiceFaultConfig &config() const { return config_; }

    /**
     * Should the @p occurrence-th dequeue of (@p jobKey, @p attempt) be
     * stalled?  Always false once occurrence reaches maxStallsPerJob,
     * so every job eventually runs.
     */
    bool queueStalls(std::uint64_t jobKey, std::uint32_t attempt,
                     std::uint32_t occurrence);

    /** Should this worker attempt abort with an injected exception? */
    bool workerAborts(std::uint64_t jobKey, std::uint32_t attempt);

    /**
     * Should this cache read return a corrupted payload?  On true,
     * @p byteIndex picks the byte to flip (within @p payloadSize) and
     * @p xorMask the nonzero flip.
     */
    bool corruptCacheRead(std::uint64_t jobKey, std::uint32_t attempt,
                          std::size_t payloadSize, std::size_t &byteIndex,
                          std::uint8_t &xorMask);

    ServiceFaultStats
    stats() const
    {
        ServiceFaultStats s;
        s.queueStalls = queueStalls_.load(std::memory_order_relaxed);
        s.workerAborts = workerAborts_.load(std::memory_order_relaxed);
        s.cacheCorruptions =
            cacheCorruptions_.load(std::memory_order_relaxed);
        return s;
    }

  private:
    /** splitmix64-style stateless mix of the decision coordinates. */
    static std::uint64_t mix(std::uint64_t seed, std::uint64_t channel,
                             std::uint64_t a, std::uint64_t b,
                             std::uint64_t c);
    /** mix() folded to a uniform double in [0, 1). */
    static double decision(std::uint64_t seed, std::uint64_t channel,
                           std::uint64_t a, std::uint64_t b,
                           std::uint64_t c);

    ServiceFaultConfig config_;
    std::atomic<std::uint64_t> queueStalls_{0};
    std::atomic<std::uint64_t> workerAborts_{0};
    std::atomic<std::uint64_t> cacheCorruptions_{0};
};

} // namespace adore::fault

#endif // ADORE_FAULT_FAULT_PLAN_HH
