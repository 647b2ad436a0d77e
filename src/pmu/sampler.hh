/**
 * @file
 * PMU sampling à la perfmon (paper Section 2.1/2.2): every R cycles the
 * "kernel" appends an n-tuple sample
 *   <index, pc, cycles, d-cache miss count, retired count, BTB, DEAR>
 * into the System Sample Buffer (SSB).  When the SSB fills, a
 * buffer-overflow "signal" fires: the registered handler (installed by
 * dyn_open) copies the samples into the larger circular User Event Buffer
 * (UEB) organized as W profile windows.
 *
 * Overhead accounting: both the per-sample PMU interrupt and the per-
 * overflow copy charge cycles to the main thread; these constants are the
 * scaled-down analogues of the paper's "sampling interval no less than
 * 100,000 cycles/sample" guidance and produce the 1-2% overhead of
 * Fig. 11.
 */

#ifndef ADORE_PMU_SAMPLER_HH
#define ADORE_PMU_SAMPLER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "fault/fault_plan.hh"
#include "pmu/pmu.hh"
#include "support/stat_fields.hh"

namespace adore
{

/** One PMU sample (the n-tuple of paper Section 2.1). */
struct Sample
{
    std::uint64_t index = 0;
    Addr pc = 0;
    Cycle cycles = 0;
    std::uint64_t dcacheMissCount = 0;
    std::uint64_t retiredCount = 0;
    std::array<BtbEntry, BranchTraceBuffer::capacity> btb{};
    DearRecord dear;
};

struct SamplerConfig
{
    Cycle interval = 4000;          ///< R: cycles per sample
    std::uint32_t ssbSamples = 64;  ///< N: SSB capacity in samples
    std::uint32_t interruptCycles = 50;  ///< charged per sample
    std::uint32_t copyCyclesPerSample = 2;  ///< charged per overflow copy
};

/** SamplerStats fields, X(type, member, metric, description, class)
 *  (support/stat_fields.hh); exported as "pmu.<metric>". */
#define ADORE_SAMPLER_STATS(X)                                         \
    X(std::uint64_t, samplesTaken, "samples_taken",                    \
      "PMU samples recorded into the SSB", Sim)                        \
    X(std::uint64_t, overflows, "overflows", "SSB overflow signals", Sim) \
    X(std::uint64_t, batchesDelivered, "batches_delivered",            \
      "SSB batches accepted by the overflow handler", Sim)             \
    X(std::uint64_t, droppedFault, "dropped_fault",                    \
      "SSB batches dropped by the injected drop-batch fault", Sim)     \
    X(std::uint64_t, droppedNoHandler, nullptr,                        \
      "SSB batches dropped: no overflow handler", Sim)

/**
 * Sampling-path accounting (the `pmu.*` metrics).  Every SSB overflow
 * resolves to exactly one first-delivery outcome — delivered, dropped
 * by an injected fault, or dropped because no handler was installed —
 * so
 *   overflows == batchesDelivered + droppedFault + droppedNoHandler
 *              - duplicates
 * where a fault-duplicated batch adds one extra delivered count for
 * its second delivery.
 */
struct SamplerStats
{
    ADORE_STAT_FIELDS(SamplerStats, ADORE_SAMPLER_STATS)

    /** Batches lost for any reason (`pmu.dropped_batches`). */
    std::uint64_t
    totalDropped() const
    {
        return droppedFault + droppedNoHandler;
    }
};

class Sampler
{
  public:
    /** Overflow handler: receives the full SSB contents (the copy into
     *  the UEB).  Copy overhead is charged by the sampler itself. */
    using OverflowHandler = std::function<void(const std::vector<Sample> &)>;

    explicit Sampler(const SamplerConfig &config) : config_(config) {}

    void setOverflowHandler(OverflowHandler handler);

    /** Enable/disable sampling (dyn_open / dyn_close). */
    void
    setEnabled(bool enabled, Cycle now = 0)
    {
        enabled_ = enabled;
        if (enabled)
            nextSampleAt_ = now + config_.interval;
    }

    bool enabled() const { return enabled_; }

    Cycle nextSampleAt() const { return nextSampleAt_; }

    /**
     * Attach a fault plan (nullptr = none, the default).  A plan may
     * drop or duplicate overflow batches and perturb individual samples
     * (DEAR aliasing, counter jitter, BTB path corruption) before they
     * reach the UEB — the PMU-unreliability chaos channels.
     */
    void setFaultPlan(fault::FaultPlan *plan) { faults_ = plan; }

    /**
     * Retime the sampler to @p interval cycles per sample (the
     * guardrails' sampling-rate backoff).  Takes effect from the next
     * sample; callers outside a Cpu event service must refresh the
     * Cpu's event watermark (Cpu::noteEventSourcesChanged).
     */
    void
    setInterval(Cycle interval)
    {
        config_.interval = interval ? interval : 1;
    }

    Cycle interval() const { return config_.interval; }

    /**
     * Record one sample; called by the CPU when the cycle counter crosses
     * the sampling interval.
     * @return overhead cycles to charge to the main thread.
     */
    Cycle takeSample(const Sample &sample);

    const SamplerConfig &config() const { return config_; }
    const SamplerStats &stats() const { return stats_; }
    std::uint64_t samplesTaken() const { return stats_.samplesTaken; }
    std::uint64_t overflows() const { return stats_.overflows; }

    /** Cycle span covered by one full SSB (one profile window). */
    Cycle
    windowCycles() const
    {
        return static_cast<Cycle>(config_.interval) * config_.ssbSamples;
    }

    /** Double the sampling window (paper: phase detector enlarges the
     *  profile window when no stable phase emerges). */
    void doubleWindow() { config_.ssbSamples *= 2; }

  private:
    /** Run the handler on the full SSB and account the outcome. */
    void deliver();

    SamplerConfig config_;
    bool enabled_ = false;
    std::vector<Sample> ssb_;
    OverflowHandler handler_;
    Cycle nextSampleAt_ = 0;
    SamplerStats stats_;
    fault::FaultPlan *faults_ = nullptr;  ///< not owned; may be null
};

/**
 * The User Event Buffer: a circular buffer of the most recent W profile
 * windows (SIZE_UEB = SIZE_SSB * W, paper Section 2.3).
 */
class UserEventBuffer
{
  public:
    explicit UserEventBuffer(std::uint32_t window_multiplier = 16)
        : w_(window_multiplier)
    {
    }

    /** Append one profile window (one SSB's worth of samples). */
    void
    pushWindow(std::vector<Sample> samples)
    {
        windows_.push_back(std::move(samples));
        ++totalWindows_;
        while (windows_.size() > w_)
            windows_.pop_front();
    }

    /** Number of windows ever received (monotonic). */
    std::uint64_t totalWindows() const { return totalWindows_; }

    /** Number of windows currently retained (<= W). */
    std::size_t retainedWindows() const { return windows_.size(); }

    /** Retained window @p i, 0 = oldest retained. */
    const std::vector<Sample> &
    window(std::size_t i) const
    {
        return windows_[i];
    }

    /** Most recent window. */
    const std::vector<Sample> &latest() const { return windows_.back(); }

    /** All retained samples flattened, oldest first. */
    std::vector<Sample> flatten() const;

    void
    clear()
    {
        windows_.clear();
    }

    std::uint32_t multiplier() const { return w_; }

  private:
    std::uint32_t w_;
    std::deque<std::vector<Sample>> windows_;
    std::uint64_t totalWindows_ = 0;
};

} // namespace adore

#endif // ADORE_PMU_SAMPLER_HH
