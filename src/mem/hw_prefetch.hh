/**
 * @file
 * Hardware prefetcher zoo for the cache hierarchy (DESIGN.md §13).
 *
 * Three table-driven hardware prefetchers observe demand accesses at
 * L1D/L2 fill time — misses and in-flight hits only, never ready hits,
 * so training is bit-identical with HierarchyConfig::fastPath on or off
 * (the Cpu line buffers absorb only *ready* hits):
 *
 *  - a PC-indexed stride prefetcher: the classic reference-prediction
 *    table with the Init/Transient/Steady/NoPred FSM per load pc,
 *    prefetching degree lines ahead once a stride is Steady;
 *  - a Variable Length Delta Prefetcher (VLDP): a per-page delta
 *    history buffer feeding delta prediction tables keyed by the last
 *    1, 2, or 3 line deltas, longest match first, walking the predicted
 *    delta chain degree deep;
 *  - a pointer-chase prefetcher (Markov-style next-line-of-loaded-
 *    value, after Srivastava & Navalakha): the *value* of a delinquent
 *    8-byte integer load is treated as the next node address when it is
 *    plausible (aligned, inside the envelope of observed miss
 *    addresses, on a different line than the load).
 *
 * The engine only *predicts*: candidates are collected into a small
 * buffer and the CacheHierarchy issues them through the same bus /
 * prefetch-queue budget as ADORE's software lfetches, so hardware and
 * software prefetch contend for `prefetchQueueDepth` and bus occupancy.
 * Hardware prefetches fill L2/L3 only (like lfetch.nt1): L1D still
 * takes one demand miss per new line, which keeps the trainers fed even
 * when the prefetchers are fully covering the stream.
 *
 * The configuration is static: each prefetcher runs at its configured
 * on/off state and degree for the whole run.  Per-prefetcher
 * issue/drop/useless counters are exported (DESIGN.md §13).
 *
 * Everything is behind HierarchyConfig::hwPrefetch.enabled: off (the
 * default) constructs no engine and adds one null check on the demand
 * *miss* path only — bit-identical to the pre-hwpf hierarchy.
 */

#ifndef ADORE_MEM_HW_PREFETCH_HH
#define ADORE_MEM_HW_PREFETCH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/insn.hh"
#include "support/stat_fields.hh"

namespace adore
{

struct HwPrefetchConfig
{
    /** Master switch: off constructs no engine (bit-identical). */
    bool enabled = false;

    // Which prefetchers participate.
    bool stride = true;
    bool vldp = true;
    bool pointer = true;

    /** Prefetch degrees (lines ahead per trigger). */
    std::uint32_t strideDegree = 2;
    std::uint32_t vldpDegree = 2;
    std::uint32_t pointerDegree = 1;

    /** Reference-prediction-table entries (power of two). */
    std::uint32_t strideTableEntries = 64;
    /** VLDP delta-history-buffer pages tracked (power of two). */
    std::uint32_t vldpPages = 16;
    /** VLDP delta-prediction-table entries per length (power of two). */
    std::uint32_t vldpTableEntries = 64;
    /** Minimum DPT confidence before a delta is predicted. */
    std::uint32_t vldpConfidence = 1;
    /** Only loads at least this slow chase their value (a load serviced
     *  below L2 — the delinquent-pointer-load trigger condition). */
    std::uint32_t pointerTriggerLatency = 14;
};

/** HwPrefetcherStats fields, X(type, member, metric, description,
 *  class) (support/stat_fields.hh); exported as
 *  "hwpf.<prefetcher>_<metric>". */
#define ADORE_HW_PREFETCHER_STATS(X)                                   \
    X(std::uint64_t, trained, "trained",                               \
      "prefetcher table-update events", Sim)                           \
    X(std::uint64_t, predictions, "predictions",                       \
      "candidate lines predicted", Sim)                                \
    X(std::uint64_t, issued, "issued", "candidates issued to the bus", Sim) \
    X(std::uint64_t, dropped, "dropped", "candidates throttled", Sim)  \
    X(std::uint64_t, useless, "useless", "candidates already resident", Sim)

/** Counters of one hardware prefetcher. */
struct HwPrefetcherStats
{
    ADORE_STAT_FIELDS(HwPrefetcherStats, ADORE_HW_PREFETCHER_STATS)
};

struct HwPrefetchStats
{
    HwPrefetcherStats stride;
    HwPrefetcherStats vldp;
    HwPrefetcherStats pointer;

    std::uint64_t
    issued() const
    {
        return stride.issued + vldp.issued + pointer.issued;
    }

    std::uint64_t
    dropped() const
    {
        return stride.dropped + vldp.dropped + pointer.dropped;
    }

    std::uint64_t
    useless() const
    {
        return stride.useless + vldp.useless + pointer.useless;
    }
};

class HwPrefetchEngine
{
  public:
    enum class Source : std::uint8_t { Stride, Vldp, Pointer };

    /** Stride-FSM states (Chen & Baer reference prediction table). */
    enum class StrideState : std::uint8_t
    {
        Init,       ///< entry allocated, stride unconfirmed
        Transient,  ///< stride changed once; watching
        Steady,     ///< stride confirmed; prefetching
        NoPred,     ///< irregular; no prediction until it stabilizes
    };

    struct Candidate
    {
        Addr addr = 0;
        Source source = Source::Stride;
    };

    HwPrefetchEngine(const HwPrefetchConfig &config,
                     std::uint32_t line_bytes);

    /**
     * Train on one demand access that missed L1D (integer side) or
     * missed / hit-in-flight at L2 (FP side).  Appends prediction
     * candidates to the internal buffer; the hierarchy drains them
     * via candidateCount()/candidate()/clearCandidates().
     */
    void observeDemand(Addr pc, Addr addr);

    /**
     * Pointer-chase hook: the Cpu reports the value of every 8-byte
     * integer load while hardware prefetching is active.  Fast loads
     * (latency below pointerTriggerLatency) return immediately with no
     * side effects, so calls for line-buffer-absorbed loads (fastPath
     * on) and their slow-path twins (fastPath off) are equivalent.
     */
    void observeLoadedValue(Addr pc, Addr ea, std::uint64_t value,
                            std::uint32_t latency);

    std::size_t candidateCount() const { return candidateCount_; }
    const Candidate &candidate(std::size_t i) const
    {
        return candidates_[i];
    }
    void clearCandidates() { candidateCount_ = 0; }

    // Issue accounting, charged by the hierarchy's issue loop.
    void noteIssued(Source s) { ++statsOf(s).issued; }
    void noteDropped(Source s) { ++statsOf(s).dropped; }
    void noteUseless(Source s) { ++statsOf(s).useless; }

    const HwPrefetchStats &stats() const { return stats_; }
    void clearStats() { stats_ = HwPrefetchStats(); }

    /** Drop all learned table state (between experiment runs). */
    void resetState();

    const HwPrefetchConfig &config() const { return config_; }

    /** Test hook: current FSM state of the RPT entry for @p pc
     *  (Init when the pc has no entry). */
    StrideState strideStateOf(Addr pc) const;

  private:
    struct StrideEntry
    {
        Addr pcTag = ~Addr{0};
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        StrideState state = StrideState::Init;
    };

    /** VLDP delta history of one page (deltas in lines, newest first). */
    struct DhbEntry
    {
        Addr pageTag = ~Addr{0};
        std::int64_t lastLine = 0;
        std::array<std::int16_t, 4> deltas{};
        std::uint8_t numDeltas = 0;
    };

    /** One delta-prediction-table entry (tables keyed by hashed delta
     *  sequences of length 1, 2 or 3). */
    struct DptEntry
    {
        std::uint64_t key = ~std::uint64_t{0};
        std::int16_t delta = 0;
        std::uint8_t confidence = 0;
    };

    void trainStride(Addr pc, Addr addr);
    void trainVldp(Addr addr);
    void emitCandidate(Addr addr, Source source);

    HwPrefetcherStats &
    statsOf(Source s)
    {
        switch (s) {
          case Source::Stride:
            return stats_.stride;
          case Source::Vldp:
            return stats_.vldp;
          case Source::Pointer:
            return stats_.pointer;
        }
        return stats_.stride;
    }

    std::uint64_t hashDeltaSeq(const std::int16_t *deltas,
                               std::uint32_t len) const;
    DptEntry &dptSlot(std::uint32_t len, std::uint64_t key);

    HwPrefetchConfig config_;
    HwPrefetchStats stats_;
    std::uint32_t lineShift_;
    std::uint32_t lineBytes_;

    std::vector<StrideEntry> rpt_;
    std::vector<DhbEntry> dhb_;
    /** DPTs for sequence lengths 1..3 (index 0 = length 1). */
    std::array<std::vector<DptEntry>, 3> dpt_;

    /** Envelope of observed demand-miss addresses: a loaded value far
     *  outside it cannot plausibly be a pointer into the data set. */
    Addr minAddr_ = ~Addr{0};
    Addr maxAddr_ = 0;

    /** Recently-emitted candidate lines, direct-mapped: stops a steady
     *  stream from re-predicting the same line every trigger, which
     *  would inflate the "useless" rate. */
    std::array<Addr, 256> recentLines_;

    static constexpr std::size_t kMaxCandidates = 16;
    std::array<Candidate, kMaxCandidates> candidates_;
    std::size_t candidateCount_ = 0;
};

/** Stable name for a candidate source ("stride" | "vldp" | "pointer"). */
const char *hwPrefetchSourceName(HwPrefetchEngine::Source s);

} // namespace adore

#endif // ADORE_MEM_HW_PREFETCH_HH
