/**
 * @file
 * One level of set-associative cache with timed fills.
 *
 * Each line carries a @c readyAt timestamp: a line installed by a prefetch
 * (or an earlier demand miss) is *present but in flight* until its fill
 * completes, and a demand access in the interim pays only the residual
 * latency.  This is the mechanism that makes prefetch distance/timeliness
 * behave as on real hardware (paper Section 3.3: distance =
 * ceil(latency / loop-body cycles)).
 *
 * Storage is structure-of-arrays: per-line tag / readyAt / lastUse
 * arrays plus a per-set MRU-way byte, so the way walk is a contiguous
 * scan over an 8-byte-stride tag array that usually terminates on the
 * first (MRU) probe.  Invalid lines hold @c kInvalidTag, which no real
 * line number can equal, so the walk needs no separate valid bits.
 * Replacement is exact LRU over a per-cache use clock, unchanged from
 * the AoS implementation.
 *
 * A generation counter (monotonically increasing, bumped by every state
 * change: line install, eviction, readyAt acceleration, invalidate,
 * flush) lets external fast-path caches — the Cpu's load line buffer
 * and the hierarchy's prefetch MSHR memos — self-invalidate: an entry
 * armed at generation G is trusted wholesale while the generation still
 * equals G, and revalidated against the line's current tag otherwise
 * (lines never migrate between ways, so a matching tag at the
 * remembered index proves the entry is still current).
 */

#ifndef ADORE_MEM_CACHE_HH
#define ADORE_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/insn.hh"
#include "support/stat_fields.hh"

namespace adore
{

using Cycle = std::uint64_t;

struct CacheConfig
{
    std::string name;
    std::uint32_t sizeBytes;
    std::uint32_t lineBytes;
    std::uint32_t assoc;
    std::uint32_t hitLatency;
};

/** CacheStats fields, X(type, member, metric, description, class)
 *  (support/stat_fields.hh); exported as "<level>.<metric>". */
#define ADORE_CACHE_STATS(X)                                           \
    X(std::uint64_t, accesses, "accesses", "cache accesses", Sim)      \
    X(std::uint64_t, hits, "hits", "cache hits", Sim)                  \
    X(std::uint64_t, misses, "misses", "cache misses", Sim)            \
    X(std::uint64_t, inFlightHits, "in_flight_hits",                   \
      "hits on lines whose fill was still pending", Sim)               \
    X(std::uint64_t, prefetchFills, "prefetch_fills",                  \
      "lines filled by prefetches", Sim)                               \
    X(std::uint64_t, demandFills, "demand_fills",                      \
      "lines filled by demand misses", Sim)                            \
    X(std::uint64_t, evictions, "evictions", "lines evicted", Sim)

struct CacheStats
{
    ADORE_STAT_FIELDS(CacheStats, ADORE_CACHE_STATS)

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

class Cache
{
  public:
    /** Result of a lookup. */
    struct LookupResult
    {
        bool hit = false;        ///< line present (possibly in flight)
        Cycle readyAt = 0;       ///< when the line's data is available
    };

    /** "No line" sentinel for index-returning lookups. */
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    explicit Cache(const CacheConfig &config);

    /**
     * Demand lookup at time @p now.  Updates LRU and statistics; does not
     * allocate — the hierarchy calls fill() after resolving the miss.
     * Defined in-class so the hierarchy's (inline) access paths flatten
     * into the interpreter hot loop.
     */
    LookupResult
    access(Addr addr, Cycle now)
    {
        ++stats_.accesses;
        Addr line = addr >> lineShift_;
        std::uint32_t idx = findIndex(line);
        if (idx == npos) {
            ++stats_.misses;
            return {false, 0};
        }
        ++stats_.hits;
        Cycle ra = readyAt_[idx];
        if (ra > now)
            ++stats_.inFlightHits;
        lastUse_[idx] = ++useClock_;
        std::uint32_t set = static_cast<std::uint32_t>(line) & (numSets_ - 1);
        mruWay_[set] = static_cast<std::uint8_t>(idx - set * config_.assoc);
        return {true, ra};
    }

    /** Probe without updating LRU or stats (used by tests/inspection). */
    LookupResult
    probe(Addr addr) const
    {
        std::uint32_t idx = findIndex(addr >> lineShift_);
        if (idx == npos)
            return {false, 0};
        return {true, readyAt_[idx]};
    }

    /**
     * Account a repeat hit on the most-recently-accessed line without a
     * tag walk.  Only valid when the caller knows the line is resident,
     * ready, and already MRU (the Cpu's ifetch line cache): re-touching
     * the MRU line cannot change any relative LRU order, so skipping the
     * lastUse update keeps future evictions bit-identical.
     */
    void
    noteRepeatHit()
    {
        ++stats_.accesses;
        ++stats_.hits;
    }

    /**
     * Install the line holding @p addr with data available at
     * @p ready_at.  @p prefetch marks the fill as prefetch-initiated for
     * statistics.  Replaces the LRU way.  Defined in-class (it sits on
     * every miss path the hierarchy inlines into the interpreter loop).
     * @return the line index the line now occupies (for fast-path memos).
     */
    std::uint32_t
    fill(Addr addr, Cycle ready_at, bool prefetch)
    {
        // One fused walk computes all three victim-selection inputs —
        // present index, first invalid way, and exact-LRU minimum — so
        // the set's tag/lastUse lines are touched once, not twice.  The
        // selection is identical to the separate walks: a present line
        // wins outright, else the first invalid way, else the strict
        // lastUse minimum scanning from way 0.
        Addr line = addr >> lineShift_;
        std::uint32_t set = static_cast<std::uint32_t>(line) & (numSets_ - 1);
        std::uint32_t base = set * config_.assoc;
        std::uint32_t firstInvalid = npos;
        std::uint32_t lruWay = base;
        for (std::uint32_t w = base; w < base + config_.assoc; ++w) {
            Addr tag = tags_[w];
            if (tag == line) {
                // Already present (e.g. racing prefetch + demand): keep
                // the earlier completion time.  The generation only
                // moves when the line's observable state changes.
                if (ready_at < readyAt_[w]) {
                    readyAt_[w] = ready_at;
                    ++generation_;
                }
                return w;
            }
            if (tag == kInvalidTag) {
                if (firstInvalid == npos)
                    firstInvalid = w;
            } else if (lastUse_[w] < lastUse_[lruWay]) {
                lruWay = w;
            }
        }
        std::uint32_t victim;
        if (firstInvalid != npos) {
            victim = firstInvalid;
        } else {
            victim = lruWay;
            ++stats_.evictions;
        }
        ++generation_;
        tags_[victim] = line;
        readyAt_[victim] = ready_at;
        lastUse_[victim] = ++useClock_;
        mruWay_[set] = static_cast<std::uint8_t>(victim - base);
        if (prefetch)
            ++stats_.prefetchFills;
        else
            ++stats_.demandFills;
        return victim;
    }

    /** Drop the line holding @p addr if present. */
    void invalidate(Addr addr);

    /**
     * Drop every line and reset the LRU clock to a deterministic clean
     * slate (useClock / lastUse / MRU hints back to the
     * freshly-constructed state), so back-to-back runs on a reused
     * machine replay identical replacement decisions.
     */
    void flush();

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats(); }

    std::uint32_t lineBytes() const { return config_.lineBytes; }

    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(config_.lineBytes - 1);
    }

    /// @name Fast-path interface (load line buffer / prefetch MSHR)
    ///
    /// Inline building blocks for external caches over this cache's
    /// state (DESIGN.md "Memory-hierarchy fast path").  They are exact
    /// slices of access(): callers must reproduce the same statistics
    /// and LRU updates the slow path would have performed.
    /// @{

    /** Generation of the current line state; see the file comment. */
    std::uint64_t generation() const { return generation_; }

    /** Full line number of @p addr (tag-array key). */
    Addr lineNum(Addr addr) const { return addr >> lineShift_; }

    /** Is line number @p line still resident at index @p idx? */
    bool
    residentAt(std::uint32_t idx, Addr line) const
    {
        return tags_[idx] == line;
    }

    /** The fill-complete time of the (resident) line at @p idx. */
    Cycle readyAtOf(std::uint32_t idx) const { return readyAt_[idx]; }

    /**
     * LRU touch of the (resident) line at @p idx — exactly the
     * lastUse/useClock update access() performs on a hit.
     */
    void touch(std::uint32_t idx) { lastUse_[idx] = ++useClock_; }

    /**
     * Credit @p n deferred {access, hit} pairs accumulated by an
     * external fast path (the Cpu's load line buffer).
     */
    void
    addDeferredHits(std::uint64_t n)
    {
        stats_.accesses += n;
        stats_.hits += n;
    }

    /**
     * The full hit path of access() for a line already proven resident
     * at @p idx: statistics, in-flight classification, and LRU touch,
     * without the way walk.  @return the line's readyAt.
     */
    Cycle
    accessResidentAt(std::uint32_t idx, Cycle now)
    {
        ++stats_.accesses;
        ++stats_.hits;
        Cycle ra = readyAt_[idx];
        if (ra > now)
            ++stats_.inFlightHits;
        lastUse_[idx] = ++useClock_;
        return ra;
    }

    /** Line index of the line holding @p addr, or npos. */
    std::uint32_t
    indexOf(Addr addr) const
    {
        return findIndex(addr >> lineShift_);
    }

    /**
     * Host-side prefetch of the SoA lines backing @p addr's set, so a
     * demand walk that is about to scan this set (and likely fill into
     * it) overlaps the host cache misses on tags/lastUse/readyAt with
     * earlier levels' work.  Pure hint: no simulated effect whatsoever.
     */
    void
    hostPrefetchSet(Addr addr) const
    {
        Addr line = addr >> lineShift_;
        std::uint32_t set = static_cast<std::uint32_t>(line) & (numSets_ - 1);
        std::uint32_t base = set * config_.assoc;
        __builtin_prefetch(&tags_[base]);
        __builtin_prefetch(&lastUse_[base]);
        __builtin_prefetch(&readyAt_[base]);
    }

    /// @}

  private:
    static constexpr Addr kInvalidTag = ~Addr{0};

    /** Way walk: MRU probe first, then a contiguous scan of the set. */
    std::uint32_t
    findIndex(Addr line) const
    {
        std::uint32_t set = static_cast<std::uint32_t>(line) & (numSets_ - 1);
        std::uint32_t base = set * config_.assoc;
        std::uint32_t mru = base + mruWay_[set];
        if (tags_[mru] == line)
            return mru;
        for (std::uint32_t w = base; w < base + config_.assoc; ++w) {
            if (tags_[w] == line)
                return w;
        }
        return npos;
    }

    CacheConfig config_;
    CacheStats stats_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_;
    std::uint64_t useClock_ = 0;
    std::uint64_t generation_ = 0;
    // SoA line state, each numSets_ x assoc, row-major by set.
    std::vector<Addr> tags_;            ///< kInvalidTag when invalid
    std::vector<Cycle> readyAt_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> mruWay_;  ///< per-set most-recent way hint
};

} // namespace adore

#endif // ADORE_MEM_CACHE_HH
