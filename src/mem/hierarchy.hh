/**
 * @file
 * The full cache/memory hierarchy of the simulated machine: L1I, L1D
 * (integer loads only — FP accesses bypass it, as on Itanium 2), unified
 * L2 and L3, and a finite-bandwidth memory bus.
 *
 * Timing contract: every access returns a latency in cycles relative to
 * @p now.  Fills are timestamped, so demand accesses that race an
 * in-flight fill pay only the residual latency.  Memory fills serialize on
 * the bus (start = max(now, busFreeAt)), which caps achievable prefetch
 * bandwidth — the effect that limits `swim` in the paper's evaluation.
 *
 * Fast path (see DESIGN.md "Memory-hierarchy fast path"): MSHR-style
 * in-flight memos dedup the way walks for back-to-back prefetches and
 * below-L2 fills to a line whose fill is already outstanding, and the
 * Cpu keeps a load line buffer over L1D keyed on this hierarchy's
 * generation counter.  All of it is host-side caching only: simulated
 * metrics are bit-identical with @c HierarchyConfig::fastPath on or off.
 */

#ifndef ADORE_MEM_HIERARCHY_HH
#define ADORE_MEM_HIERARCHY_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "fault/fault_plan.hh"
#include "mem/cache.hh"
#include "mem/hw_prefetch.hh"

namespace adore
{

/** Which level serviced an access. */
enum class MemLevel : std::uint8_t { L1 = 1, L2 = 2, L3 = 3, Memory = 4 };

struct MemAccessResult
{
    std::uint32_t latency = 1;  ///< cycles until the value is usable
    MemLevel level = MemLevel::L1;
};

struct HierarchyConfig
{
    CacheConfig l1i{"L1I", 16 * 1024, 64, 4, 1};
    CacheConfig l1d{"L1D", 16 * 1024, 64, 4, 1};
    CacheConfig l2{"L2", 256 * 1024, 128, 8, 6};
    CacheConfig l3{"L3", 1536 * 1024, 128, 12, 14};
    std::uint32_t memLatency = 160;      ///< cycles to first use
    /** Bus cycles per line fill: 128 B at ~6.4 GB/s on a 900 MHz clock
     *  is ~18 cycles — the finite bandwidth that caps prefetching. */
    std::uint32_t busOccupancy = 18;
    std::uint32_t prefetchQueueDepth = 5;  ///< outstanding prefetch cap
    /**
     * Enable the host-side fast paths (Cpu load line buffer, prefetch
     * MSHR dedup, L1I repeat-hit path).  Simulated metrics are
     * bit-identical either way — tests/test_toggle_sweep.cc holds
     * this to account — so the switch exists only for that comparison
     * and for debugging.
     */
    bool fastPath = true;
    /**
     * Hardware-prefetcher zoo (DESIGN.md §13).  Off by default; the off
     * configuration constructs no engine and is bit-identical to the
     * pre-hwpf hierarchy (tests/test_hwpf.cc holds this to account).
     */
    HwPrefetchConfig hwPrefetch;
};

/** HierarchyStats fields, X(type, member, metric, description, class)
 *  (support/stat_fields.hh); exported as "mem.<metric>". */
#define ADORE_HIERARCHY_STATS(X)                                       \
    X(std::uint64_t, loads, "loads", "demand data loads", Sim)         \
    X(std::uint64_t, stores, "stores", "demand data stores", Sim)      \
    X(std::uint64_t, prefetchesIssued, "prefetches_issued",            \
      "lfetch requests issued to the hierarchy", Sim)                  \
    X(std::uint64_t, prefetchesDropped, "prefetches_dropped",          \
      "lfetch requests throttled (prefetch queue full)", Sim)          \
    X(std::uint64_t, prefetchesUseless, "prefetches_useless",          \
      "lfetch requests whose line was already resident", Sim)          \
    X(std::uint64_t, ifetches, "ifetches", "bundle fetches", Sim)      \
    X(std::uint64_t, ifetchMisses, nullptr,                            \
      "bundle fetches that missed L1I", Sim)

struct HierarchyStats
{
    ADORE_STAT_FIELDS(HierarchyStats, ADORE_HIERARCHY_STATS)

    double
    ifetchMissRate() const
    {
        return ifetches ? static_cast<double>(ifetchMisses) /
                              static_cast<double>(ifetches)
                        : 0.0;
    }
};

class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyConfig &config);

    // The demand-access entry points are defined in-class: together with
    // Cache's in-class access/fill they let the compiler flatten the
    // whole hierarchy walk into the interpreter's per-instruction loop
    // (no cross-TU call on the load/store/ifetch hot paths).

    /**
     * Demand data load.  @p fp loads bypass L1D.  @p pc is the load's
     * instruction address — the hardware prefetchers train on it; 0 is
     * fine when no engine is attached.
     * @return latency until the loaded value is ready and the servicing
     *         level.
     */
    MemAccessResult
    load(Addr addr, Cycle now, bool fp, Addr pc = 0)
    {
        ++stats_.loads;

        if (!fp) {
            auto l1res = l1d_.access(addr, now);
            if (l1res.hit) {
                // Train on in-flight hits only: ready hits are absorbed
                // by the Cpu line buffer under fastPath, so observing
                // them here would break the fastPath bit-identity.
                if (hwpf_ && l1res.readyAt > now)
                    hwpfObserveDemand(pc, addr, now);
                Cycle ready = std::max(now + config_.l1d.hitLatency,
                                       l1res.readyAt);
                return {static_cast<std::uint32_t>(ready - now),
                        MemLevel::L1};
            }
        }

        auto l2res = l2_.access(addr, now);
        Cycle ready;
        MemLevel level;
        if (l2res.hit) {
            ready = std::max(now + config_.l2.hitLatency, l2res.readyAt);
            level = ready - now <= config_.l2.hitLatency ? MemLevel::L2
                                                         : MemLevel::Memory;
            // An in-flight L2 line was brought by an earlier (pre)fetch;
            // the residual latency decides how it is classified.
            // Anything at or below L3 hit cost is indistinguishable from
            // an L3 hit.
            if (l2res.readyAt > now + config_.l3.hitLatency)
                level = MemLevel::Memory;
            else if (l2res.readyAt > now + config_.l2.hitLatency)
                level = MemLevel::L3;
        } else {
            ready = resolveBelowL2(addr, now, false);
            level = ready - now <= config_.l3.hitLatency ? MemLevel::L3
                                                         : MemLevel::Memory;
        }

        if (!fp)
            l1d_.fill(addr, ready, false);

        // Integer side: any L1D miss trains.  FP side (no L1D): only L2
        // misses and in-flight L2 hits — ready L2 hits are absorbed by
        // the Cpu's FP line buffer under fastPath.
        if (hwpf_ && (!fp || !l2res.hit || l2res.readyAt > now))
            hwpfObserveDemand(pc, addr, now);

        return {static_cast<std::uint32_t>(ready - now), level};
    }

    /**
     * Data store: write-allocate, non-blocking (the store buffer hides
     * the latency); still moves lines and consumes bus bandwidth.
     */
    void
    store(Addr addr, Cycle now, bool fp)
    {
        ++stats_.stores;

        if (!fp) {
            auto l1res = l1d_.access(addr, now);
            if (l1res.hit)
                return;
        }

        auto l2res = l2_.access(addr, now);
        Cycle ready;
        if (l2res.hit) {
            ready = std::max(now + config_.l2.hitLatency, l2res.readyAt);
        } else {
            ready = resolveBelowL2(addr, now, false);
        }
        if (!fp)
            l1d_.fill(addr, ready, false);
    }

    /**
     * Software prefetch (lfetch).  Never faults, never stalls.  Fills
     * L2/L3 (plus L1D for integer-side prefetches).  Dropped when the
     * outstanding-fill queue is saturated.
     */
    void
    prefetch(Addr addr, Cycle now, bool fp)
    {
        // Throttle: when the bus backlog already covers the outstanding
        // queue depth, drop the prefetch (the MSHRs are full).
        if (busFreeAt_ >
            now + static_cast<Cycle>(config_.prefetchQueueDepth) *
                      config_.busOccupancy) {
            ++stats_.prefetchesDropped;
            return;
        }

        // In-flight dedup: a back-to-back lfetch to a line whose fill is
        // already outstanding (or resident) short-circuits the L2 way
        // walk via the MSHR memo; the resulting statistics are identical
        // to the probe path below.
        Cache::LookupResult l2res;
        Addr line = l2_.lineNum(addr);
        InFlightMemo &memo =
            prefetchMshr_[line & (prefetchMshr_.size() - 1)];
        if (config_.fastPath && memo.line == line &&
            (memo.generation == l2_.generation() ||
             l2_.residentAt(memo.index, line))) {
            memo.generation = l2_.generation();
            l2res = {true, l2_.readyAtOf(memo.index)};
        } else {
            l2res = l2_.probe(addr);
            if (l2res.hit)
                memo = {line, l2_.indexOf(addr), l2_.generation()};
        }

        if (l2res.hit) {
            // Already at L2 (possibly in flight).  For integer-side
            // prefetch, still promote into L1D.
            if (!fp) {
                auto l1res = l1d_.probe(addr);
                if (!l1res.hit) {
                    Cycle ready = std::max(now + config_.l2.hitLatency,
                                           l2res.readyAt);
                    l1d_.fill(addr, ready, true);
                    ++stats_.prefetchesIssued;
                    return;
                }
            }
            ++stats_.prefetchesUseless;
            return;
        }

        ++stats_.prefetchesIssued;
        Cycle ready = resolveBelowL2(addr, now, true);
        memo = {line, l2_.indexOf(addr), l2_.generation()};
        if (!fp)
            l1d_.fill(addr, ready, true);
    }

    /**
     * Instruction fetch of the bundle at @p addr.
     * @return extra stall cycles (0 on an L1I hit).
     */
    std::uint32_t
    ifetch(Addr addr, Cycle now)
    {
        ++stats_.ifetches;
        auto l1res = l1i_.access(addr, now);
        if (l1res.hit) {
            if (l1res.readyAt <= now)
                return 0;
            return static_cast<std::uint32_t>(l1res.readyAt - now);
        }

        ++stats_.ifetchMisses;
        auto l2res = l2_.access(addr, now);
        Cycle ready;
        if (l2res.hit) {
            ready = std::max(now + config_.l2.hitLatency, l2res.readyAt);
        } else {
            ready = resolveBelowL2(addr, now, false);
        }
        l1i_.fill(addr, ready, false);
        return static_cast<std::uint32_t>(ready - now);
    }

    /**
     * Fast-path companion to ifetch(): the Cpu proved the fetch hits the
     * same (ready) L1I line as the previous one, so only the hit
     * statistics need updating.
     */
    void
    noteIfetchRepeatHit()
    {
        ++stats_.ifetches;
        l1i_.noteRepeatHit();
    }

    /**
     * Credit @p n demand loads resolved by the Cpu's load line buffer:
     * each was an L1D hit on a ready line whose per-access statistics
     * were deferred in the buffer (the LRU touch already happened
     * inline).  Called from the Cpu's deferred-stat flush points.
     */
    void
    addDeferredLoadLineHits(std::uint64_t n)
    {
        stats_.loads += n;
        l1d_.addDeferredHits(n);
    }

    /**
     * Same for stores resolved by the line buffer: each was an L1D hit
     * on a ready line, which store() counts and then returns from
     * without touching lower levels.
     */
    void
    addDeferredStoreLineHits(std::uint64_t n)
    {
        stats_.stores += n;
        l1d_.addDeferredHits(n);
    }

    /**
     * FP-side deferred credits (the Cpu's FP line buffer over L2 — FP
     * accesses bypass L1D, so a ready L2 hit is their whole walk).
     */
    void
    addDeferredFpLoadHits(std::uint64_t n)
    {
        stats_.loads += n;
        l2_.addDeferredHits(n);
    }

    void
    addDeferredFpStoreHits(std::uint64_t n)
    {
        stats_.stores += n;
        l2_.addDeferredHits(n);
    }

    /**
     * Generation the Cpu's load line buffer keys on.  It moves with
     * every L1D state change (fill, eviction, readyAt acceleration,
     * invalidate, flush — flushAll() additionally bumps the
     * hierarchy-level component), so a buffer entry armed at generation
     * G can be trusted wholesale while generation() still returns G.
     */
    std::uint64_t
    generation() const
    {
        return generation_ + l1d_.generation();
    }

    /**
     * Host-side prefetch of every level's set metadata for @p addr,
     * issued by the Cpu just before a demand walk that missed its line
     * buffer: the L2/L3 scans and fills then find their tag/LRU lines
     * already in the host cache.  Pure hint, no simulated effect.
     */
    void
    hostPrefetchWalk(Addr addr) const
    {
        l1d_.hostPrefetchSet(addr);
        l2_.hostPrefetchSet(addr);
        l3_.hostPrefetchSet(addr);
    }

    /** Mutable L1D handle for the Cpu's load line buffer fast path. */
    Cache &l1dFast() { return l1d_; }

    /** Mutable L2 handle for the Cpu's FP line buffer fast path. */
    Cache &l2Fast() { return l2_; }

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Cache &l3() const { return l3_; }
    const HierarchyStats &stats() const { return stats_; }
    const HierarchyConfig &config() const { return config_; }

    void clearStats();

    /** Drop all cached lines (used between experiment runs). */
    void flushAll();

    /**
     * Attach a fault plan (nullptr = none, the default).  A plan may
     * add per-fill latency jitter and bus-bandwidth squeeze to memory
     * fills — the memory-system chaos channels.  One predictable null
     * check on the (miss-only) fill path; nothing on hits.
     */
    void setFaultPlan(fault::FaultPlan *plan) { faults_ = plan; }

    /**
     * Pointer-chase hook: report the value of an 8-byte integer load so
     * the hardware pointer-chase prefetcher can chase it.  No-op without
     * an engine; below the trigger latency the engine has no side
     * effects, which keeps the fastPath bit-identity (line-buffer hits
     * are always below it).
     */
    void observeLoadedValue(Addr pc, Addr ea, std::uint64_t value,
                            std::uint32_t latency, Cycle now);

    /** Hardware-prefetch engine, or nullptr when hwPrefetch is off. */
    HwPrefetchEngine *hwPrefetch() { return hwpf_.get(); }
    const HwPrefetchEngine *hwPrefetch() const { return hwpf_.get(); }

  private:
    /** Train the hw prefetchers on one demand event, then issue any
     *  candidates through the shared prefetch bus budget. */
    void hwpfObserveDemand(Addr pc, Addr addr, Cycle now);

    /** Drain the engine's candidate buffer onto the bus, charging the
     *  same throttle budget as software prefetch(). */
    void issueHwCandidates(Cycle now);

    /**
     * Resolve a miss below L2: probe L3, then memory; schedule fills.
     * @return absolute cycle at which the line's data is available.
     */
    Cycle
    resolveBelowL2(Addr addr, Cycle now, bool prefetch_fill)
    {
        Cycle ready;
        Addr line = l3_.lineNum(addr);
        InFlightMemo &memo = l3Memo_[line & (l3Memo_.size() - 1)];
        if (config_.fastPath && memo.line == line &&
            (memo.generation == l3_.generation() ||
             l3_.residentAt(memo.index, line))) {
            // The line is still in L3 at the remembered index: replay
            // the exact hit path (stats + LRU touch) without the walk.
            memo.generation = l3_.generation();
            Cycle ra = l3_.accessResidentAt(memo.index, now);
            ready = std::max(now + config_.l3.hitLatency, ra);
        } else {
            auto l3res = l3_.access(addr, now);
            std::uint32_t idx;
            if (l3res.hit) {
                ready = std::max(now + config_.l3.hitLatency,
                                 l3res.readyAt);
                idx = l3_.indexOf(addr);
            } else {
                ready = scheduleMemoryFill(now);
                idx = l3_.fill(addr, ready, prefetch_fill);
            }
            memo = {line, idx, l3_.generation()};
        }
        l2_.fill(addr, ready, prefetch_fill);
        return ready;
    }

    /** Schedule a memory fill on the bus; returns data-ready time. */
    Cycle
    scheduleMemoryFill(Cycle now)
    {
        Cycle start = std::max(now, busFreeAt_);
        std::uint32_t occupancy = config_.busOccupancy;
        std::uint32_t latency = config_.memLatency;
        if (faults_) {
            // Chaos channels: a squeezed fill holds the bus longer
            // (bandwidth contention from "other" traffic); a jittered
            // fill pays extra latency (row conflicts, refresh).
            occupancy += faults_->busSqueeze();
            latency += faults_->memLatencyJitter();
        }
        busFreeAt_ = start + occupancy;
        return start + latency;
    }

    /**
     * MSHR-style memo of a line with an outstanding (or just-completed)
     * fill in one cache level: line number, the index it occupies, and
     * the level's generation when armed.  Valid while the generation
     * matches, revalidated against the tag otherwise.
     */
    struct InFlightMemo
    {
        Addr line = ~Addr{0};
        std::uint32_t index = 0;
        std::uint64_t generation = ~std::uint64_t{0};
    };

    HierarchyConfig config_;
    HierarchyStats stats_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache l3_;
    Cycle busFreeAt_ = 0;
    std::uint64_t generation_ = 0;
    fault::FaultPlan *faults_ = nullptr;  ///< not owned; may be null
    /** Dedup for back-to-back lfetches: keyed on L2 line number. */
    std::array<InFlightMemo, 8> prefetchMshr_{};
    /** Dedup for below-L2 resolution: keyed on L3 line number. */
    std::array<InFlightMemo, 4> l3Memo_{};
    /** Hardware-prefetcher zoo; null unless hwPrefetch.enabled. */
    std::unique_ptr<HwPrefetchEngine> hwpf_;
};

} // namespace adore

#endif // ADORE_MEM_HIERARCHY_HH
