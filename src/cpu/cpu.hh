/**
 * @file
 * The simulated Itanium-2-class CPU: an in-order, stall-on-use timing
 * interpreter over the mini-IA64 ISA.
 *
 * Timing model:
 *  - up to two bundles issue per cycle (the paper's "two bundles per
 *    cycle" constraint, Section 1.3);
 *  - per-register ready times implement stall-on-use: a load issues
 *    without stalling, and a later reader of its destination stalls the
 *    pipeline until the cache fill completes;
 *  - an instruction that reads a register written earlier in the *same*
 *    bundle pays a one-cycle split-issue penalty (the stop-bit cost);
 *  - taken branches pay a one-cycle redirect bubble; direction
 *    mispredicts pay a flush penalty;
 *  - instruction fetch goes through the L1I; trace-pool execution
 *    therefore has real I-cache effects (gcc's loss / vortex's gain).
 *
 * PMU integration: every retired load reports its latency to the DEAR;
 * every retired branch is recorded in the BTB; a Sampler (when attached)
 * snapshots the n-tuple every R cycles and charges sampling overhead.
 * Periodic hooks let the ADORE runtime poll "every 100 ms" of simulated
 * time without a host thread.
 */

#ifndef ADORE_CPU_CPU_HH
#define ADORE_CPU_CPU_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "isa/bundle.hh"
#include "mem/hierarchy.hh"
#include "mem/main_memory.hh"
#include "pmu/pmu.hh"
#include "pmu/sampler.hh"
#include "program/code_image.hh"

namespace adore
{

class SuperblockCache;
struct Superblock;
struct SuperblockStats;

/**
 * Execution tier (DESIGN.md §12).  Interpreter runs every bundle
 * through step(); DirectThreaded additionally promotes hot regions into
 * flattened superblocks executed with pre-bound handler dispatch.  Both
 * tiers produce bit-identical simulated results (metrics, sampler
 * accounting, decision-event streams — tests/test_toggle_sweep.cc), so
 * DirectThreaded is the default; Interpreter remains the oracle the
 * toggle tests compare against.
 */
enum class ExecTier : std::uint8_t { Interpreter, DirectThreaded };

/** Stable tier name for reports/metrics ("interpreter" / ...). */
const char *execTierName(ExecTier tier);

struct CpuConfig
{
    int bundlesPerCycle = 2;
    std::uint32_t takenBranchBubble = 1;
    std::uint32_t mispredictPenalty = 6;
    std::uint32_t fpOpLatency = 4;
    std::uint32_t dearLatencyThreshold = 8;
    ExecTier execTier = ExecTier::DirectThreaded;
    /**
     * Decoded-bundle cache entries (power of two).  Must cover the
     * bundle working set of the hot region or the direct-mapped
     * training counters thrash and superblocks never form: 4 entries
     * only ever promoted loops of up to 4 bundles, which starved
     * ADORE-patched pool traces (init + prefetch bundles push the hot
     * loop past 4).  64 matches kSuperblockMaxBundles.  The same value
     * is the set count of the 4-way LRU superblock cache (same keying:
     * both track the bundles of the current hot region).  Host-only:
     * sizing cannot affect simulated metrics.
     */
    std::uint32_t bundleCacheEntries = 64;
    /**
     * Non-sequential arrivals at one bundle address (taken-branch
     * targets, block exits, setPc — never fall-through; at an unchanged
     * region cache key) that trigger superblock formation: the
     * threshold-th such arrival builds.  0 disables formation entirely.
     */
    std::uint32_t superblockHotThreshold = 16;
    /**
     * Build-time peephole fusion of compare+branch pairs and the
     * loop-tail patterns into combined handlers.  Pure host
     * optimization — the fused handlers are exact concatenations of the
     * unfused ones, pinned bit-identical across the registry by
     * tests/test_toggle_sweep.cc.
     */
    bool superblockFusion = true;
};

class Cpu
{
  public:
    Cpu(CodeImage &code, CacheHierarchy &caches, MainMemory &memory,
        const CpuConfig &config = CpuConfig());
    ~Cpu();  // out of line: SuperblockCache is incomplete here

    /// @name Architectural state
    /// @{
    std::int64_t intReg(int i) const { return r_[static_cast<size_t>(i)]; }
    void setIntReg(int i, std::int64_t v);
    double fpReg(int i) const { return f_[static_cast<size_t>(i)]; }
    void setFpReg(int i, double v);
    bool predReg(int i) const { return p_[static_cast<size_t>(i)]; }
    void setPredReg(int i, bool v);
    Addr pc() const { return pc_; }
    void
    setPc(Addr pc)
    {
        pc_ = pc;
        seqNext_ = ~Addr{0};  // a redirect is never a fall-through
    }
    /// @}

    /** Attach the PMU sampler (nullptr detaches). */
    void
    setSampler(Sampler *sampler)
    {
        sampler_ = sampler;
        recomputeNextEvent();
    }

    /**
     * Recompute the event watermark after an external change to the
     * attached sampler's schedule (enable/disable or interval change)
     * made outside a periodic hook.  run() and every in-step event
     * service refresh the watermark themselves; direct step() drivers
     * that reconfigure a live sampler must call this once afterwards.
     */
    void noteEventSourcesChanged() { recomputeNextEvent(); }

    /**
     * Register a hook invoked whenever the cycle counter crosses a
     * multiple of @p period (the ADORE optimizer-thread poll).
     */
    using PeriodicHook = std::function<void(Cycle)>;
    void addPeriodicHook(Cycle period, PeriodicHook hook);

    /** Charge overhead cycles to the main thread (signal handlers...). */
    void chargeCycles(Cycle n) { cycle_ += n; }

    /**
     * Flush the stat deltas deferred by the load line buffer into the
     * hierarchy/L1D counters.  run() flushes on exit and step() flushes
     * before servicing sampler/hook events, so cache statistics read
     * after run() — or from inside a periodic hook — are always exact.
     * Drivers that call step() directly must call this once before
     * reading cache statistics mid-run.
     */
    void
    syncDeferredMemStats()
    {
        if (deferredLoadLineHits_) {
            caches_.addDeferredLoadLineHits(deferredLoadLineHits_);
            deferredLoadLineHits_ = 0;
        }
        if (deferredStoreLineHits_) {
            caches_.addDeferredStoreLineHits(deferredStoreLineHits_);
            deferredStoreLineHits_ = 0;
        }
        if (deferredFpLoadHits_) {
            caches_.addDeferredFpLoadHits(deferredFpLoadHits_);
            deferredFpLoadHits_ = 0;
        }
        if (deferredFpStoreHits_) {
            caches_.addDeferredFpStoreHits(deferredFpStoreHits_);
            deferredFpStoreHits_ = 0;
        }
    }

    struct RunResult
    {
        bool halted = false;
        Cycle cycles = 0;
        std::uint64_t retired = 0;
    };

    /**
     * Run until Halt retires or @p max_cycles elapses.
     */
    RunResult run(Cycle max_cycles);

    /** Execute one bundle. @return false once halted. */
    bool step();

    /**
     * Cooperative external stop (DESIGN.md §15): ask run() to return at
     * the next loop-top check.  Safe to call from another thread (the
     * daemon's deadline monitor); the flag is sticky until
     * clearStopRequest().  Stop latency is one superblock excursion at
     * worst, so callers wanting a bound register a periodic hook that
     * forwards their cancel flag here (Experiment's RunConfig::cancelFlag
     * does exactly that) — hooks force event exits at hook cadence.
     */
    void
    requestStop()
    {
        stopRequested_.store(true, std::memory_order_relaxed);
    }

    bool
    stopRequested() const
    {
        return stopRequested_.load(std::memory_order_relaxed);
    }

    void
    clearStopRequest()
    {
        stopRequested_.store(false, std::memory_order_relaxed);
    }

    bool halted() const { return halted_; }
    Cycle cycle() const { return cycle_; }

    const PerfCounters &counters() const { return counters_; }
    Dear &dear() { return dear_; }
    BranchTraceBuffer &btb() { return btb_; }
    CacheHierarchy &caches() { return caches_; }
    MainMemory &memory() { return memory_; }
    CodeImage &code() { return code_; }
    const CpuConfig &config() const { return config_; }

    /// @name Superblock execution tier (exec_tier.cc, DESIGN.md §12)
    /// @{
    /** Host-side tier accounting (builds, evictions, dispatches). */
    const SuperblockStats &superblockStats() const;
    /**
     * The cached superblock headed at @p head, valid against the
     * current region generations, or null.  Side-effect-free (tests).
     */
    const Superblock *superblockAt(Addr head) const;
    /// @}

  private:
    void execBundle(const Bundle &bundle, Addr bundle_addr);
    void execInsn(const Insn &insn, Addr insn_pc, Addr bundle_addr);
    void execBranch(const Insn &insn, Addr insn_pc, Addr bundle_addr);

    /**
     * Build a superblock headed at @p head from the current image and
     * install it in the superblock cache.  Called from step() when a
     * decoded-bundle-cache entry's non-sequential arrivals reach
     * superblockHotThreshold.
     */
    void buildSuperblockAt(Addr head);

    /**
     * Execute @p sb until a side exit, the back-edge failing, an event
     * service, the cycle budget, or halt.  Defined in exec_tier.cc with
     * computed-goto dispatch (portable switch fallback).  Calling with
     * sb == nullptr performs no execution and returns the handler label
     * table (null in switch-fallback builds) — the builder's one way to
     * reach the function-local label addresses.
     */
    const void *const *execSuperblock(Superblock *sb, Cycle max_cycles);

    /** Stall until @p ready_at; resets the issue counter when stalling. */
    void
    waitUntil(Cycle ready_at)
    {
        if (ready_at > cycle_) {
            cycle_ = ready_at;
            issuedThisCycle_ = 0;
        }
    }

    /**
     * Stall until every source register of @p insn is ready.  The
     * predecoded operand masks (Insn::predecode) replace a per-opcode
     * switch: one overlap test against the written-this-bundle masks for
     * the split-issue charge, then a ready-time walk over the set bits.
     * Defined in-class so the per-instruction hot path inlines it.
     */
    void
    waitForSources(const Insn &insn)
    {
        std::uint32_t im = insn.srcIntMask;
        std::uint32_t fm = insn.srcFpMask;
        if ((im | fm) == 0)
            return;

        if (intWrittenMask_ & im)
            splitIssueCharged_ = true;
        // Single integer source (the most common shape: loads, moves,
        // addi) needs no max-reduction loop.
        if (fm == 0 && (im & (im - 1)) == 0) {
            waitUntil(rReady_[static_cast<unsigned>(std::countr_zero(im))]);
            return;
        }

        Cycle ready = 0;
        while (im) {
            ready = std::max(
                ready, rReady_[static_cast<unsigned>(std::countr_zero(im))]);
            im &= im - 1;
        }
        if (fpWrittenMask_ & fm)
            splitIssueCharged_ = true;
        while (fm) {
            ready = std::max(
                ready, fReady_[static_cast<unsigned>(std::countr_zero(fm))]);
            fm &= fm - 1;
        }
        waitUntil(ready);
    }

    /**
     * Register writeback with ready-time and written-this-bundle mask
     * maintenance.  The single definition both execInsn and the
     * superblock handlers (exec_tier.cc) use, so the two execution
     * tiers cannot drift on writeback semantics.  r0/f0 are hardwired
     * zero and never written.
     */
    void
    writeIntReg(std::uint8_t rd, std::int64_t v, Cycle ready)
    {
        if (rd == 0)
            return;
        r_[rd] = v;
        rReady_[rd] = ready;
        intWrittenMask_ |= 1u << rd;
    }

    void
    writeFpReg(std::uint8_t fd, double v, Cycle ready)
    {
        if (fd == 0)
            return;
        f_[fd] = v;
        fReady_[fd] = ready;
        fpWrittenMask_ |= static_cast<std::uint16_t>(1u << fd);
    }

    /**
     * Integer-side demand load through the load line buffer.
     *
     * The buffer is a small direct-mapped cache keyed on (line address,
     * hierarchy generation): an entry proves its line was resident in
     * L1D at the remembered index when armed.  A load whose line is
     * still resident (generation match, or tag revalidation after the
     * generation moved) and whose fill has completed resolves to
     * {L1D hit latency, MemLevel::L1} without walking the hierarchy —
     * exactly what CacheHierarchy::load() would return.  The LRU touch
     * happens inline (identical useClock sequence to the slow path);
     * the {loads, accesses, hits} increments are deferred into
     * deferredLoadLineHits_ and flushed by syncDeferredMemStats().
     * Defined in-class so the per-load hot path inlines it.
     */
    MemAccessResult
    loadInt(Addr ea, Addr pc = 0)
    {
        if (memFastPath_) {
            Addr line = ea >> l1dLineShift_;
            LoadLineEntry &e =
                loadLineBuf_[static_cast<std::size_t>(line) &
                             (loadLineBuf_.size() - 1)];
            if (e.line == line &&
                (e.generation == caches_.generation() ||
                 l1dFast_->residentAt(e.index, line)) &&
                l1dFast_->readyAtOf(e.index) <= cycle_) {
                e.generation = caches_.generation();
                l1dFast_->touch(e.index);
                ++deferredLoadLineHits_;
                return {l1dHitLatency_, MemLevel::L1};
            }
            // Likely a simulated miss: overlap the host cache misses of
            // the walk (set metadata) and of the upcoming data read.
            caches_.hostPrefetchWalk(ea);
            memory_.hostPrefetch(ea);
            MemAccessResult res = caches_.load(ea, cycle_, false, pc);
            // Arm the buffer: the slow path always leaves the line
            // resident in L1D (hit, or miss + fill), and just made its
            // way the set's MRU, so this lookup is one probe.
            std::uint32_t idx = l1dFast_->indexOf(ea);
            if (idx != Cache::npos)
                e = {line, idx, caches_.generation()};
            return res;
        }
        return caches_.load(ea, cycle_, false, pc);
    }

    /**
     * Integer-side store through the same line buffer.  A store whose
     * line is resident and ready in L1D is exactly the slow path's
     * early-return hit: one {access, hit} on L1D plus the LRU touch and
     * the hierarchy's store count, nothing below L1D.  The touch happens
     * inline; the counters are deferred into deferredStoreLineHits_.
     */
    void
    storeInt(Addr ea)
    {
        if (memFastPath_) {
            Addr line = ea >> l1dLineShift_;
            LoadLineEntry &e =
                loadLineBuf_[static_cast<std::size_t>(line) &
                             (loadLineBuf_.size() - 1)];
            if (e.line == line &&
                (e.generation == caches_.generation() ||
                 l1dFast_->residentAt(e.index, line)) &&
                l1dFast_->readyAtOf(e.index) <= cycle_) {
                e.generation = caches_.generation();
                l1dFast_->touch(e.index);
                ++deferredStoreLineHits_;
                return;
            }
            caches_.hostPrefetchWalk(ea);
            caches_.store(ea, cycle_, false);
            // The slow path always leaves the line resident in L1D
            // (hit, or miss + write-allocate fill).
            std::uint32_t idx = l1dFast_->indexOf(ea);
            if (idx != Cache::npos)
                e = {line, idx, caches_.generation()};
            return;
        }
        caches_.store(ea, cycle_, false);
    }

    /**
     * FP-side demand load through the FP line buffer over L2.  FP
     * accesses bypass L1D (Itanium 2), so a ready L2 hit is their whole
     * hierarchy walk: the slow path would return {L2 hit latency,
     * MemLevel::L2} after one {access, hit} on L2 plus the LRU touch and
     * the load count.  Same generation/tag-revalidation scheme as the
     * integer buffer, keyed on the L2 line number and L2 generation.
     */
    MemAccessResult
    loadFp(Addr ea, Addr pc = 0)
    {
        if (memFastPath_) {
            Addr line = ea >> l2LineShift_;
            LoadLineEntry &e =
                fpLineBuf_[static_cast<std::size_t>(line) &
                           (fpLineBuf_.size() - 1)];
            if (e.line == line &&
                (e.generation == l2Fast_->generation() ||
                 l2Fast_->residentAt(e.index, line)) &&
                l2Fast_->readyAtOf(e.index) <= cycle_) {
                e.generation = l2Fast_->generation();
                l2Fast_->touch(e.index);
                ++deferredFpLoadHits_;
                return {l2HitLatency_, MemLevel::L2};
            }
            MemAccessResult res = caches_.load(ea, cycle_, true, pc);
            // Hit or miss, the slow path leaves the line resident in L2.
            std::uint32_t idx = l2Fast_->indexOf(ea);
            if (idx != Cache::npos)
                e = {line, idx, l2Fast_->generation()};
            return res;
        }
        return caches_.load(ea, cycle_, true, pc);
    }

    /** FP-side store: same L2 short-circuit as loadFp(). */
    void
    storeFp(Addr ea)
    {
        if (memFastPath_) {
            Addr line = ea >> l2LineShift_;
            LoadLineEntry &e =
                fpLineBuf_[static_cast<std::size_t>(line) &
                           (fpLineBuf_.size() - 1)];
            if (e.line == line &&
                (e.generation == l2Fast_->generation() ||
                 l2Fast_->residentAt(e.index, line)) &&
                l2Fast_->readyAtOf(e.index) <= cycle_) {
                e.generation = l2Fast_->generation();
                l2Fast_->touch(e.index);
                ++deferredFpStoreHits_;
                return;
            }
            caches_.store(ea, cycle_, true);
            std::uint32_t idx = l2Fast_->indexOf(ea);
            if (idx != Cache::npos)
                e = {line, idx, l2Fast_->generation()};
            return;
        }
        caches_.store(ea, cycle_, true);
    }

    void runHooks();
    void maybeSample(Addr bundle_addr);

    /**
     * Recompute nextEventAt_: the earliest cycle at which the sampler or
     * any periodic hook can fire.  The per-step fast path does a single
     * comparison against it instead of polling every event source.
     */
    void recomputeNextEvent();

    CodeImage &code_;
    CacheHierarchy &caches_;
    MainMemory &memory_;
    CpuConfig config_;

    // Architectural state.
    std::array<std::int64_t, isa::numIntRegs> r_{};
    std::array<double, isa::numFpRegs> f_{};
    std::array<bool, isa::numPredRegs> p_{};
    std::array<Addr, isa::numBranchRegs> b_{};
    Addr pc_ = CodeImage::textBase;

    // Timing state.
    std::array<Cycle, isa::numIntRegs> rReady_{};
    std::array<Cycle, isa::numFpRegs> fReady_{};
    Cycle cycle_ = 0;
    int issuedThisCycle_ = 0;
    std::uint32_t intWrittenMask_ = 0;  ///< regs written in current bundle
    std::uint16_t fpWrittenMask_ = 0;
    bool splitIssueCharged_ = false;
    Addr nextPc_ = 0;
    /**
     * Fall-through successor of the last interpreted bundle (~0 after
     * setPc or a superblock excursion).  step() compares against it to
     * tell trace heads from interior bundles.
     */
    Addr seqNext_ = ~Addr{0};
    bool branchTaken_ = false;
    bool halted_ = false;
    /** Cooperative run()-loop stop flag (requestStop). Relaxed order is
     *  enough: the requester never reads simulation state back, and the
     *  joining path that does (the daemon worker) synchronizes through
     *  its own job-state mutex. */
    std::atomic<bool> stopRequested_{false};

    // Interpreter fast-path state (pure caches: no timing-model effect).
    // All of it is gated on memFastPath_ (HierarchyConfig::fastPath) so
    // the toggle-and-compare test can run the reference paths instead.
    Addr ifetchLineMask_ = 0;          ///< ~(L1I line size - 1)
    Addr lastIfetchLine_ = ~Addr{0};   ///< line of the previous ifetch
    Cycle lastIfetchReadyAt_ = 0;      ///< when that line's fill completes
    /**
     * Load line buffer over L1D (see loadInt()).  Thirty-two
     * direct-mapped entries cover the hot data lines of a loop body —
     * the chased node's fields plus a few streamed side arrays — with
     * few conflicts between unrelated line numbers.
     */
    struct LoadLineEntry
    {
        Addr line = ~Addr{0};          ///< full L1D line number
        std::uint32_t index = 0;       ///< line index in the L1D SoA
        std::uint64_t generation = ~std::uint64_t{0};
    };
    std::array<LoadLineEntry, 32> loadLineBuf_{};
    /**
     * FP line buffer over L2 (see loadFp()).  FP accesses bypass L1D, so
     * a ready L2 hit resolves the whole walk; eight entries cover the
     * streamed FP arrays of a loop body.
     */
    std::array<LoadLineEntry, 8> fpLineBuf_{};
    std::uint64_t deferredLoadLineHits_ = 0;
    std::uint64_t deferredStoreLineHits_ = 0;
    std::uint64_t deferredFpLoadHits_ = 0;
    std::uint64_t deferredFpStoreHits_ = 0;
    Cache *l1dFast_;                   ///< &caches_.l1dFast()
    Cache *l2Fast_;                    ///< &caches_.l2Fast()
    bool memFastPath_;                 ///< HierarchyConfig::fastPath
    bool hwpfValueObserve_;            ///< hw pointer-chase hook armed
    std::uint32_t l1dHitLatency_;
    std::uint32_t l2HitLatency_;
    std::uint32_t l1dLineShift_;
    std::uint32_t l2LineShift_;
    /**
     * Small direct-mapped decoded-bundle cache keyed on (address,
     * CodeImage::cacheKey).  CpuConfig::bundleCacheEntries sizes it
     * (64 by default: the bundle working set of an ADORE-patched hot
     * loop).  The region-keyed cacheKey means only mutations
     * touching an entry's own region (or reallocating its owning
     * segment) invalidate it — an ADORE patch elsewhere leaves the
     * entry, and its hotness training, intact.  `hits` is the
     * execution tier's hotness signal and counts only non-sequential
     * arrivals (trace heads, as in Dynamo): taken-branch targets,
     * block exits and setPc, never fall-through from the previous
     * bundle.  When it reaches superblockHotThreshold, the address is
     * superblock-worthy; interior loop bundles never get there.
     */
    struct BundleCacheEntry
    {
        Addr addr = ~Addr{0};
        std::uint64_t key = 0;
        const Bundle *bundle = nullptr;
        std::uint32_t hits = 0;  ///< non-sequential arrivals
    };
    std::vector<BundleCacheEntry> bundleCache_;
    std::size_t bundleCacheMask_;
    /** Superblock tier state (exec_tier.hh): one 4-way set per
     *  bundleCache_ entry. */
    std::unique_ptr<SuperblockCache> superblocks_;
    bool execTierEnabled_;             ///< CpuConfig::execTier
    /** Earliest cycle at which the sampler or a hook can fire. */
    Cycle nextEventAt_ = ~Cycle{0};

    BranchPredictor predictor_;
    PerfCounters counters_;
    Dear dear_;
    BranchTraceBuffer btb_;
    Sampler *sampler_ = nullptr;

    struct Hook
    {
        Cycle period;
        Cycle nextAt;
        PeriodicHook fn;
    };
    std::vector<Hook> hooks_;
};

} // namespace adore

#endif // ADORE_CPU_CPU_HH
