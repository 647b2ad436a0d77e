/**
 * @file
 * The simulated process text: a bundle-addressed code space with two
 * regions — the static text segment produced by the compiler and the
 * shared-memory *trace pool* that dyn_open creates for optimized traces
 * (paper Section 2.2).
 *
 * Patching follows Section 2.5: the first bundle of a selected trace in
 * the original code is replaced by a single-branch bundle that jumps into
 * the trace pool; the replaced bundle is saved so the optimizer can
 * unpatch later by writing it back.
 */

#ifndef ADORE_PROGRAM_CODE_IMAGE_HH
#define ADORE_PROGRAM_CODE_IMAGE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/bundle.hh"

namespace adore
{

class CodeImage
{
  public:
    /** Text segment base (matches a typical Linux/IA64 layout flavor). */
    static constexpr Addr textBase = 0x4000000;
    /** Trace pool base: far from text, as a separate shared mapping. */
    static constexpr Addr poolBase = 0x10000000;

    /** Sentinel address: a pool allocation that was refused. */
    static constexpr Addr badAddr = ~Addr{0};

    /**
     * Region granularity for the generation counters: 64 bundles
     * (1 KiB).  Small enough that an ADORE patch (one bundle) bumps
     * only its own neighbourhood; large enough that a max-size
     * superblock (kSuperblockMaxBundles = 64) spans at most two
     * regions, keeping spanGeneration() a two-load check.
     */
    static constexpr unsigned regionShift = 10;
    static constexpr Addr regionBytes = Addr{1} << regionShift;

    /** Append a bundle to the text segment; returns its address. */
    Addr appendText(const Bundle &bundle);

    /**
     * Reserve @p bundles consecutive pool slots; returns base address.
     * Panics when the pool is capacity-bounded and full — callers that
     * must handle exhaustion use tryAllocTrace().
     */
    Addr allocTrace(std::size_t bundles);

    /**
     * Capacity-aware allocation: like allocTrace(), but returns
     * badAddr instead of panicking when the reservation would exceed
     * the configured pool capacity.  The pool is left untouched on
     * refusal, so the caller can retry with a smaller trace or treat
     * exhaustion as a recoverable fault (AdoreRuntime::commitTrace).
     */
    Addr tryAllocTrace(std::size_t bundles);

    /**
     * Bound the trace pool to @p bundles total (0 = unbounded, the
     * default).  Models the fixed-size shared mapping dyn_open creates:
     * a real pool cannot grow on demand.  Shrinking below the current
     * allocation only affects future allocations.
     */
    void setPoolCapacity(std::size_t bundles) { poolCapacity_ = bundles; }

    std::size_t poolCapacity() const { return poolCapacity_; }

    /** Pool slots still allocatable (SIZE_MAX when unbounded). */
    std::size_t
    poolRemaining() const
    {
        if (poolCapacity_ == 0)
            return static_cast<std::size_t>(-1);
        return poolCapacity_ > pool_.size() ? poolCapacity_ - pool_.size()
                                            : 0;
    }

    /** Overwrite a bundle anywhere in the image. */
    void writeBundle(Addr addr, const Bundle &bundle);

    /** Fetch the bundle at @p addr (must exist). */
    const Bundle &fetch(Addr addr) const;

    /**
     * Bounds-checked single-pass fetch for the interpreter hot loop:
     * returns nullptr instead of panicking when @p addr is outside the
     * image.  The pointer is invalidated by image mutation — check
     * cacheKey(addr) before reusing a cached result.
     */
    const Bundle *
    fetchFast(Addr addr) const
    {
        if (addr >= poolBase) {
            std::size_t idx =
                static_cast<std::size_t>(addr - poolBase) / isa::bundleBytes;
            return idx < pool_.size() ? &pool_[idx] : nullptr;
        }
        if (addr < textBase)
            return nullptr;
        std::size_t idx =
            static_cast<std::size_t>(addr - textBase) / isa::bundleBytes;
        return idx < text_.size() ? &text_[idx] : nullptr;
    }

    /**
     * Per-region generation counter (DESIGN.md §12).  Every mutation
     * bumps only the 1 KiB regions its address range touches: an
     * appendText bumps the region the new bundle lands in, a trace
     * allocation bumps the regions the reservation covers, and a
     * writeBundle (the patch/unpatch primitive) bumps exactly the
     * patched bundle's region.  Addresses outside the image read as
     * generation 0, so a region's generation is well-defined before
     * anything is ever written there.
     */
    std::uint64_t
    regionGeneration(Addr addr) const
    {
        if (addr >= poolBase) {
            std::size_t r =
                static_cast<std::size_t>(addr - poolBase) >> regionShift;
            return r < poolGens_.size() ? poolGens_[r] : 0;
        }
        if (addr < textBase)
            return 0;
        std::size_t r =
            static_cast<std::size_t>(addr - textBase) >> regionShift;
        return r < textGens_.size() ? textGens_[r] : 0;
    }

    /**
     * Sum of the generations of every region overlapping the inclusive
     * bundle-address span [@p begin, @p last].  Monotonic: any mutation
     * that can change a byte in the span strictly increases the sum, so
     * "spanGeneration unchanged" proves "span content unchanged".  A
     * superblock records this at build time and revalidates against it
     * (at most two regions for a max-size block).
     */
    std::uint64_t
    spanGeneration(Addr begin, Addr last) const
    {
        std::uint64_t sum = 0;
        for (Addr a = begin & ~(regionBytes - 1); a <= last;
             a += regionBytes)
            sum += regionGeneration(a);
        return sum;
    }

    /**
     * Invalidation key for caches holding a `const Bundle *` into this
     * image (the Cpu's decoded-bundle cache).  Two hazards must both
     * key it: in-place content changes (caught by the region
     * generation) and vector reallocation that dangles the pointer
     * (caught by the owning segment's layout version — appendText can
     * move every text bundle, tryAllocTrace every pool bundle).  Both
     * terms are monotonic, so the sum is monotonic per address.
     */
    std::uint64_t
    cacheKey(Addr addr) const
    {
        // Fused single-segment-test form of
        // layoutVersion(addr) + regionGeneration(addr): this runs once
        // per interpreted bundle, so the double dispatch the composed
        // form would pay matters.  (addr < textBase underflows to a
        // huge index and fails the bounds check, reading generation 0
        // exactly as regionGeneration() would.)
        if (addr >= poolBase) {
            std::size_t r =
                static_cast<std::size_t>(addr - poolBase) >> regionShift;
            return poolLayout_ + (r < poolGens_.size() ? poolGens_[r] : 0);
        }
        std::size_t r =
            static_cast<std::size_t>(addr - textBase) >> regionShift;
        return textLayout_ + (r < textGens_.size() ? textGens_[r] : 0);
    }

    /**
     * Total region-generation bumps since construction.  The runtime
     * samples deltas of this around patch/revert batches to report how
     * much superblock state each image mutation could have invalidated
     * (`tier.region_gen_bumps`).
     */
    std::uint64_t regionBumpCount() const { return regionBumps_; }

    bool contains(Addr addr) const;
    static bool inPool(Addr addr) { return addr >= poolBase; }
    bool inText(Addr addr) const;

    /**
     * Patch: replace the bundle at @p orig_addr with an unconditional
     * branch to @p trace_addr, saving the original for unpatch().
     */
    void patch(Addr orig_addr, Addr trace_addr);

    /** Restore the saved bundle at @p orig_addr. */
    void unpatch(Addr orig_addr);

    bool isPatched(Addr orig_addr) const;

    std::size_t textBundles() const { return text_.size(); }
    std::size_t poolBundles() const { return pool_.size(); }

    /** Static binary size in bytes (Table 1's binary-size column). */
    std::size_t textBytes() const { return text_.size() * isa::bundleBytes; }

    Addr textEnd() const;
    Addr poolEnd() const;

    /** pc -> source loop id (-1 when none), from insn annotations. */
    int loopIdAt(Addr pc) const;

  private:
    /** Bump the generation of every region overlapping [begin, last]. */
    void bumpRegions(Addr begin, Addr last);

    std::vector<Bundle> text_;
    std::vector<Bundle> pool_;
    std::unordered_map<Addr, Bundle> savedBundles_;
    std::vector<std::uint64_t> textGens_;  ///< per-region generations, text
    std::vector<std::uint64_t> poolGens_;  ///< per-region generations, pool
    std::uint64_t textLayout_ = 0;  ///< bumped when text_ may reallocate
    std::uint64_t poolLayout_ = 0;  ///< bumped when pool_ may reallocate
    std::uint64_t regionBumps_ = 0;
    std::size_t poolCapacity_ = 0;  ///< max pool bundles; 0 = unbounded
};

} // namespace adore

#endif // ADORE_PROGRAM_CODE_IMAGE_HH
