/**
 * @file
 * Direct-threaded superblock execution tier (DESIGN.md §12).
 *
 * The interpreter's step() pays per-bundle dispatch overhead — the
 * decoded-bundle-cache probe, the per-slot opcode switch, and the call
 * frames around execBundle — on every bundle, even inside a loop that
 * executes the same few bundles millions of times.  This tier stitches
 * the decoded bundles of a hot straight-line/loop region into one
 * flattened micro-op array ("superblock"): each micro-op carries a copy
 * of its decoded instruction, its precomputed addresses, and a
 * pre-bound handler pointer, so Cpu::execSuperblock can run the region
 * with computed-goto (labels-as-values) dispatch — one indirect jump
 * per micro-op — falling back to a portable switch loop on compilers
 * without the GNU extension.
 *
 * The tier is a pure host optimization: every handler performs exactly
 * the simulated work of the interpreter path (ifetch timing, issue
 * limits, stall-on-use waits, split-issue charges, DEAR/BTB reporting,
 * the PMU event watermark), so metrics, sampler accounting, and
 * decision-event streams are bit-identical with the tier on or off
 * (tests/test_toggle_sweep.cc).
 *
 * Lifecycle (region-keyed, DESIGN.md §12): a superblock records the
 * sum of the CodeImage per-region generation counters over its bundle
 * span at build time; a lookup revalidates that sum, so only mutations
 * that touched the block's own 1 KiB regions kill it — an ADORE patch
 * to one loop head no longer flushes every other region's blocks.  A
 * block is never executing while the image mutates: all runtime image
 * mutations happen inside periodic hooks, and the executor exits the
 * block whenever the event watermark fires.
 *
 * Blocks whose exit lands on another cached block's head are *chained*:
 * the executor jumps straight to the target's uops (revalidating the
 * target's span generations first) without returning to the run() loop,
 * keeping the register-hoisted state and the pending-ready watermark
 * live across the transition.  Links carry unlink-on-invalidate
 * bookkeeping (each block knows its incoming linkers) so a dead block
 * never leaves a dangling chain pointer behind.
 */

#ifndef ADORE_CPU_EXEC_TIER_HH
#define ADORE_CPU_EXEC_TIER_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/bundle.hh"
#include "isa/insn.hh"
#include "program/code_image.hh"
#include "support/stat_fields.hh"

namespace adore
{

/** @name Superblock tier constants (host-only: none can change a
 *  simulated result, and the toggle sweep pins the tier bit-identical
 *  at these values).  Blocks always chain: a block exit that lands on
 *  another valid block's head jumps straight to its uops, and a block
 *  leaves the cache only when its code changes or LRU evicts it. */
/// @{
/** Maximum bundles stitched into one superblock (one 1 KiB region). */
constexpr std::uint32_t kSuperblockMaxBundles = 64;
/**
 * Decoded-bundle cache entries, and the set count of the 8-way LRU
 * superblock cache (both track the bundles of the current hot region).
 * Must cover the bundle working set of the hot region or the
 * direct-mapped training counters thrash and blocks never form: 4
 * entries only ever promoted loops of up to 4 bundles, which starved
 * ADORE-patched pool traces.  Matches kSuperblockMaxBundles.
 */
constexpr std::uint32_t kBundleCacheEntries = 64;
static_assert(std::has_single_bit(kBundleCacheEntries),
              "kBundleCacheEntries must be a power of two");
/**
 * Non-sequential arrivals at one bundle address (taken-branch targets,
 * block exits, setPc — never fall-through; at an unchanged region
 * cache key) that build a superblock headed there: the
 * threshold-th such arrival builds (Dynamo's trace-head rule).
 */
constexpr std::uint32_t kSuperblockHotThreshold = 16;
/// @}

/**
 * Micro-op kinds, one per executor handler.  The X-macro keeps the
 * enum, the computed-goto label table, and the switch fallback in sync
 * (exec_tier.cc builds all three from this list; order is load-bearing).
 *
 * Structural kinds frame each bundle: BundleStart replays step()'s
 * prologue (ifetch, issue limit, written-mask reset) for the region's
 * first bundle, BundleSeam replays the epilogue (split-issue charge,
 * pc update, event watermark) plus the next bundle's prologue at every
 * interior boundary, and BundleEndLast replays the final epilogue and
 * decides whether to loop back to the head or leave the block.
 * Instruction kinds map 1:1 onto opcodes (LdS shares Ld: identical
 * execution semantics).
 *
 * Fused kinds exist purely to cut dispatches on the hot path; each is
 * the exact concatenation of its constituent handlers, so they change
 * host cost only, never simulated behaviour:
 *  - BrLast        = a final-slot Br in the region's last bundle +
 *                    BundleEndLast (the loop back-edge)
 *  - Cmp**BrLast   = a compare immediately preceding that Br in the
 *                    same bundle + BrLast (the canonical `cmp ; br`
 *                    loop tail)
 *  - Cmp**Br       = the same `cmp ; br` pair anywhere else in the
 *                    region (interior side exits)
 * The pair kinds are produced by the build-time peephole pass, always
 * on; the interpreter tier is the oracle for the fused handlers.
 */
#define ADORE_SB_UOP_KINDS(X)                                           \
    X(BundleStart)                                                      \
    X(BundleEndLast)                                                    \
    X(Nop)                                                              \
    X(Add)                                                              \
    X(Sub)                                                              \
    X(Addi)                                                             \
    X(Shladd)                                                           \
    X(Mov)                                                              \
    X(Movi)                                                             \
    X(And)                                                              \
    X(Or)                                                               \
    X(Xor)                                                              \
    X(Shl)                                                              \
    X(Shr)                                                              \
    X(CmpLt)                                                            \
    X(CmpLe)                                                            \
    X(CmpEq)                                                            \
    X(CmpNe)                                                            \
    X(Ld)                                                               \
    X(Ldf)                                                              \
    X(St)                                                               \
    X(Stf)                                                              \
    X(Lfetch)                                                           \
    X(Getf)                                                             \
    X(Setf)                                                             \
    X(Fma)                                                              \
    X(Fadd)                                                             \
    X(Fmul)                                                             \
    X(Fsub)                                                             \
    X(Br)                                                               \
    X(BrCall)                                                           \
    X(BrRet)                                                            \
    X(Halt)                                                             \
    X(BundleSeam)                                                       \
    X(BrLast)                                                           \
    X(CmpLtBrLast)                                                      \
    X(CmpLeBrLast)                                                      \
    X(CmpEqBrLast)                                                      \
    X(CmpNeBrLast)                                                      \
    X(CmpLtBr)                                                          \
    X(CmpLeBr)                                                          \
    X(CmpEqBr)                                                          \
    X(CmpNeBr)

enum class UopKind : std::uint8_t
{
#define ADORE_SB_ENUM(k) k,
    ADORE_SB_UOP_KINDS(ADORE_SB_ENUM)
#undef ADORE_SB_ENUM
};

constexpr std::size_t numUopKinds = [] {
    std::size_t n = 0;
#define ADORE_SB_COUNT(k) ++n;
    ADORE_SB_UOP_KINDS(ADORE_SB_COUNT)
#undef ADORE_SB_COUNT
    return n;
}();

/**
 * One flattened micro-op.  The decoded instruction is copied in at
 * build time (not pointed to): bundle storage lives in std::vectors
 * that reallocate on append, and a copy both removes that hazard and
 * saves the pointer chase on the hot path.
 */
struct Uop
{
    /** Pre-bound computed-goto label (null in switch-fallback builds). */
    const void *handler = nullptr;
    UopKind kind = UopKind::Nop;
    Insn insn;             ///< decoded instruction, masks predecoded
    Insn insn2;            ///< fused pairs: the second instruction
    Addr insnPc = 0;       ///< bundle addr | slot (DEAR/BTB/predictor pc)
    Addr insnPc2 = 0;      ///< fused pairs: the second instruction's pc
    Addr bundleAddr = 0;   ///< owning (executed) bundle address
    /** BundleSeam: address of the bundle the seam starts (the epilogue
     *  side uses bundleAddr, the prologue side this). */
    Addr bundleAddr2 = 0;
    /** BundleStart/BundleSeam: the started bundle's ifetch line. */
    Addr fetchLine = 0;
    /** Index of the owning bundle's epilogue uop (BundleEnd* or seam);
     *  taken branches and halt jump here, mirroring the interpreter's
     *  per-slot break.  Self-referential in fused-branch bundles, where
     *  the branch carries its own epilogue. */
    std::uint32_t endIdx = 0;
};

/**
 * A superblock: single-entry, multi-exit run of decoded bundles
 * starting at `head`, flattened into micro-ops.  `loopBack` marks the
 * loop form — the last bundle's branch targets the head, and the
 * executor loops to uop[0] in place (after revalidating the span
 * generations) instead of exiting.
 *
 * Validity is region-keyed: `genSum` snapshots
 * CodeImage::spanGeneration(head, spanEnd) at build time, and the block
 * is valid iff that sum is unchanged — at most two region-counter loads
 * for a max-size block.
 */
struct Superblock
{
    Addr head = 0;
    Addr spanEnd = 0;          ///< last stitched bundle's address
    std::uint64_t genSum = 0;  ///< spanGeneration(head, spanEnd) at build
    bool loopBack = false;
    std::uint32_t bundles = 0;
    std::vector<Uop> uops;

    /**
     * Chain links: block exits resolved to another cached block.  A
     * link is followed only after revalidating the target's span
     * generations; `incoming` lists every block holding a link to this
     * one, so invalidation can null those links before the block dies
     * (SuperblockCache::unlinkBlock).  Four entries cover the exits a
     * region can produce (fall-through, loop exit, a couple of side
     * exits); overflow replaces round-robin.
     */
    struct ChainLink
    {
        Addr target = 0;
        Superblock *to = nullptr;
    };
    std::array<ChainLink, 4> chains{};
    std::uint32_t nextChain = 0;
    std::vector<Superblock *> incoming;
};

/** SuperblockStats fields, X(type, member, metric, description, class)
 *  (support/stat_fields.hh); exported as "tier.<metric>".  All Host:
 *  they count the host's block cache, not the simulated machine. */
#define ADORE_SUPERBLOCK_STATS(X)                                      \
    X(std::uint64_t, built, "blocks_built", "superblocks constructed", Host) \
    X(std::uint64_t, replaced, "blocks_replaced",                      \
      "superblocks evicted by LRU replacement", Host)                  \
    X(std::uint64_t, invalidated, "blocks_invalidated",                \
      "stale superblocks dropped at lookup", Host)                     \
    X(std::uint64_t, dispatches, "dispatches",                         \
      "run()-loop entries into a superblock", Host)                    \
    X(std::uint64_t, loopTrips, "loop_trips",                          \
      "inline superblock back-edges taken", Host)                      \
    X(std::uint64_t, chained, "chained",                               \
      "direct block-to-block transitions (no interpreter round-trip)", \
      Host)                                                            \
    X(std::uint64_t, demoted, "blocks_demoted",                        \
      "always 0: blocks leave only on a code change or LRU eviction", \
      Host)                                                            \
    X(std::uint64_t, fusedPairs, "fused_pairs",                        \
      "instruction pairs fused into combined uops at build", Host)

/** Host-side tier accounting (no simulated-timing meaning). */
struct SuperblockStats
{
    ADORE_STAT_FIELDS(SuperblockStats, ADORE_SUPERBLOCK_STATS)
};

/**
 * Eight-way set-associative superblock cache keyed on head bundle
 * address, with LRU replacement.  Cpu gives it kBundleCacheEntries
 * sets, the decoded-bundle cache's size (they cover the same working
 * set: the bundles of the current hot region).  Eight ways let the
 * heads of neighbouring loops that share a set stay resident together
 * instead of evicting each other on every phase repeat: gcc cycles
 * five hot heads through one set (four text loops 3 KiB apart and an
 * ADORE pool trace), which four ways thrash under LRU.  A lookup that
 * finds a block with a stale span-generation sum drops the block
 * (after unlinking it from the chain graph); nothing else removes a
 * block but LRU replacement.
 */
class SuperblockCache
{
  public:
    static constexpr std::size_t ways = 8;

    /** @p sets must be a power of two. */
    explicit SuperblockCache(std::size_t sets) : sets_(sets), mask_(sets - 1)
    {
    }

    /** The valid block headed at @p head, or null.  A hit becomes the
     *  set's most recently used way; a stale occupant is dropped (and
     *  unlinked). */
    Superblock *
    lookup(Addr head, const CodeImage &code)
    {
        Set &set = sets_[setIndex(head)];
        for (std::size_t i = 0; i < ways; ++i) {
            if (set.heads[i] != head)
                continue;
            Superblock *sb = set.blocks[i].get();
            if (code.spanGeneration(sb->head, sb->spanEnd) != sb->genSum) {
                dropStale(set, i);
                return nullptr;
            }
            set.lastUse[i] = ++tick_;
            return sb;
        }
        return nullptr;
    }

    /** Side-effect-free probe (tests): no stale-block eviction and no
     *  LRU update. */
    const Superblock *
    probe(Addr head, const CodeImage &code) const
    {
        const Set &set = sets_[setIndex(head)];
        for (std::size_t i = 0; i < ways; ++i) {
            const Superblock *sb = set.blocks[i].get();
            if (set.heads[i] == head &&
                code.spanGeneration(sb->head, sb->spanEnd) == sb->genSum)
                return sb;
        }
        return nullptr;
    }

    /**
     * Install @p sb in its set: in the way already holding the same
     * head, else in the least recently used way.  Empty ways carry
     * lastUse 0, below every stamp, so they fill before anything is
     * evicted.
     */
    void
    insert(std::unique_ptr<Superblock> sb)
    {
        Set &set = sets_[setIndex(sb->head)];
        std::size_t victim = 0;
        for (std::size_t i = 0; i < ways; ++i) {
            if (set.heads[i] == sb->head) {
                victim = i;
                break;
            }
            if (set.lastUse[i] < set.lastUse[victim])
                victim = i;
        }
        if (set.blocks[victim]) {
            unlinkBlock(set.blocks[victim].get());
            ++stats_.replaced;
        }
        set.heads[victim] = sb->head;
        set.lastUse[victim] = ++tick_;
        set.blocks[victim] = std::move(sb);
        ++stats_.built;
    }

    /**
     * Drop @p sb (known stale: an executor chain link whose target
     * failed revalidation).  The caller guarantees @p sb is not the
     * block currently executing.
     */
    void
    invalidateBlock(Superblock *sb)
    {
        Set &set = sets_[setIndex(sb->head)];
        if (std::size_t i = wayOf(set, sb); i < ways)
            dropStale(set, i);
    }

    /**
     * Record a chain link from @p from to @p to (the block whose head
     * is @p target), with reverse bookkeeping for unlink-on-invalidate.
     */
    void
    link(Superblock *from, Addr target, Superblock *to)
    {
        Superblock::ChainLink &l =
            from->chains[from->nextChain++ % from->chains.size()];
        if (l.to)
            eraseIncoming(l.to, from);
        l.target = target;
        l.to = to;
        to->incoming.push_back(from);
    }

    SuperblockStats &stats() { return stats_; }
    const SuperblockStats &stats() const { return stats_; }

  private:
    /** One set, stored by field: `heads[i]` mirrors blocks[i]->head
     *  (~0 when empty: no bundle address is odd), so the lookup that
     *  precedes every interpreted bundle scans one cache line and
     *  touches no block. */
    struct alignas(64) Set
    {
        std::array<Addr, ways> heads;
        /** tick_ at insert / last lookup hit; 0 when empty. */
        std::array<std::uint64_t, ways> lastUse{};
        std::array<std::unique_ptr<Superblock>, ways> blocks;

        Set() { heads.fill(~Addr{0}); }

        void
        clear(std::size_t i)
        {
            heads[i] = ~Addr{0};
            lastUse[i] = 0;
            blocks[i].reset();
        }
    };

    std::size_t
    setIndex(Addr head) const
    {
        return static_cast<std::size_t>(head / isa::bundleBytes) & mask_;
    }

    /** The way of @p set holding @p sb, or `ways` when none does. */
    static std::size_t
    wayOf(const Set &set, const Superblock *sb)
    {
        for (std::size_t i = 0; i < ways; ++i) {
            if (set.blocks[i].get() == sb)
                return i;
        }
        return ways;
    }

    void
    eraseIncoming(Superblock *to, Superblock *from)
    {
        for (std::size_t i = 0; i < to->incoming.size(); ++i) {
            if (to->incoming[i] == from) {
                to->incoming[i] = to->incoming.back();
                to->incoming.pop_back();
                return;
            }
        }
    }

    /**
     * Detach @p b from the chain graph in both directions: forget its
     * outgoing links (erasing it from each target's incoming list) and
     * null every link pointing at it.  Every path that destroys a block
     * goes through here first, so chain pointers never dangle.
     */
    void
    unlinkBlock(Superblock *b)
    {
        for (Superblock::ChainLink &l : b->chains) {
            if (l.to) {
                eraseIncoming(l.to, b);
                l = Superblock::ChainLink{};
            }
        }
        for (Superblock *p : b->incoming) {
            for (Superblock::ChainLink &l : p->chains) {
                if (l.to == b)
                    l = Superblock::ChainLink{};
            }
        }
        b->incoming.clear();
    }

    void
    dropStale(Set &set, std::size_t i)
    {
        unlinkBlock(set.blocks[i].get());
        set.clear(i);
        ++stats_.invalidated;
    }

    std::vector<Set> sets_;
    std::size_t mask_;
    std::uint64_t tick_ = 0;  ///< LRU clock; stamps start at 1
    SuperblockStats stats_;
};

} // namespace adore

#endif // ADORE_CPU_EXEC_TIER_HH
