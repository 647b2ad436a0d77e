/**
 * @file
 * Tests for the direct-threaded superblock execution tier (DESIGN.md
 * §12): formation at the hotness threshold (with threshold-1 /
 * threshold / threshold+1 edges), eviction on image patching and
 * rebuild against the patched content, self-loop back-edge execution,
 * the decoded-bundle-cache sizing knob, and sampling parity vs the
 * interpreter on mcf_o2 with ADORE attached.
 *
 * Region-keyed invalidation and chaining: direct unit tests of the
 * SuperblockCache chain graph (link / unlink-on-invalidate /
 * unlink-on-replace), its 4-way LRU sets, and the promotion oracle
 * (demote self-heal, churn blacklist), plus a chaos-schedule test
 * proving a patch to region A never executes a stale uop from A and
 * never invalidates a block in untouched region B.
 *
 * Trace-head formation: only non-sequential arrivals train a head, so
 * a multi-bundle loop builds exactly one block.  That gcc builds a few
 * hundred blocks and evicts none is asserted registry-wide by the
 * TierToggle cases of tests/test_toggle_sweep.cc.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cpu/cpu.hh"
#include "cpu/exec_tier.hh"
#include "harness/experiment.hh"
#include "isa/builder.hh"
#include "program/code_buffer.hh"
#include "workloads/workloads.hh"

namespace adore
{
namespace
{

/** A freely-configurable CPU rig (mirrors test_cpu.cc's CpuRig). */
struct TierRig
{
    explicit TierRig(const CpuConfig &ccfg = CpuConfig())
        : caches(hcfg), cpu(code, caches, memory, ccfg)
    {
    }

    HierarchyConfig hcfg;
    CodeImage code;
    CacheHierarchy caches;
    MainMemory memory;
    Cpu cpu;
};

constexpr Addr kText = CodeImage::textBase;

/**
 * Commit the canonical test program:
 *
 *   bundle 0 (kText):      movi r1, <iters>
 *   bundle 1 (head):       addi r2, <step>, r2 | addi r1, -1, r1 |
 *                          (tail bundle)
 *   bundle 2 (tail):       cmp.ne p1 = r1, r0 | br.p1 -> head
 *   bundle 3:              halt
 *
 * A two-bundle counted self-loop whose trip count (and thus the head
 * bundle's execution count) is exactly @p iters, with r2 accumulating
 * step per trip as an architectural witness.
 */
struct LoopAddrs
{
    Addr head = 0;
    Addr tail = 0;
    Addr halt = 0;
};

LoopAddrs
commitCountedLoop(CodeImage &code, std::int64_t iters,
                  std::int64_t step = 1)
{
    LoopAddrs addrs;
    addrs.head = kText + isa::bundleBytes;
    addrs.tail = kText + 2 * isa::bundleBytes;
    addrs.halt = kText + 3 * isa::bundleBytes;

    CodeBuffer buf;
    Bundle setup;
    setup.add(build::movi(1, iters));
    buf.append(setup);

    Bundle head;
    head.add(build::addi(2, step, 2));
    head.add(build::addi(1, -1, 1));
    buf.append(head);

    Bundle tail;
    tail.add(build::cmp(Opcode::CmpNe, 1, 1, 0));
    tail.add(build::br(1, addrs.head));
    buf.append(tail);

    Bundle stop;
    stop.add(build::halt());
    buf.append(stop);

    buf.commitToText(code);
    return addrs;
}

/**
 * Execute the bundle at @p addr exactly @p times through the
 * interpreter step path (the path that trains the hotness counter),
 * resetting pc each time so no other address trains.
 */
void
stepAt(Cpu &cpu, Addr addr, int times)
{
    for (int i = 0; i < times; ++i) {
        cpu.setPc(addr);
        cpu.step();
    }
}

TEST(ExecTier, FormationAtExactlyTheThreshold)
{
    CpuConfig ccfg;
    ccfg.superblockHotThreshold = 4;
    TierRig rig(ccfg);
    LoopAddrs addrs = commitCountedLoop(rig.code, 1000);

    // threshold - 1 executions: not hot yet.
    stepAt(rig.cpu, addrs.head, 3);
    EXPECT_EQ(rig.cpu.superblockStats().built, 0u);
    EXPECT_EQ(rig.cpu.superblockAt(addrs.head), nullptr);

    // The threshold-th execution builds.
    stepAt(rig.cpu, addrs.head, 1);
    EXPECT_EQ(rig.cpu.superblockStats().built, 1u);
    const Superblock *sb = rig.cpu.superblockAt(addrs.head);
    ASSERT_NE(sb, nullptr);
    EXPECT_EQ(sb->head, addrs.head);
    EXPECT_TRUE(sb->loopBack);
    EXPECT_EQ(sb->bundles, 2u);  // head + tail (back-edge closes it)

    // threshold + 1 and beyond: the existing block is kept, not rebuilt.
    stepAt(rig.cpu, addrs.head, 5);
    EXPECT_EQ(rig.cpu.superblockStats().built, 1u);
    EXPECT_EQ(rig.cpu.superblockAt(addrs.head), sb);
}

TEST(ExecTier, ThresholdOneBuildsOnFirstExecution)
{
    CpuConfig ccfg;
    ccfg.superblockHotThreshold = 1;
    TierRig rig(ccfg);
    LoopAddrs addrs = commitCountedLoop(rig.code, 10);

    stepAt(rig.cpu, addrs.head, 1);
    EXPECT_EQ(rig.cpu.superblockStats().built, 1u);
    EXPECT_NE(rig.cpu.superblockAt(addrs.head), nullptr);
}

TEST(ExecTier, ThresholdZeroDisablesFormation)
{
    CpuConfig ccfg;
    ccfg.superblockHotThreshold = 0;
    TierRig rig(ccfg);
    LoopAddrs addrs = commitCountedLoop(rig.code, 10);

    stepAt(rig.cpu, addrs.head, 64);
    EXPECT_EQ(rig.cpu.superblockStats().built, 0u);
    EXPECT_EQ(rig.cpu.superblockAt(addrs.head), nullptr);
}

TEST(ExecTier, InterpreterTierNeverForms)
{
    CpuConfig ccfg;
    ccfg.execTier = ExecTier::Interpreter;
    ccfg.superblockHotThreshold = 2;
    TierRig rig(ccfg);
    LoopAddrs addrs = commitCountedLoop(rig.code, 10);

    stepAt(rig.cpu, addrs.head, 32);
    EXPECT_EQ(rig.cpu.superblockStats().built, 0u);
}

TEST(ExecTier, PatchEvictsAndRebuildSeesPatchedContent)
{
    CpuConfig ccfg;
    ccfg.superblockHotThreshold = 3;
    TierRig rig(ccfg);
    LoopAddrs addrs = commitCountedLoop(rig.code, 1000);

    stepAt(rig.cpu, addrs.head, 3);
    ASSERT_NE(rig.cpu.superblockAt(addrs.head), nullptr);
    std::uint64_t epoch_before = rig.code.patchEpoch();

    // ADORE-style patch of the head: bumps the head's region
    // generation and the patch epoch, so the block is stale
    // immediately.
    rig.code.patch(addrs.head, addrs.halt);
    EXPECT_GT(rig.code.patchEpoch(), epoch_before);
    EXPECT_EQ(rig.cpu.superblockAt(addrs.head), nullptr);

    // A run() dispatch attempt at the head drops the stale block from
    // its slot (the decoded-bundle cache's invalidation rule).
    rig.cpu.setPc(addrs.head);
    rig.cpu.run(rig.cpu.cycle() + 64);
    EXPECT_EQ(rig.cpu.superblockStats().invalidated, 1u);
    EXPECT_TRUE(rig.cpu.halted());  // patched branch -> halt bundle

    // Unpatch bumps the version again: still no valid block.
    rig.code.unpatch(addrs.head);
    EXPECT_EQ(rig.cpu.superblockAt(addrs.head), nullptr);

    // Rebuild must be stitched from the *current* bundle bytes, not
    // remembered ones: overwrite the head so r2 steps by 5 per trip,
    // retrain on a fresh CPU (the first one halted), and check the
    // architectural witness.
    TierRig fresh(ccfg);
    commitCountedLoop(fresh.code, 100);
    Bundle head5;
    head5.add(build::addi(2, 5, 2));
    head5.add(build::addi(1, -1, 1));
    head5.padWithNops();
    fresh.code.writeBundle(addrs.head, head5);
    fresh.cpu.setPc(kText);
    auto result = fresh.cpu.run(~Cycle{0});
    EXPECT_TRUE(result.halted);
    EXPECT_GE(fresh.cpu.superblockStats().built, 1u);
    EXPECT_GT(fresh.cpu.superblockStats().loopTrips, 0u);
    EXPECT_EQ(fresh.cpu.intReg(2), 500);  // 100 trips x step 5
}

/**
 * A four-bundle counted loop run from kText:
 *
 *   bundle 0 (kText):  movi r1, <iters>
 *   bundle 1 (head):   addi r2, 1, r2
 *   bundle 2:          addi r3, 1, r3
 *   bundle 3:          addi r1, -1, r1
 *   bundle 4 (tail):   cmp.ne p1 = r1, r0 | br.p1 -> head
 *   bundle 5:          halt
 *
 * Every loop bundle executes equally often, but only the head is ever
 * reached other than by fall-through.
 */
LoopAddrs
commitLongLoop(CodeImage &code, std::int64_t iters)
{
    LoopAddrs addrs;
    addrs.head = kText + isa::bundleBytes;
    addrs.tail = kText + 4 * isa::bundleBytes;
    addrs.halt = kText + 5 * isa::bundleBytes;

    CodeBuffer buf;
    Bundle setup;
    setup.add(build::movi(1, iters));
    buf.append(setup);
    for (int reg : {2, 3}) {
        Bundle body;
        body.add(build::addi(reg, 1, reg));
        buf.append(body);
    }
    Bundle dec;
    dec.add(build::addi(1, -1, 1));
    buf.append(dec);
    Bundle tail;
    tail.add(build::cmp(Opcode::CmpNe, 1, 1, 0));
    tail.add(build::br(1, addrs.head));
    buf.append(tail);
    Bundle stop;
    stop.add(build::halt());
    buf.append(stop);

    buf.commitToText(code);
    return addrs;
}

TEST(ExecTier, OnlyTheLoopHeadHeadsABlock)
{
    CpuConfig ccfg;
    ccfg.superblockHotThreshold = 4;

    // Through run(): the loop head is promoted, its block loops in
    // place, and the exit to the halt bundle is a single arrival.
    TierRig rig(ccfg);
    LoopAddrs addrs = commitLongLoop(rig.code, 1000);
    rig.cpu.setPc(kText);
    EXPECT_TRUE(rig.cpu.run(~Cycle{0}).halted);
    EXPECT_EQ(rig.cpu.intReg(2), 1000);
    EXPECT_EQ(rig.cpu.superblockStats().built, 1u);
    EXPECT_EQ(rig.cpu.superblockStats().replaced, 0u);
    const Superblock *sb = rig.cpu.superblockAt(addrs.head);
    ASSERT_NE(sb, nullptr);
    EXPECT_TRUE(sb->loopBack);
    EXPECT_EQ(sb->bundles, 4u);

    // Through step() alone nothing is ever dispatched, so every bundle
    // is interpreted 1000 times: the interior bundles reach the
    // threshold in the same iteration as the head, yet only
    // fall-through ever reaches them, so none heads a block.
    TierRig stepped(ccfg);
    commitLongLoop(stepped.code, 1000);
    stepped.cpu.setPc(kText);
    while (stepped.cpu.step()) {
    }
    EXPECT_EQ(stepped.cpu.intReg(3), 1000);
    EXPECT_EQ(stepped.cpu.superblockStats().built, 1u);
    EXPECT_NE(stepped.cpu.superblockAt(addrs.head), nullptr);
    for (Addr a = addrs.head + isa::bundleBytes; a <= addrs.halt;
         a += isa::bundleBytes) {
        EXPECT_EQ(stepped.cpu.superblockAt(a), nullptr) << a;
    }
}

TEST(ExecTier, SelfLoopBackEdgeMatchesInterpreter)
{
    CpuConfig direct;
    direct.superblockHotThreshold = 4;
    CpuConfig interp = direct;
    interp.execTier = ExecTier::Interpreter;

    TierRig a(direct);
    TierRig b(interp);
    commitCountedLoop(a.code, 5000, 3);
    commitCountedLoop(b.code, 5000, 3);

    a.cpu.setPc(kText);
    b.cpu.setPc(kText);
    auto ra = a.cpu.run(~Cycle{0});
    auto rb = b.cpu.run(~Cycle{0});

    // The tier actually engaged and looped in place...
    EXPECT_GE(a.cpu.superblockStats().built, 1u);
    EXPECT_GE(a.cpu.superblockStats().dispatches, 1u);
    EXPECT_GT(a.cpu.superblockStats().loopTrips, 1000u);
    EXPECT_EQ(b.cpu.superblockStats().built, 0u);

    // ...and the simulated machine cannot tell.
    EXPECT_TRUE(ra.halted);
    EXPECT_TRUE(rb.halted);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.retired, rb.retired);
    EXPECT_EQ(a.cpu.intReg(1), b.cpu.intReg(1));
    EXPECT_EQ(a.cpu.intReg(2), 15000);
    EXPECT_EQ(b.cpu.intReg(2), 15000);
    const PerfCounters &ca = a.cpu.counters();
    const PerfCounters &cb = b.cpu.counters();
    EXPECT_EQ(ca.cycles, cb.cycles);
    EXPECT_EQ(ca.retiredInsns, cb.retiredInsns);
    EXPECT_EQ(ca.takenBranches, cb.takenBranches);
    EXPECT_EQ(ca.mispredicts, cb.mispredicts);
    EXPECT_EQ(ca.dcacheLoadMisses, cb.dcacheLoadMisses);
}

TEST(ExecTier, BundleCacheKnobKeepsMetricsBitIdentical)
{
    // The knob resizes a pure host-side cache, so a tiny 8-entry cache
    // must produce exactly the metrics of the 64-entry default — on
    // both tiers.
    for (ExecTier tier : {ExecTier::Interpreter, ExecTier::DirectThreaded}) {
        CpuConfig small;
        small.execTier = tier;
        CpuConfig large = small;
        large.bundleCacheEntries = 8;

        TierRig a(small);
        TierRig b(large);
        commitCountedLoop(a.code, 3000, 2);
        commitCountedLoop(b.code, 3000, 2);
        a.cpu.setPc(kText);
        b.cpu.setPc(kText);
        auto ra = a.cpu.run(~Cycle{0});
        auto rb = b.cpu.run(~Cycle{0});
        EXPECT_EQ(ra.cycles, rb.cycles) << execTierName(tier);
        EXPECT_EQ(ra.retired, rb.retired) << execTierName(tier);
        EXPECT_EQ(a.cpu.intReg(2), b.cpu.intReg(2)) << execTierName(tier);
    }
}

/** mcf_o2 with ADORE attached: sampling and decision accounting must be
 *  bit-identical across tiers (the ISSUE's sampling-parity gate; the
 *  full 17-workload sweep lives in test_toggle_sweep.cc). */
TEST(ExecTier, SamplingParityOnMcfWithAdore)
{
    hir::Program prog = workloads::make("mcf");

    auto runTier = [&](ExecTier tier) {
        RunConfig cfg;
        cfg.compile.level = OptLevel::O2;
        cfg.compile.softwarePipelining = false;
        cfg.compile.reserveAdoreRegs = true;
        cfg.adore = true;
        cfg.adoreConfig = Experiment::defaultAdoreConfig();
        cfg.machine.cpu.execTier = tier;
        cfg.maxCycles = 3'000'000ULL;
        cfg.quietCycleLimit = true;
        return Experiment::run(prog, cfg);
    };

    RunMetrics interp = runTier(ExecTier::Interpreter);
    RunMetrics direct = runTier(ExecTier::DirectThreaded);

    EXPECT_EQ(interp.cycles, direct.cycles);
    EXPECT_EQ(interp.retired, direct.retired);
    EXPECT_EQ(interp.dearMisses, direct.dearMisses);
    EXPECT_EQ(interp.samplerStats.samplesTaken,
              direct.samplerStats.samplesTaken);
    EXPECT_EQ(interp.samplerStats.overflows, direct.samplerStats.overflows);
    EXPECT_EQ(interp.samplerStats.batchesDelivered,
              direct.samplerStats.batchesDelivered);
    EXPECT_EQ(interp.samplerStats.droppedFault,
              direct.samplerStats.droppedFault);
    EXPECT_EQ(interp.samplerStats.droppedConsumerBehind,
              direct.samplerStats.droppedConsumerBehind);
    EXPECT_EQ(interp.samplerStats.droppedNoHandler,
              direct.samplerStats.droppedNoHandler);
    EXPECT_EQ(interp.adoreStats.phasesDetected,
              direct.adoreStats.phasesDetected);
    EXPECT_EQ(interp.adoreStats.tracesPatched,
              direct.adoreStats.tracesPatched);
    EXPECT_EQ(interp.adoreStats.directPrefetches,
              direct.adoreStats.directPrefetches);
    EXPECT_EQ(interp.adoreStats.pointerPrefetches,
              direct.adoreStats.pointerPrefetches);
    EXPECT_EQ(interp.execTier, ExecTier::Interpreter);
    EXPECT_EQ(direct.execTier, ExecTier::DirectThreaded);
}

/** Non-loop regions: a BrCall ends the region; the block still forms
 *  and executes the straight-line prefix bit-identically. */
TEST(ExecTier, StraightLineRegionWithCallExit)
{
    CpuConfig ccfg;
    ccfg.superblockHotThreshold = 2;
    TierRig rig(ccfg);

    // head: r2 += 1 ; call -> func ; func: r2 += 10 ; ret ; after: halt
    CodeBuffer buf;
    Bundle setup;
    setup.add(build::movi(1, 0));
    buf.append(setup);
    Addr head = kText + isa::bundleBytes;
    Addr func = kText + 3 * isa::bundleBytes;
    Bundle hb;
    hb.add(build::addi(2, 1, 2));
    hb.add(build::brCall(0, func));
    buf.append(hb);
    Bundle stop;
    stop.add(build::halt());
    buf.append(stop);  // call fallthrough
    Bundle fb;
    fb.add(build::addi(2, 10, 2));
    fb.add(build::brRet(0));
    buf.append(fb);
    buf.commitToText(rig.code);

    // Train the head hot, then run the whole program on a fresh CPU
    // with the same image via a second rig sharing nothing.
    stepAt(rig.cpu, head, 2);
    const Superblock *sb = rig.cpu.superblockAt(head);
    ASSERT_NE(sb, nullptr);
    EXPECT_FALSE(sb->loopBack);
    EXPECT_EQ(sb->bundles, 1u);  // BrCall ends the region

    rig.cpu.setPc(head);
    rig.cpu.run(~Cycle{0});
    EXPECT_TRUE(rig.cpu.halted());
    // Two trained head executions added 1 each; the final run adds 1 at
    // the head, 10 in the callee, then returns to the fallthrough halt.
    EXPECT_EQ(rig.cpu.intReg(2), 2 + 1 + 10);
}

// ---------------------------------------------------------------------------
// Chain-graph bookkeeping: SuperblockCache unit tests.  The cache and
// Superblock are plain public types, so the link / unlink invariants
// can be pinned without driving a whole CPU.
// ---------------------------------------------------------------------------

/** A code image with two 1 KiB regions' worth of committed nop text. */
void
commitNopText(CodeImage &code, int bundles)
{
    CodeBuffer buf;
    for (int i = 0; i < bundles; ++i) {
        Bundle b;
        b.add(build::nop());
        buf.append(b);
    }
    buf.commitToText(code);
}

/** A single-bundle block headed at text bundle @p idx, with a genSum
 *  snapshotted from the image (i.e. valid right now). */
std::unique_ptr<Superblock>
mkBlock(const CodeImage &code, int idx)
{
    auto sb = std::make_unique<Superblock>();
    sb->head = kText + static_cast<Addr>(idx) * isa::bundleBytes;
    sb->spanEnd = sb->head;
    sb->genSum = code.spanGeneration(sb->head, sb->spanEnd);
    return sb;
}

Bundle
nopBundle()
{
    Bundle b;
    b.add(build::nop());
    b.padWithNops();
    return b;
}

TEST(ExecTier, ChainUnlinkWhenTargetGoesStale)
{
    CodeImage code;
    commitNopText(code, 70);  // bundle 66 lands in the second region
    SuperblockCache cache(8, 0);

    auto a_up = mkBlock(code, 1);
    auto b_up = mkBlock(code, 66);
    Superblock *a = a_up.get();
    Superblock *b = b_up.get();
    cache.insert(std::move(a_up));
    cache.insert(std::move(b_up));

    cache.link(a, b->head, b);
    EXPECT_EQ(a->chains[0].target, b->head);
    EXPECT_EQ(a->chains[0].to, b);
    ASSERT_EQ(b->incoming.size(), 1u);
    EXPECT_EQ(b->incoming[0], a);

    // Mutating b's region makes the next lookup drop b — and null a's
    // chain link so it cannot dangle.
    code.writeBundle(b->head, nopBundle());
    EXPECT_EQ(cache.lookup(b->head, code), nullptr);
    EXPECT_EQ(cache.stats().invalidated, 1u);
    EXPECT_EQ(a->chains[0].to, nullptr);

    // a lives in the untouched first region: still valid.
    EXPECT_EQ(cache.lookup(a->head, code), a);
}

TEST(ExecTier, ChainUnlinkWhenSourceGoesStale)
{
    CodeImage code;
    commitNopText(code, 70);
    SuperblockCache cache(8, 0);

    auto a_up = mkBlock(code, 1);
    auto b_up = mkBlock(code, 66);
    Superblock *a = a_up.get();
    Superblock *b = b_up.get();
    cache.insert(std::move(a_up));
    cache.insert(std::move(b_up));
    cache.link(a, b->head, b);

    // Dropping the *source* must erase it from the target's incoming
    // list (otherwise b would later null a pointer into freed memory).
    code.writeBundle(a->head, nopBundle());
    EXPECT_EQ(cache.lookup(a->head, code), nullptr);
    EXPECT_TRUE(b->incoming.empty());
    EXPECT_EQ(cache.lookup(b->head, code), b);
}

TEST(ExecTier, ChainUnlinkWhenTargetIsReplaced)
{
    CodeImage code;
    commitNopText(code, 70);
    SuperblockCache cache(8, 0);

    auto a_up = mkBlock(code, 1);
    auto b_up = mkBlock(code, 66);
    Superblock *a = a_up.get();
    Superblock *b = b_up.get();
    Addr b_head = b->head;
    cache.insert(std::move(a_up));
    cache.insert(std::move(b_up));
    cache.link(a, b->head, b);

    // Fill b's set (bundles 66, 2, 10, 18, 26 all map to set 2 of 8)
    // with `ways` more heads: the last insert finds no free way and
    // evicts the least recently used one, b.  a's link must be nulled.
    for (std::size_t i = 0; i < SuperblockCache::ways; ++i)
        cache.insert(mkBlock(code, 2 + 8 * static_cast<int>(i)));
    EXPECT_EQ(cache.stats().replaced, 1u);
    EXPECT_EQ(cache.probe(b_head, code), nullptr);
    EXPECT_EQ(a->chains[0].to, nullptr);
    EXPECT_EQ(cache.lookup(a->head, code), a);
}

TEST(ExecTier, CollidingHeadsShareASet)
{
    CodeImage code;
    commitNopText(code, 70);
    SuperblockCache cache(8, 0);

    // Bundles 1, 9, 17, 25 map to the same set of an 8-set cache (a
    // direct-mapped cache would keep only the last one).
    for (int i = 0; i < 4; ++i)
        cache.insert(mkBlock(code, 1 + 8 * i));
    EXPECT_EQ(cache.stats().built, 4u);
    EXPECT_EQ(cache.stats().replaced, 0u);
    for (int i = 0; i < 4; ++i) {
        Addr head = kText + static_cast<Addr>(1 + 8 * i) * isa::bundleBytes;
        const Superblock *sb = cache.lookup(head, code);
        ASSERT_NE(sb, nullptr) << "bundle " << 1 + 8 * i;
        EXPECT_EQ(sb->head, head);
    }
}

TEST(ExecTier, LruEvictsLeastRecentlyLookedUpWay)
{
    CodeImage code;
    commitNopText(code, 70);
    SuperblockCache cache(8, 0);
    auto headOf = [](int idx) {
        return kText + static_cast<Addr>(idx) * isa::bundleBytes;
    };

    for (int idx : {1, 9, 17, 25})
        cache.insert(mkBlock(code, idx));
    // Look up every way but 17's: 17 becomes the LRU way even though
    // 1 was inserted first.  probe() must not count as a use.
    for (int idx : {1, 9, 25})
        ASSERT_NE(cache.lookup(headOf(idx), code), nullptr);
    ASSERT_NE(cache.probe(headOf(17), code), nullptr);

    cache.insert(mkBlock(code, 33));
    EXPECT_EQ(cache.stats().replaced, 1u);
    EXPECT_EQ(cache.probe(headOf(17), code), nullptr);
    for (int idx : {1, 9, 25, 33})
        EXPECT_NE(cache.probe(headOf(idx), code), nullptr) << idx;
}

TEST(ExecTier, OracleDemoteUnlinksBlacklistsAndSelfHeals)
{
    CodeImage code;
    commitNopText(code, 70);
    SuperblockCache cache(8, 0);

    auto a_up = mkBlock(code, 1);
    auto b_up = mkBlock(code, 66);
    Superblock *a = a_up.get();
    Superblock *b = b_up.get();
    Addr head = a->head;
    cache.insert(std::move(a_up));
    cache.insert(std::move(b_up));
    cache.link(a, b->head, b);

    EXPECT_TRUE(cache.promotionAllowed(head, code));
    cache.demote(a, code);  // a is dead after this call
    EXPECT_EQ(cache.stats().demoted, 1u);
    EXPECT_TRUE(b->incoming.empty());
    EXPECT_EQ(cache.lookup(head, code), nullptr);
    EXPECT_FALSE(cache.promotionAllowed(head, code));

    // Self-heal: once the head's region generation moves, the old
    // verdict is void and the head may be promoted again.
    code.writeBundle(head, nopBundle());
    EXPECT_TRUE(cache.promotionAllowed(head, code));
}

TEST(ExecTier, OracleChurnBlacklistIsSticky)
{
    CodeImage code;
    commitNopText(code, 70);
    SuperblockCache cache(8, 2);  // blacklist after two stale drops
    Addr head = kText + isa::bundleBytes;

    for (int round = 0; round < 2; ++round) {
        EXPECT_TRUE(cache.promotionAllowed(head, code));
        cache.insert(mkBlock(code, 1));
        code.writeBundle(head, nopBundle());
        EXPECT_EQ(cache.lookup(head, code), nullptr);
    }
    EXPECT_EQ(cache.stats().invalidated, 2u);
    EXPECT_FALSE(cache.promotionAllowed(head, code));

    // Churn blacklisting measures generation churn itself, so — unlike
    // demotion — a further generation bump does not clear it.
    code.writeBundle(head, nopBundle());
    EXPECT_FALSE(cache.promotionAllowed(head, code));
}

// ---------------------------------------------------------------------------
// Chaos-schedule region isolation: a patch to region A, landed from a
// hook in the middle of A's hot loop, must stop A's block cold (zero
// stale uops retired after the patch) and must leave region B's block
// untouched (no invalidation, same object, same generation).
// ---------------------------------------------------------------------------
TEST(ExecTier, PatchToRegionANeverRunsStaleUopsNorTouchesRegionB)
{
    constexpr std::int64_t kBig = 200000;  // loop A budget (never finishes)
    constexpr std::int64_t kIters = 3000;  // loop B trip count

    CpuConfig ccfg;
    ccfg.superblockHotThreshold = 4;
    TierRig rig(ccfg);

    // b0 (kText):  movi r1, kBig | movi r3, kIters | movi r4, 0
    // b1 (aHead):  addi r1, -1, r1 | cmp.ne p1 = r1, r0 | br.p1 -> b1
    // b2:          br -> bHead          (taken only if A ever finishes)
    // b3..b66:     nop padding up to the next 1 KiB region
    // b67 (bHead): addi r4, 1, r4 | addi r3, -1, r3
    // b68:         cmp.ne p2 = r3, r0 | br.p2 -> bHead
    // b69:         halt
    const Addr a_head = kText + 1 * isa::bundleBytes;
    const Addr b_head = kText + 67 * isa::bundleBytes;
    // The two loops must live in different 1 KiB regions.
    ASSERT_NE(a_head >> CodeImage::regionShift,
              b_head >> CodeImage::regionShift);

    CodeBuffer buf;
    Bundle setup;
    setup.add(build::movi(1, kBig));
    setup.add(build::movi(3, kIters));
    setup.add(build::movi(4, 0));
    buf.append(setup);
    Bundle loop_a;
    loop_a.add(build::addi(1, -1, 1));
    loop_a.add(build::cmp(Opcode::CmpNe, 1, 1, 0));
    loop_a.add(build::br(1, a_head));
    buf.append(loop_a);
    Bundle bridge;
    bridge.add(build::brAlways(b_head));
    buf.append(bridge);
    for (int i = 3; i < 67; ++i) {
        Bundle pad;
        pad.add(build::nop());
        buf.append(pad);
    }
    Bundle loop_b;
    loop_b.add(build::addi(4, 1, 4));
    loop_b.add(build::addi(3, -1, 3));
    buf.append(loop_b);
    Bundle tail_b;
    tail_b.add(build::cmp(Opcode::CmpNe, 2, 3, 0));
    tail_b.add(build::br(2, b_head));
    buf.append(tail_b);
    Bundle stop;
    stop.add(build::halt());
    buf.append(stop);
    buf.commitToText(rig.code);

    // Pre-train B so its block exists before the run begins.
    stepAt(rig.cpu, b_head, 4);
    const Superblock *sb_b = rig.cpu.superblockAt(b_head);
    ASSERT_NE(sb_b, nullptr);
    EXPECT_TRUE(sb_b->loopBack);
    EXPECT_EQ(sb_b->bundles, 2u);

    const std::uint64_t gen_a_before = rig.code.regionGeneration(a_head);
    const std::uint64_t gen_b_before = rig.code.regionGeneration(b_head);

    // Mid-run chaos: once loop A has retired >1000 trips from its
    // superblock, a periodic hook patches A's head to jump to B —
    // exactly the shape of an ADORE trace patch landing under the
    // executing block's feet.
    bool patched = false;
    std::int64_t r1_at_patch = -1;
    rig.cpu.addPeriodicHook(128, [&](Cycle) {
        std::int64_t r1 = rig.cpu.intReg(1);
        if (!patched && r1 > 0 && r1 < kBig - 1000) {
            patched = true;
            r1_at_patch = r1;
            rig.code.patch(a_head, b_head);
        }
    });

    rig.cpu.setPc(kText);
    auto result = rig.cpu.run(~Cycle{0});

    ASSERT_TRUE(patched);
    EXPECT_TRUE(result.halted);

    // Zero stale uops: not one more A-loop instruction retired after
    // the patch landed (r1 is A's only induction variable).
    EXPECT_GT(rig.cpu.intReg(1), 0);
    EXPECT_EQ(rig.cpu.intReg(1), r1_at_patch);

    // B ran to completion after the redirect...
    EXPECT_EQ(rig.cpu.intReg(4), kIters);
    EXPECT_EQ(rig.cpu.intReg(3), 0);

    // ...through the very same pre-trained block: the patch to region A
    // invalidated exactly one block (A's), left B's generation alone,
    // and bumped A's.
    EXPECT_EQ(rig.cpu.superblockAt(b_head), sb_b);
    EXPECT_EQ(rig.cpu.superblockStats().invalidated, 1u);
    EXPECT_EQ(rig.cpu.superblockStats().demoted, 0u);
    EXPECT_EQ(rig.code.regionGeneration(b_head), gen_b_before);
    EXPECT_GT(rig.code.regionGeneration(a_head), gen_a_before);
}

} // namespace
} // namespace adore
