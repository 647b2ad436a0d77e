/**
 * @file
 * Unit and property tests for the memory subsystem: backing store,
 * set-associative caches with timed fills, and the hierarchy's latency
 * contract (FP L1 bypass, in-flight fills, bus serialization, prefetch
 * throttling).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "mem/hierarchy.hh"
#include "mem/main_memory.hh"
#include "support/rng.hh"

namespace adore
{
namespace
{

TEST(MainMemory, ReadWriteRoundtrip)
{
    MainMemory mem;
    mem.writeU64(0x1000, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mem.readU64(0x1000), 0xdeadbeefcafef00dULL);
    // Smaller sizes are zero-extended.
    EXPECT_EQ(mem.read(0x1000, 4), 0xcafef00du);
    EXPECT_EQ(mem.read(0x1000, 1), 0x0du);
}

TEST(MainMemory, UntouchedMemoryReadsZero)
{
    MainMemory mem;
    EXPECT_EQ(mem.readU64(0x99999), 0u);
}

TEST(MainMemory, PageStraddlingAccess)
{
    MainMemory mem;
    Addr edge = MainMemory::pageBytes - 4;
    mem.writeU64(edge, 0x1122334455667788ULL);
    EXPECT_EQ(mem.readU64(edge), 0x1122334455667788ULL);
    EXPECT_EQ(mem.allocatedPages(), 2u);
}

TEST(MainMemory, FloatRoundtrips)
{
    MainMemory mem;
    mem.writeF64(0x2000, 3.14159);
    EXPECT_DOUBLE_EQ(mem.readF64(0x2000), 3.14159);
    mem.writeF32(0x3000, 2.5f);
    EXPECT_FLOAT_EQ(mem.readF32(0x3000), 2.5f);
}

/** A deferred fill writing @p value at its start and counting its runs. */
MainMemory::Fill
countingFill(std::uint64_t value, int &runs)
{
    return [value, &runs](std::uint8_t *dst) {
        ++runs;
        std::memcpy(dst, &value, 8);
    };
}

TEST(MainMemory, DeferredFillRunsOnceOnFirstRead)
{
    MainMemory mem;
    int runs = 0;
    mem.deferFill(0x10008, 8, countingFill(0xabcdULL, runs));
    EXPECT_EQ(runs, 0);
    EXPECT_EQ(mem.allocatedPages(), 0u);
    EXPECT_EQ(mem.readU64(0x10008), 0xabcdULL);
    EXPECT_EQ(runs, 1);
    mem.writeU64(0x10008, 7);
    EXPECT_EQ(mem.readU64(0x10008), 7u);
    EXPECT_EQ(runs, 1);
}

TEST(MainMemory, DeferredFillRunsBeforeFirstWrite)
{
    MainMemory mem;
    int runs = 0;
    mem.deferFill(0x10000, 8, countingFill(0xabcdULL, runs));
    mem.writeU64(0x10000, 7);  // the fill must not overwrite this
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(mem.readU64(0x10000), 7u);
    EXPECT_EQ(runs, 1);
}

TEST(MainMemory, DeferredFillOnAllocatedPageRunsImmediately)
{
    MainMemory mem;
    mem.writeU64(0x20000, 1);
    int runs = 0;
    mem.deferFill(0x20010, 8, countingFill(0x55ULL, runs));
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(mem.readU64(0x20010), 0x55u);
    EXPECT_EQ(mem.readU64(0x20000), 1u);
    EXPECT_EQ(runs, 1);
}

TEST(MainMemory, RegionsSharingAPageBothMaterialise)
{
    MainMemory mem;
    int runsA = 0;
    int runsB = 0;
    mem.deferFill(0x30000, 8, countingFill(0xaaULL, runsA));
    mem.deferFill(0x3fff8, 8, countingFill(0xbbULL, runsB));
    EXPECT_EQ(mem.readU64(0x3fff8), 0xbbu);
    EXPECT_EQ(runsA, 1);
    EXPECT_EQ(runsB, 1);
    EXPECT_EQ(mem.readU64(0x30000), 0xaau);
    EXPECT_EQ(mem.allocatedPages(), 1u);
}

TEST(MainMemory, WriteKeepsTheOtherInitialWords)
{
    MainMemory mem;
    mem.deferFill(0x40000, 32, [](std::uint8_t *dst) {
        for (std::uint64_t w = 0; w < 4; ++w)
            std::memcpy(dst + w * 8, &w, 8);
    });
    mem.write(0x40008, 0xff, 1);
    EXPECT_EQ(mem.readU64(0x40000), 0u);
    EXPECT_EQ(mem.readU64(0x40008), 0xffu);
    EXPECT_EQ(mem.readU64(0x40010), 2u);
    EXPECT_EQ(mem.readU64(0x40018), 3u);
}

TEST(MainMemory, PendingPagesAreNotCounted)
{
    MainMemory mem;
    int runs = 0;
    mem.deferFill(0x50000, 8, countingFill(1, runs));
    mem.deferFill(0x60000, 8, countingFill(2, runs));
    EXPECT_EQ(mem.allocatedPages(), 0u);
    EXPECT_EQ(mem.readU64(0x60000), 2u);
    EXPECT_EQ(mem.allocatedPages(), 1u);
    EXPECT_EQ(runs, 1);
}

CacheConfig
smallCache()
{
    return {"test", 1024, 64, 2, 1};  // 8 sets x 2 ways x 64 B
}

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x100, 0).hit);
    c.fill(0x100, 10, false);
    auto r = c.access(0x100, 20);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.readyAt, 10u);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, InFlightFillVisible)
{
    Cache c(smallCache());
    c.fill(0x100, 100, true);
    auto r = c.access(0x100, 50);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.readyAt, 100u);
    EXPECT_EQ(c.stats().inFlightHits, 1u);
    EXPECT_EQ(c.stats().prefetchFills, 1u);
}

TEST(Cache, RefillKeepsEarlierCompletion)
{
    Cache c(smallCache());
    c.fill(0x100, 100, false);
    c.fill(0x100, 200, false);  // later fill must not delay the line
    EXPECT_EQ(c.probe(0x100).readyAt, 100u);
    c.fill(0x100, 50, false);   // earlier fill accelerates it
    EXPECT_EQ(c.probe(0x100).readyAt, 50u);
}

TEST(Cache, LruEviction)
{
    Cache c(smallCache());  // 2 ways per set; set stride = 512 B
    c.fill(0x0000, 0, false);
    c.fill(0x0200, 0, false);   // same set, second way
    c.access(0x0000, 1);        // touch line 0: line 0x200 becomes LRU
    c.fill(0x0400, 0, false);   // evicts 0x200
    EXPECT_TRUE(c.probe(0x0000).hit);
    EXPECT_FALSE(c.probe(0x0200).hit);
    EXPECT_TRUE(c.probe(0x0400).hit);
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, SameLineSharesTag)
{
    Cache c(smallCache());
    c.fill(0x100, 0, false);
    EXPECT_TRUE(c.probe(0x13f).hit);   // same 64 B line
    EXPECT_FALSE(c.probe(0x140).hit);  // next line
}

TEST(Cache, FlushAndInvalidate)
{
    Cache c(smallCache());
    c.fill(0x100, 0, false);
    c.fill(0x200, 0, false);
    c.invalidate(0x100);
    EXPECT_FALSE(c.probe(0x100).hit);
    EXPECT_TRUE(c.probe(0x200).hit);
    c.flush();
    EXPECT_FALSE(c.probe(0x200).hit);
}

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyConfig cfg;
    HierarchyTest() : caches(cfg) {}
    CacheHierarchy caches;
};

TEST_F(HierarchyTest, ColdLoadPaysMemoryLatency)
{
    auto r = caches.load(0x100000, 0, false);
    EXPECT_EQ(r.level, MemLevel::Memory);
    EXPECT_GE(r.latency, cfg.memLatency);
}

TEST_F(HierarchyTest, IntLoadWarmsL1)
{
    caches.load(0x100000, 0, false);
    auto r = caches.load(0x100000, 1000, false);
    EXPECT_EQ(r.level, MemLevel::L1);
    EXPECT_EQ(r.latency, cfg.l1d.hitLatency);
}

TEST_F(HierarchyTest, FpLoadBypassesL1)
{
    caches.load(0x100000, 0, true);
    auto r = caches.load(0x100000, 1000, true);
    // Best case for FP data is an L2 hit.
    EXPECT_EQ(r.level, MemLevel::L2);
    EXPECT_EQ(r.latency, cfg.l2.hitLatency);
    EXPECT_FALSE(caches.l1d().probe(0x100000).hit);
}

TEST_F(HierarchyTest, PrefetchHidesLatency)
{
    caches.prefetch(0x200000, 0, false);
    // Long after the fill completes, the demand load is an L1 hit.
    auto r = caches.load(0x200000, 5000, false);
    EXPECT_EQ(r.latency, cfg.l1d.hitLatency);
}

TEST_F(HierarchyTest, LatePrefetchPaysResidualOnly)
{
    caches.prefetch(0x200000, 0, false);
    Cycle mid = cfg.memLatency / 2;
    auto r = caches.load(0x200000, mid, false);
    EXPECT_GT(r.latency, cfg.l1d.hitLatency);
    EXPECT_LT(r.latency, cfg.memLatency);
    EXPECT_LE(r.latency, cfg.memLatency - mid + cfg.busOccupancy);
}

TEST_F(HierarchyTest, BusSerializesMemoryFills)
{
    // Two concurrent cold misses: the second waits for the bus slot.
    auto a = caches.load(0x300000, 0, false);
    auto b = caches.load(0x340000, 0, false);
    EXPECT_EQ(a.latency, cfg.memLatency);
    EXPECT_EQ(b.latency, cfg.memLatency + cfg.busOccupancy);
}

TEST_F(HierarchyTest, PrefetchThrottledWhenQueueFull)
{
    // Saturate the bus with back-to-back prefetches at time 0.
    for (int i = 0; i < 64; ++i) {
        caches.prefetch(0x400000 + static_cast<Addr>(i) * 128, 0,
                        false);
    }
    EXPECT_GT(caches.stats().prefetchesDropped, 0u);
    EXPECT_GT(caches.stats().prefetchesIssued, 0u);
}

TEST_F(HierarchyTest, UselessPrefetchCounted)
{
    caches.load(0x500000, 0, false);
    caches.prefetch(0x500000, 1000, false);
    EXPECT_EQ(caches.stats().prefetchesUseless, 1u);
}

TEST_F(HierarchyTest, IfetchThroughL1I)
{
    Addr pc = 0x4000000;
    EXPECT_GT(caches.ifetch(pc, 0), 0u);
    EXPECT_EQ(caches.ifetch(pc, 1000), 0u);
    EXPECT_EQ(caches.stats().ifetchMisses, 1u);
}

TEST_F(HierarchyTest, StoreIsNonBlockingButMovesLines)
{
    caches.store(0x600000, 0, false);
    auto r = caches.load(0x600000, 1000, false);
    EXPECT_EQ(r.level, MemLevel::L1);
}

// Property sweep: for any address, a repeated load soon after the first
// completes must be at least as fast, and never slower than memory.
class HierarchyProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HierarchyProperty, RepeatAccessMonotonicallyFaster)
{
    HierarchyConfig cfg;
    CacheHierarchy caches(cfg);
    Rng rng(GetParam());
    Cycle now = 0;
    for (int i = 0; i < 200; ++i) {
        Addr a = 0x100000 + rng.below(1 << 20);
        bool fp = rng.below(2) != 0;
        auto first = caches.load(a, now, fp);
        now += first.latency + 1;
        auto second = caches.load(a, now, fp);
        EXPECT_LE(second.latency, first.latency);
        EXPECT_LE(second.latency, cfg.memLatency + cfg.busOccupancy * 2);
        now += second.latency + 1;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

} // namespace
} // namespace adore
