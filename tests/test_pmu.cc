/**
 * @file
 * Tests for the PMU model: DEAR arming/thresholding, BTB ring order,
 * the sampler's SSB/UEB flow, overhead charging, and window doubling.
 */

#include <gtest/gtest.h>

#include "pmu/pmu.hh"
#include "pmu/sampler.hh"

namespace adore
{
namespace
{

TEST(Dear, IgnoresFastLoads)
{
    Dear dear(8);
    for (int i = 0; i < 100; ++i)
        dear.observeLoad(0x100, 0x2000, 2, static_cast<Cycle>(i * 10));
    EXPECT_FALSE(dear.read().valid);
}

TEST(Dear, LatchesQualifyingLoad)
{
    Dear dear(8);
    // Arming is pseudo-random (~1/3): offer repeatedly.
    for (int i = 0; i < 100; ++i) {
        dear.observeLoad(0x100, 0x2000, 160,
                         static_cast<Cycle>(i) * 1000);
    }
    ASSERT_TRUE(dear.read().valid);
    EXPECT_EQ(dear.read().pc, 0x100u);
    EXPECT_EQ(dear.read().missAddr, 0x2000u);
    EXPECT_EQ(dear.read().latency, 160u);
}

TEST(Dear, BusyWhileMonitoring)
{
    Dear dear(8);
    // Two candidate loads in the same cycle window: at most one can be
    // monitored; the monitor stays busy for the load's latency.
    int latched_b = 0;
    for (int trial = 0; trial < 200; ++trial) {
        Dear d(8);
        Cycle t = static_cast<Cycle>(trial) * 10000;
        for (int i = 0; i < 50; ++i) {
            d.observeLoad(0xA, 0x1000, 160, t);
            d.observeLoad(0xB, 0x2000, 160, t + 1);  // A monitored: busy
            t += 500;
        }
        if (d.read().valid && d.read().pc == 0xB)
            ++latched_b;
    }
    // B does get its share over many trials (fair rotation)...
    EXPECT_GT(latched_b, 0);
}

TEST(Dear, RotatesOverCoLocatedLoads)
{
    // Three loads issuing back-to-back each "iteration": all three
    // should eventually be captured (the art bug this model fixed).
    Dear dear(8);
    std::set<Addr> seen;
    Cycle t = 0;
    for (int iter = 0; iter < 3000; ++iter) {
        for (Addr pc : {0xA0, 0xA1, 0xA2})
            dear.observeLoad(pc, 0x1000 + pc, 160, t + (pc & 3));
        t += 170;
        if (dear.read().valid)
            seen.insert(dear.read().pc);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Btb, KeepsLastFourInAgeOrder)
{
    BranchTraceBuffer btb;
    for (Addr a = 1; a <= 6; ++a)
        btb.record(a, a + 100, true, false);
    auto snap = btb.snapshot();
    EXPECT_EQ(snap[0].source, 3u);
    EXPECT_EQ(snap[1].source, 4u);
    EXPECT_EQ(snap[2].source, 5u);
    EXPECT_EQ(snap[3].source, 6u);
    EXPECT_TRUE(snap[3].taken);
}

TEST(Btb, ClearInvalidatesAll)
{
    BranchTraceBuffer btb;
    btb.record(1, 2, true, false);
    btb.clear();
    for (const auto &e : btb.snapshot())
        EXPECT_FALSE(e.valid);
}

Sample
sampleAt(Cycle cycles)
{
    Sample s;
    s.cycles = cycles;
    s.pc = 0x4000000;
    return s;
}

TEST(Sampler, DisabledTakesNothing)
{
    Sampler sampler({});
    EXPECT_EQ(sampler.takeSample(sampleAt(0)), 0u);
    EXPECT_EQ(sampler.samplesTaken(), 0u);
}

TEST(Sampler, OverflowDeliversSsbToHandler)
{
    SamplerConfig cfg;
    cfg.interval = 100;
    cfg.ssbSamples = 4;
    cfg.interruptCycles = 10;
    cfg.copyCyclesPerSample = 2;
    Sampler sampler(cfg);

    std::vector<std::size_t> deliveries;
    sampler.setOverflowHandler(
        [&](const std::vector<Sample> &ssb) {
            deliveries.push_back(ssb.size());
        });
    sampler.setEnabled(true, 0);
    EXPECT_EQ(sampler.nextSampleAt(), 100u);

    Cycle overhead_total = 0;
    for (int i = 1; i <= 9; ++i)
        overhead_total += sampler.takeSample(
            sampleAt(static_cast<Cycle>(i) * 100));

    ASSERT_EQ(deliveries.size(), 2u);
    EXPECT_EQ(deliveries[0], 4u);
    EXPECT_EQ(sampler.overflows(), 2u);
    // 9 interrupts at 10 cy plus 2 copies of 4 samples at 2 cy each.
    EXPECT_EQ(overhead_total, 9u * 10 + 2u * 8);
}

TEST(Sampler, SampleIndicesMonotonic)
{
    SamplerConfig cfg;
    cfg.interval = 10;
    cfg.ssbSamples = 3;
    Sampler sampler(cfg);
    std::vector<std::uint64_t> indices;
    sampler.setOverflowHandler([&](const std::vector<Sample> &ssb) {
        for (const Sample &s : ssb)
            indices.push_back(s.index);
    });
    sampler.setEnabled(true, 0);
    for (int i = 1; i <= 6; ++i)
        sampler.takeSample(sampleAt(static_cast<Cycle>(i) * 10));
    ASSERT_EQ(indices.size(), 6u);
    for (std::size_t i = 0; i < indices.size(); ++i)
        EXPECT_EQ(indices[i], i);
}

TEST(Sampler, WindowDoubling)
{
    SamplerConfig cfg;
    cfg.ssbSamples = 64;
    Sampler sampler(cfg);
    Cycle before = sampler.windowCycles();
    sampler.doubleWindow();
    EXPECT_EQ(sampler.windowCycles(), before * 2);
}

TEST(Ueb, RetainsLastWWindows)
{
    UserEventBuffer ueb(3);
    for (int w = 0; w < 5; ++w) {
        std::vector<Sample> window(4, sampleAt(static_cast<Cycle>(w)));
        ueb.pushWindow(std::move(window));
    }
    EXPECT_EQ(ueb.totalWindows(), 5u);
    EXPECT_EQ(ueb.retainedWindows(), 3u);
    EXPECT_EQ(ueb.window(0)[0].cycles, 2u);  // oldest retained
    EXPECT_EQ(ueb.latest()[0].cycles, 4u);
    EXPECT_EQ(ueb.flatten().size(), 12u);
}

} // namespace
} // namespace adore
