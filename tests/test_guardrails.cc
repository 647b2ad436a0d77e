/**
 * @file
 * Tests for the self-healing guardrails (src/runtime/guardrails) and
 * the revert machinery they drive:
 *
 *  - unit tests of the four state machines (re-optimization backoff,
 *    sampling backoff, prefetch throttle, recoverable failures);
 *  - the capacity-bounded trace pool (CodeImage::tryAllocTrace);
 *  - the guardrail staged-revert path, pool-exhaustion handling and
 *    the prefetch throttle under hardware-zoo pressure end to end.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "observe/figures.hh"
#include "program/code_image.hh"
#include "runtime/guardrails.hh"
#include "workloads/common.hh"
#include "workloads/workloads.hh"

namespace adore
{
namespace
{

GuardrailConfig
enabledConfig()
{
    GuardrailConfig cfg;
    cfg.enabled = true;
    return cfg;
}

// ---------------------------------------------------------------------
// Re-optimization backoff
// ---------------------------------------------------------------------

TEST(Guardrails, BackoffBlocksThenExpires)
{
    GuardrailConfig cfg = enabledConfig();
    cfg.reoptBackoffInitialPolls = 3;
    Guardrails g(cfg);

    g.beginPoll();
    EXPECT_TRUE(g.allowOptimize(0x100));
    g.noteTraceReverted(0x100);
    for (int i = 0; i < 3; ++i) {
        g.endPoll();
        g.beginPoll();
        EXPECT_FALSE(g.allowOptimize(0x100));
    }
    g.endPoll();
    g.beginPoll();
    EXPECT_TRUE(g.allowOptimize(0x100));
    EXPECT_EQ(g.stats().reoptBlocked, 3u);
}

TEST(Guardrails, BackoffDoublesPerRevert)
{
    GuardrailConfig cfg = enabledConfig();
    cfg.reoptBackoffInitialPolls = 2;
    cfg.reoptBackoffMaxPolls = 64;
    cfg.reoptMaxReverts = 10;
    Guardrails g(cfg);

    auto pollsBlocked = [&g](Addr head) {
        g.noteTraceReverted(head);
        int blocked = 0;
        while (true) {
            g.endPoll();
            g.beginPoll();
            if (g.allowOptimize(head))
                break;
            ++blocked;
        }
        return blocked;
    };

    g.beginPoll();
    EXPECT_EQ(pollsBlocked(0x200), 2);  // initial
    EXPECT_EQ(pollsBlocked(0x200), 4);  // doubled
    EXPECT_EQ(pollsBlocked(0x200), 8);  // doubled again
}

TEST(Guardrails, BlacklistAfterMaxReverts)
{
    GuardrailConfig cfg = enabledConfig();
    cfg.reoptBackoffInitialPolls = 1;
    cfg.reoptMaxReverts = 2;
    Guardrails g(cfg);

    g.beginPoll();
    g.noteTraceReverted(0x300);
    EXPECT_EQ(g.stats().headsBlacklisted, 0u);
    g.noteTraceReverted(0x300);  // second revert: permanent
    EXPECT_EQ(g.stats().headsBlacklisted, 1u);
    for (int i = 0; i < 50; ++i) {
        g.endPoll();
        g.beginPoll();
        EXPECT_FALSE(g.allowOptimize(0x300));
    }
    // Other heads are unaffected.
    EXPECT_TRUE(g.allowOptimize(0x301));
}

// ---------------------------------------------------------------------
// Sampling backoff
// ---------------------------------------------------------------------

TEST(Guardrails, SamplingBacksOffOnThrashAndRestores)
{
    GuardrailConfig cfg = enabledConfig();
    cfg.thrashWindowPolls = 4;
    cfg.thrashPhaseChanges = 4;
    cfg.samplingBackoffMax = 4;
    cfg.samplingRestorePolls = 3;
    Guardrails g(cfg);

    EXPECT_EQ(g.samplingMultiplier(), 1u);

    // Thrash: two phase changes per poll for two polls.
    for (int poll = 0; poll < 2; ++poll) {
        g.beginPoll();
        g.notePhaseChange();
        g.notePhaseChange();
        g.endPoll();
    }
    EXPECT_EQ(g.samplingMultiplier(), 2u);
    EXPECT_EQ(g.stats().samplingBackoffs, 1u);

    // Keep thrashing: doubles again, then saturates at the cap.
    for (int poll = 0; poll < 8; ++poll) {
        g.beginPoll();
        g.notePhaseChange();
        g.notePhaseChange();
        g.endPoll();
    }
    EXPECT_EQ(g.samplingMultiplier(), 4u);

    // Calm: restores one step per samplingRestorePolls quiet polls.
    for (int poll = 0; poll < 3; ++poll) {
        g.beginPoll();
        g.endPoll();
    }
    EXPECT_EQ(g.samplingMultiplier(), 2u);
    for (int poll = 0; poll < 3; ++poll) {
        g.beginPoll();
        g.endPoll();
    }
    EXPECT_EQ(g.samplingMultiplier(), 1u);
    EXPECT_EQ(g.stats().samplingRestores, 2u);
}

// ---------------------------------------------------------------------
// Prefetch throttle
// ---------------------------------------------------------------------

TEST(Guardrails, ThrottleDampsDisablesAndRecovers)
{
    GuardrailConfig cfg = enabledConfig();
    cfg.prefetchDampDropRate = 0.25;
    cfg.prefetchDisableDropRate = 0.50;
    cfg.prefetchMinEvents = 4;
    cfg.throttleRecoverPolls = 2;
    Guardrails g(cfg);

    EXPECT_EQ(g.prefetchLoadCap(3), 3);

    // Moderate drops: damped.
    g.beginPoll();
    g.noteMemPressure(7, 3);  // 30% dropped
    g.endPoll();
    EXPECT_EQ(g.throttle(), Guardrails::Throttle::Damped);
    EXPECT_EQ(g.prefetchLoadCap(3), 1);

    // Heavy drops: disabled.
    g.beginPoll();
    g.noteMemPressure(3, 7);  // 70% dropped
    g.endPoll();
    EXPECT_EQ(g.throttle(), Guardrails::Throttle::Disabled);
    EXPECT_EQ(g.prefetchLoadCap(3), 0);

    // Too few events to judge: counts as calm.
    for (int poll = 0; poll < 2; ++poll) {
        g.beginPoll();
        g.noteMemPressure(1, 1);
        g.endPoll();
    }
    EXPECT_EQ(g.throttle(), Guardrails::Throttle::Damped);
    for (int poll = 0; poll < 2; ++poll) {
        g.beginPoll();
        g.noteMemPressure(20, 0);  // healthy
        g.endPoll();
    }
    EXPECT_EQ(g.throttle(), Guardrails::Throttle::Normal);
    EXPECT_EQ(g.stats().prefetchDamped, 1u);
    EXPECT_EQ(g.stats().prefetchDisabled, 1u);
    EXPECT_EQ(g.stats().prefetchRestored, 2u);
}

TEST(Guardrails, HardwareOnlyDropsLeaveTheThrottleNormal)
{
    // The throttle reads the software drop rate alone: an lfetch is
    // dropped by the same bus-backlog test the hardware engines face,
    // so that rate already measures the shared bus.  A monitoring-only
    // runtime issues no lfetch, so however many hardware prefetches the
    // bus drops, the throttle stays Normal.
    hir::Program prog = workloads::make("swim");
    RunConfig cfg = report::armConfig(report::Arm::O2Monitor);
    cfg.machine.hier.hwPrefetch.enabled = true;
    cfg.adoreConfig.guardrails.enabled = true;
    RunMetrics m = Experiment::run(prog, cfg);

    ASSERT_TRUE(m.guardrailsUsed);
    EXPECT_GT(m.hwpfStats.dropped(), 0u);
    EXPECT_EQ(m.memStats.prefetchesIssued + m.memStats.prefetchesDropped,
              0u);
    EXPECT_EQ(m.guardrailStats.prefetchDamped, 0u);
    EXPECT_EQ(m.guardrailStats.prefetchDisabled, 0u);
}

// ---------------------------------------------------------------------
// Capacity-bounded trace pool
// ---------------------------------------------------------------------

TEST(CodeImagePool, UnboundedByDefault)
{
    CodeImage code;
    EXPECT_EQ(code.poolCapacity(), 0u);
    EXPECT_NE(code.tryAllocTrace(10'000), CodeImage::badAddr);
}

TEST(CodeImagePool, TryAllocRejectsWhenFull)
{
    CodeImage code;
    code.setPoolCapacity(10);
    Addr first = code.tryAllocTrace(6);
    EXPECT_NE(first, CodeImage::badAddr);
    EXPECT_EQ(code.poolRemaining(), 4u);

    // Would exceed capacity: refused, pool untouched.
    EXPECT_EQ(code.tryAllocTrace(5), CodeImage::badAddr);
    EXPECT_EQ(code.poolBundles(), 6u);
    EXPECT_EQ(code.poolRemaining(), 4u);

    // An exact fit still succeeds.
    EXPECT_NE(code.tryAllocTrace(4), CodeImage::badAddr);
    EXPECT_EQ(code.poolRemaining(), 0u);
    EXPECT_EQ(code.tryAllocTrace(1), CodeImage::badAddr);
}

// ---------------------------------------------------------------------
// End-to-end: guardrail staged revert
// ---------------------------------------------------------------------

/** The shuffled-list workload whose optimized trace regresses. */
hir::Program
regressingProgram()
{
    hir::Program prog;
    prog.name = "shuffled";
    int list = workloads::linkedList(prog, "nodes", 12'000, 96, 1.0);
    hir::LoopBody warm;
    warm.chases.push_back({list, 8});
    workloads::phase(prog, workloads::addLoop(prog, "warm", 11'900, warm),
                     1);
    hir::LoopBody body;
    body.chases.push_back({list, 8});
    body.extraIntOps = 6;
    workloads::phase(prog, workloads::addLoop(prog, "walk", 11'900, body),
                     40);
    return prog;
}

RunConfig
baseConfig()
{
    RunConfig cfg;
    cfg.compile.level = OptLevel::O2;
    cfg.compile.softwarePipelining = false;
    cfg.compile.reserveAdoreRegs = true;
    return cfg;
}

TEST(GuardrailsEndToEnd, StagedRevertRecoversRegression)
{
    hir::Program prog = regressingProgram();

    observe::EventTrace events(1 << 16);
    events.enable();

    RunConfig cfg = baseConfig();
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();
    cfg.adoreConfig.guardrails.enabled = true;
    cfg.adoreConfig.events = &events;
    RunMetrics m = Experiment::run(prog, cfg);

    ASSERT_TRUE(m.guardrailsUsed);
    EXPECT_GE(m.guardrailStats.stagedReverts, 1u);
    EXPECT_GE(m.adoreStats.tracesUnpatched, 1u);

    // Every staged/full revert emits a GuardrailEvent.
    std::uint64_t staged = 0, full = 0;
    for (const observe::Event &e : events.snapshot()) {
        if (const auto *g =
                std::get_if<observe::GuardrailEvent>(&e.payload)) {
            if (std::string(g->action) == "staged-revert")
                ++staged;
            else if (std::string(g->action) == "full-revert")
                ++full;
        }
    }
    EXPECT_EQ(staged, m.guardrailStats.stagedReverts);
    EXPECT_EQ(full, m.guardrailStats.fullReverts);

    // Guardrails must not lose to the unguarded regressing runtime.
    RunConfig off = cfg;
    off.adoreConfig.guardrails.enabled = false;
    off.adoreConfig.events = nullptr;
    RunMetrics plain = Experiment::run(prog, off);
    EXPECT_LT(m.cycles, plain.cycles);
}

// ---------------------------------------------------------------------
// End-to-end: trace-pool exhaustion is recoverable
// ---------------------------------------------------------------------

TEST(GuardrailsEndToEnd, PoolExhaustionIsRecoverable)
{
    hir::Program prog;
    prog.name = "chase";
    int list = workloads::linkedList(prog, "nodes", 16'000, 128, 0.0);
    hir::LoopBody body;
    body.chases.push_back({list, 8});
    workloads::phase(prog, workloads::addLoop(prog, "walk", 15'900, body),
                     8);

    RunConfig cfg = baseConfig();
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();
    cfg.adoreConfig.guardrails.enabled = true;
    cfg.adoreConfig.tracePoolCapacityBundles = 2;  // nothing fits
    RunMetrics m = Experiment::run(prog, cfg);

    EXPECT_TRUE(m.halted);
    EXPECT_EQ(m.adoreStats.tracesPatched, 0u);
    EXPECT_GE(m.adoreStats.tracesRejectedPoolFull, 1u);
    EXPECT_EQ(m.guardrailStats.poolExhaustedRejects,
              m.adoreStats.tracesRejectedPoolFull);

    // With enough pool the same program is optimized normally.
    RunConfig roomy = cfg;
    roomy.adoreConfig.tracePoolCapacityBundles = 4096;
    RunMetrics ok = Experiment::run(prog, roomy);
    EXPECT_TRUE(ok.halted);
    EXPECT_GE(ok.adoreStats.tracesPatched, 1u);
    EXPECT_LT(ok.cycles, m.cycles);
}

// ---------------------------------------------------------------------
// End-to-end: hardware-zoo pressure never throttles ADORE's prefetches
// ---------------------------------------------------------------------

TEST(GuardrailsEndToEnd, ZooPressureLeavesAppluPrefetchingOn)
{
    // With the zoo on, applu's bus drops hardware prefetches.  That
    // must not make the guardrails disable ADORE's prefetching, so they
    // cost at most 1% of the unguarded runtime's cycles.
    hir::Program prog = workloads::make("applu");
    RunConfig plain = report::armConfig(report::Arm::O2HwAdore);
    RunConfig guarded = plain;
    guarded.adoreConfig.guardrails.enabled = true;
    RunMetrics p = Experiment::run(prog, plain);
    RunMetrics g = Experiment::run(prog, guarded);

    ASSERT_TRUE(g.guardrailsUsed);
    ASSERT_TRUE(g.hwPrefetchUsed);
    EXPECT_EQ(g.guardrailStats.prefetchDisabled, 0u);
    EXPECT_LE(static_cast<double>(g.cycles),
              1.01 * static_cast<double>(p.cycles));
}

// ---------------------------------------------------------------------
// Generalized revert APIs
// ---------------------------------------------------------------------

TEST(GuardrailsEndToEnd, GuardrailsOffByDefault)
{
    AdoreConfig cfg;
    EXPECT_FALSE(cfg.guardrails.enabled);
    EXPECT_EQ(cfg.faultPlan, nullptr);
    EXPECT_EQ(cfg.tracePoolCapacityBundles, 0u);

    hir::Program prog;
    prog.name = "tiny";
    int src = workloads::intStream(prog, "src", 8 * 1024);
    hir::LoopBody body;
    body.refs.push_back(workloads::direct(src, 2));
    workloads::phase(prog, workloads::addLoop(prog, "s", 4'096, body), 2);

    RunConfig rc = baseConfig();
    rc.adore = true;
    rc.adoreConfig = Experiment::defaultAdoreConfig();
    RunMetrics m = Experiment::run(prog, rc);
    EXPECT_FALSE(m.guardrailsUsed);
    EXPECT_FALSE(m.faultsUsed);
}

} // namespace
} // namespace adore
