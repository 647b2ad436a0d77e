/**
 * @file
 * Tests for the guardrail (AdoreConfig::guardrails, DESIGN.md §10) and
 * the recoverable failures the runtime absorbs:
 *
 *  - the capacity-bounded trace pool (CodeImage::tryAllocTrace);
 *  - the revert rule end to end: one revert on the shuffled walk, and
 *    a reverted head is never patched again;
 *  - pool exhaustion is recoverable;
 *  - the adversarial set's one predicate: guarded ADORE is never slower
 *    than ADORE alone, and equal where nothing reverts.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "observe/figures.hh"
#include "program/code_image.hh"
#include "workloads/common.hh"
#include "workloads/workloads.hh"

namespace adore
{
namespace
{

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
// End-to-end: revert once and blacklist the head
// ---------------------------------------------------------------------

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
    hir::Program prog = report::shuffledWalk();

    observe::EventTrace events(1 << 16);
    events.enable();

    RunConfig cfg = baseConfig();
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();
    cfg.adoreConfig.guardrails = true;
    cfg.adoreConfig.events = &events;
    RunMetrics m = Experiment::run(prog, cfg);

    ASSERT_TRUE(m.guardrailsUsed);
    // The walk's chase trace is never profitable: one revert, and its
    // head is blacklisted instead of re-optimized.
    EXPECT_EQ(m.adoreStats.tracesUnpatched, 1u);

    ASSERT_EQ(events.dropped(), 0u);
    std::set<Addr> reverted;
    std::uint64_t revert_events = 0;
    for (const observe::Event &e : events.snapshot()) {
        if (const auto *r =
                std::get_if<observe::TraceRevertedEvent>(&e.payload)) {
            reverted.insert(r->origAddr);
            ++revert_events;
        } else if (const auto *p = std::get_if<observe::TracePatchedEvent>(
                       &e.payload)) {
            EXPECT_EQ(reverted.count(p->origAddr), 0u)
                << "head 0x" << std::hex << p->origAddr
                << " patched again after its revert";
        }
    }
    EXPECT_EQ(revert_events, m.adoreStats.tracesUnpatched);

    // The guardrail must beat the unguarded regressing runtime.
    RunConfig off = cfg;
    off.adoreConfig.guardrails = false;
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

    observe::EventTrace events(1 << 12);
    events.enable();

    RunConfig cfg = baseConfig();
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();
    cfg.adoreConfig.tracePoolCapacityBundles = 2;  // nothing fits
    cfg.adoreConfig.events = &events;
    RunMetrics m = Experiment::run(prog, cfg);

    EXPECT_TRUE(m.halted);
    EXPECT_EQ(m.adoreStats.tracesPatched, 0u);
    EXPECT_GE(m.adoreStats.tracesRejectedPoolFull, 1u);
    // Each rejection emits one GuardrailEvent.
    std::uint64_t rejects = 0;
    for (const observe::Event &e : events.snapshot()) {
        if (const auto *g =
                std::get_if<observe::GuardrailEvent>(&e.payload)) {
            EXPECT_EQ(std::string(g->action), "pool-exhausted");
            ++rejects;
        }
    }
    EXPECT_EQ(rejects, m.adoreStats.tracesRejectedPoolFull);

    // With enough pool the same program is optimized normally.
    RunConfig roomy = cfg;
    roomy.adoreConfig.tracePoolCapacityBundles = 4096;
    roomy.adoreConfig.events = nullptr;
    RunMetrics ok = Experiment::run(prog, roomy);
    EXPECT_TRUE(ok.halted);
    EXPECT_GE(ok.adoreStats.tracesPatched, 1u);
    EXPECT_LT(ok.cycles, m.cycles);
}

// ---------------------------------------------------------------------
// The adversarial set: guarded ADORE is never slower than ADORE alone
// ---------------------------------------------------------------------

struct AdversarialCase
{
    const char *name;
    hir::Program (*build)();
    bool hwPrefetch = false;
    std::size_t poolBundles = 0;  ///< trace-pool bound (0 = unlimited)
};

void
PrintTo(const AdversarialCase &c, std::ostream *os)
{
    *os << c.name;
}

hir::Program
applu()
{
    return workloads::make("applu");
}

const AdversarialCase kAdversarial[] = {
    {"shuffled_walk", report::shuffledWalk},
    {"store_stream_mix", report::storeStreamMix},
    // The zoo's drops on top of the mix's make its trace regress.
    {"store_stream_mix_zoo", report::storeStreamMix, true},
    {"alternating_indirect", report::alternatingIndirect},
    {"scattered_loops", report::scatteredLoops, false,
     report::kScatteredPoolBundles},
    // With the zoo on, applu's bus drops hardware prefetches; that must
    // not cost ADORE's prefetching anything.
    {"applu_zoo", applu, true},
};

class GuardrailAdversarial
    : public ::testing::TestWithParam<AdversarialCase>
{
};

TEST_P(GuardrailAdversarial, NeverSlowerThanAdore)
{
    const AdversarialCase &c = GetParam();
    hir::Program prog = c.build();
    RunConfig plain = report::armConfig(report::Arm::O2Adore);
    plain.machine.hier.hwPrefetch.enabled = c.hwPrefetch;
    plain.adoreConfig.tracePoolCapacityBundles = c.poolBundles;
    RunConfig guarded = plain;
    guarded.adoreConfig.guardrails = true;
    RunMetrics p = Experiment::run(prog, plain);
    RunMetrics g = Experiment::run(prog, guarded);

    ASSERT_TRUE(p.halted && g.halted);
    ASSERT_TRUE(g.guardrailsUsed);
    EXPECT_LE(g.cycles, p.cycles);
    if (g.adoreStats.tracesUnpatched == 0) {
        EXPECT_EQ(g.cycles, p.cycles);
    }
    if (c.poolBundles) {
        EXPECT_GT(g.adoreStats.tracesRejectedPoolFull, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Adversarial, GuardrailAdversarial, ::testing::ValuesIn(kAdversarial),
    [](const ::testing::TestParamInfo<AdversarialCase> &info) {
        return std::string(info.param.name);
    });

// ---------------------------------------------------------------------
// Defaults
// ---------------------------------------------------------------------

TEST(GuardrailsEndToEnd, GuardrailsOffByDefault)
{
    AdoreConfig cfg;
    EXPECT_FALSE(cfg.guardrails);
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
