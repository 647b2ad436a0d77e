/**
 * @file
 * Tests for the differential fuzz harness (DESIGN.md §14): the arm
 * matrix holds its invariants on generated programs, the quietCycleLimit
 * watchdog cuts off non-terminating programs and reports them, injected
 * violations surface in the report (and its JSON form), and the
 * shrinker minimizes an injected failure to a tiny reproducer.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/fuzz.hh"
#include "workloads/generator.hh"

namespace adore
{
namespace
{

/** The structural predicate the shrinker demo injects: present in
 *  most generated programs, preserved by many reductions. */
std::string
hasIndirectRef(const hir::Program &prog)
{
    for (const hir::Loop &loop : prog.loops)
        for (const hir::ArrayRef &ref : loop.body.refs)
            if (ref.indexArray >= 0 && !ref.viaFpConversion)
                return "program contains an indirect reference";
    return "";
}

TEST(Fuzz, SmokeSweepHoldsAllInvariants)
{
    FuzzSpec spec;
    spec.programs = 6;
    spec.firstSeed = 101;
    FuzzReport report = Fuzzer::run(spec);
    EXPECT_TRUE(report.ok()) << report.table();
    EXPECT_EQ(report.programs.size(), 6u);
    // 8 arms per program: the 6 toggle arms plus the chaos pair.
    EXPECT_EQ(report.runsTotal, 6 * 8);
}

TEST(Fuzz, EndlessProgramIsCutOffAndReported)
{
    FuzzSpec spec;
    spec.programs = 1;
    spec.firstSeed = 2;
    spec.gen.endless = true;     // cannot finish in any budget
    spec.maxCycles = 400'000;    // keep the watchdog cheap
    spec.withChaos = false;      // CPI margins are meaningless mid-flight
    FuzzReport report = Fuzzer::run(spec);

    // The sweep returns (nothing hangs), every run was cut off by the
    // quietCycleLimit watchdog, and cutoffs are reported as cutoffs —
    // not as identity violations (identity is unobservable mid-run).
    ASSERT_EQ(report.programs.size(), 1u);
    EXPECT_EQ(report.cutoffsTotal, report.runsTotal);
    EXPECT_GT(report.runsTotal, 0);
    EXPECT_TRUE(report.ok()) << report.table();
}

TEST(Fuzz, InjectedViolationIsReportedWithArm)
{
    FuzzSpec spec;
    spec.programs = 1;
    spec.firstSeed = 7;  // generates at least one indirect ref
    spec.runArms = false;
    spec.injectFailure = hasIndirectRef;
    FuzzReport report = Fuzzer::run(spec);
    ASSERT_FALSE(report.ok());
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].workload, "gen_7");
    EXPECT_EQ(report.violations[0].seed, 7u);
    EXPECT_EQ(report.violations[0].arm, "injected");

    std::string json = report.json("adore_fuzz");
    EXPECT_NE(json.find("\"tool\":\"adore_fuzz\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"gen_7\""), std::string::npos);
    EXPECT_NE(json.find("\"seed\":7"), std::string::npos);
    EXPECT_NE(json.find("\"arm\":\"injected\""), std::string::npos);
    EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
}

TEST(Fuzz, ShrinkerMinimizesInjectedFailure)
{
    workloads::GeneratorConfig gen;
    gen.seed = 7;
    hir::Program prog = workloads::generate(gen);
    ASSERT_NE(hasIndirectRef(prog), "");

    FuzzSpec oracle;
    oracle.runArms = false;  // the predicate is the failure oracle
    oracle.injectFailure = hasIndirectRef;

    int steps = 0;
    hir::Program minimal = Fuzzer::shrink(prog, 7, oracle, &steps);
    EXPECT_GT(steps, 0);
    EXPECT_NE(hasIndirectRef(minimal), "");  // failure preserved
    EXPECT_EQ(workloads::validateProgram(minimal), "");

    // Fully minimized: one loop, the indirect ref and its index
    // array, nothing else.
    EXPECT_EQ(minimal.loops.size(), 1u);
    EXPECT_EQ(minimal.lists.size(), 0u);
    EXPECT_LE(minimal.arrays.size(), 2u);
    ASSERT_EQ(minimal.loops[0].body.refs.size(), 1u);
    EXPECT_GE(minimal.loops[0].body.refs[0].indexArray, 0);
    EXPECT_EQ(minimal.loops[0].body.chases.size(), 0u);

    // The reproducer compiles to a tiny kernel: its whole loop body
    // fits in at most 8 bundles.
    RunConfig cfg;
    cfg.compile.level = OptLevel::O2;
    cfg.compile.reserveAdoreRegs = true;
    cfg.maxCycles = 10'000'000ULL;
    cfg.quietCycleLimit = true;
    RunMetrics m = Experiment::run(minimal, cfg);
    EXPECT_TRUE(m.halted);
    int body_bundles = 0;
    for (const LoopCompileInfo &li : m.compileReport.loops)
        body_bundles += li.bodyBundles;
    EXPECT_LE(body_bundles, 8);
    EXPECT_GT(body_bundles, 0);
}

TEST(Fuzz, ReplayedKernelMatchesGeneratedRun)
{
    workloads::GeneratorConfig gen;
    gen.seed = 19;
    hir::Program prog = workloads::generate(gen);

    hir::Program parsed;
    std::string err;
    ASSERT_TRUE(workloads::parseProgram(workloads::renderProgram(prog),
                                        parsed, err))
        << err;

    // A replayed kernel must behave exactly like the generated one.
    RunConfig cfg;
    cfg.compile.level = OptLevel::O2;
    cfg.compile.reserveAdoreRegs = true;
    cfg.maxCycles = 30'000'000ULL;
    cfg.quietCycleLimit = true;
    RunMetrics a = Experiment::run(prog, cfg);
    RunMetrics b = Experiment::run(parsed, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.l1dStats.misses, b.l1dStats.misses);
}

} // namespace
} // namespace adore
