/**
 * @file
 * Tests for the property-based workload generator (DESIGN.md §14):
 * determinism (same seed → byte-identical program and metrics),
 * distinctness across seeds, validator coverage, corpus round-trip,
 * and the shrinking primitives.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/experiment.hh"
#include "workloads/generator.hh"

#include "byte_mutations.hh"
#include "observe/report.hh"

namespace adore
{
namespace
{

using workloads::GeneratorConfig;

TEST(Generator, SameSeedIsByteIdentical)
{
    for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
        GeneratorConfig cfg;
        cfg.seed = seed;
        hir::Program a = workloads::generate(cfg);
        hir::Program b = workloads::generate(cfg);
        EXPECT_EQ(workloads::renderProgram(a),
                  workloads::renderProgram(b))
            << "seed " << seed;
        EXPECT_EQ(a.name, "gen_" + std::to_string(seed));
    }
}

TEST(Generator, SameSeedYieldsIdenticalMetrics)
{
    GeneratorConfig cfg;
    cfg.seed = 11;
    RunConfig run;
    run.compile.level = OptLevel::O2;
    run.compile.reserveAdoreRegs = true;
    run.maxCycles = 30'000'000ULL;
    run.quietCycleLimit = true;

    RunMetrics a = Experiment::run(workloads::generate(cfg), run);
    RunMetrics b = Experiment::run(workloads::generate(cfg), run);
    EXPECT_TRUE(a.halted);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.dearMisses, b.dearMisses);
    EXPECT_EQ(a.l1dStats.misses, b.l1dStats.misses);
}

TEST(Generator, DifferentSeedsYieldDistinctPrograms)
{
    std::set<std::string> renders;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        GeneratorConfig cfg;
        cfg.seed = seed;
        renders.insert(workloads::renderProgram(workloads::generate(cfg)));
    }
    // Collisions would mean the seed isn't reaching the structure
    // draws; requiring >90% distinct leaves room for rare small-shape
    // coincidences without weakening the point.
    EXPECT_GE(renders.size(), 30u);
}

TEST(Generator, EveryProgramPassesValidation)
{
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        GeneratorConfig cfg;
        cfg.seed = seed;
        hir::Program prog = workloads::generate(cfg);
        EXPECT_EQ(workloads::validateProgram(prog), "")
            << "seed " << seed;
        EXPECT_FALSE(prog.loops.empty());
        EXPECT_FALSE(prog.sequence.empty());
    }
}

TEST(Generator, KernelTextRoundTrips)
{
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        GeneratorConfig cfg;
        cfg.seed = seed;
        hir::Program prog = workloads::generate(cfg);
        std::string text = workloads::renderProgram(prog);

        hir::Program parsed;
        std::string err;
        ASSERT_TRUE(workloads::parseProgram(text, parsed, err))
            << "seed " << seed << ": " << err;
        EXPECT_EQ(workloads::renderProgram(parsed), text)
            << "seed " << seed;
    }
}

TEST(Generator, ParserRejectsMalformedKernels)
{
    hir::Program out;
    std::string err;
    EXPECT_FALSE(workloads::parseProgram("", out, err));
    EXPECT_FALSE(workloads::parseProgram("kernel v2\nend\n", out, err));
    EXPECT_FALSE(
        workloads::parseProgram("kernel v1\nname x\n", out, err));
    EXPECT_FALSE(workloads::parseProgram(
        "kernel v1\nname x\nbogus y\nend\n", out, err));
    // Structurally parseable but semantically invalid (no loops).
    EXPECT_FALSE(
        workloads::parseProgram("kernel v1\nname x\nend\n", out, err));
}

/**
 * Kernel files are untrusted input (`adore_fuzz --replay`): every byte
 * mutant of the committed corpus reproducer must parse to a program
 * that passes validation or come back as a parse error, never crash or
 * throw.
 */
TEST(Generator, ParserSurvivesByteMutations)
{
    std::string seed;
    ASSERT_TRUE(report::readFile(ADORE_SOURCE_DIR "/corpus/gen_7.kernel",
                                 seed));
    Rng rng(7);
    int parsed = 0;
    for (int i = 0; i < 4000; ++i) {
        const std::string text = adore::testing::mutateBytes(seed, rng);
        hir::Program prog;
        std::string err;
        bool ok = false;
        ASSERT_NO_THROW(ok = workloads::parseProgram(text, prog, err))
            << text;
        if (ok) {
            ++parsed;
            EXPECT_EQ(workloads::validateProgram(prog), "") << text;
        } else {
            EXPECT_FALSE(err.empty()) << text;
        }
    }
    EXPECT_GT(parsed, 0);  // some mutants keep a valid kernel
}

TEST(Generator, ValidatorCatchesBadPrograms)
{
    GeneratorConfig cfg;
    cfg.seed = 3;
    hir::Program prog = workloads::generate(cfg);

    hir::Program broken = prog;
    broken.arrays[0].elemBytes = 5;
    EXPECT_NE(workloads::validateProgram(broken), "");

    broken = prog;
    broken.loops[0].trip = 0;
    EXPECT_NE(workloads::validateProgram(broken), "");

    broken = prog;
    broken.sequence.clear();
    EXPECT_NE(workloads::validateProgram(broken), "");

    broken = prog;
    broken.sequence.push_back(broken.sequence.front());  // loop twice
    EXPECT_NE(workloads::validateProgram(broken), "");

    broken = prog;
    broken.arrays[0].name = broken.arrays.back().name;
    if (broken.arrays.size() > 1) {
        EXPECT_NE(workloads::validateProgram(broken), "");
    }
}

TEST(Generator, EndlessProgramsDeclareHugeRepeats)
{
    GeneratorConfig cfg;
    cfg.seed = 5;
    cfg.endless = true;
    hir::Program prog = workloads::generate(cfg);
    for (const hir::Phase &phase : prog.sequence)
        EXPECT_GE(phase.repeat, 1'000'000'000ULL);
}

TEST(Generator, DropUnreachableRemovesUnusedDecls)
{
    GeneratorConfig cfg;
    cfg.seed = 9;
    cfg.minLoops = 3;
    hir::Program prog = workloads::generate(cfg);
    ASSERT_GE(prog.sequence.size(), 2u);

    // Orphan everything but the first phase.
    prog.sequence.resize(1);
    hir::Program pruned = workloads::dropUnreachable(prog);
    EXPECT_EQ(workloads::validateProgram(pruned), "");
    EXPECT_LT(pruned.loops.size(), prog.loops.size());

    // Every surviving decl is actually referenced.
    std::set<int> arrays, lists;
    for (const hir::Loop &loop : pruned.loops) {
        for (const hir::ArrayRef &ref : loop.body.refs) {
            arrays.insert(ref.array);
            if (ref.indexArray >= 0)
                arrays.insert(ref.indexArray);
        }
        for (const hir::PtrChaseRef &chase : loop.body.chases)
            lists.insert(chase.list);
    }
    EXPECT_EQ(arrays.size(), pruned.arrays.size());
    EXPECT_EQ(lists.size(), pruned.lists.size());
}

TEST(Generator, ShrinkStepsAreValidAndSmaller)
{
    GeneratorConfig cfg;
    cfg.seed = 13;
    cfg.minLoops = 2;
    hir::Program prog = workloads::generate(cfg);
    std::string base = workloads::renderProgram(prog);

    std::vector<hir::Program> steps = workloads::shrinkSteps(prog);
    EXPECT_FALSE(steps.empty());
    for (const hir::Program &cand : steps) {
        EXPECT_EQ(workloads::validateProgram(cand), "");
        EXPECT_NE(workloads::renderProgram(cand), base);
    }
}

TEST(Generator, RegisterEstimateTracksPatterns)
{
    GeneratorConfig cfg;
    cfg.seed = 21;
    hir::Program prog = workloads::generate(cfg);
    for (const hir::Loop &loop : prog.loops) {
        int regs = workloads::estimateIntRegs(prog, loop);
        EXPECT_GE(regs, 1);
        EXPECT_LE(regs, 23) << loop.name;
    }
}

} // namespace
} // namespace adore
