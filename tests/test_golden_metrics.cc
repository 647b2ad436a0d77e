/**
 * @file
 * Golden-metrics regression test for the interpreter fast path.
 *
 * The expected values below were produced by the *pre-fast-path* (seed)
 * interpreter: three representative workloads (mcf, art, gzip), each run
 * with and without the ADORE runtime, under the paper's restricted O2
 * compilation and a fixed 30M-cycle budget.  The optimized interpreter
 * (predecoded operand masks, decoded-bundle cache, event watermark, L1I
 * line fast path) must reproduce every metric bit-identically: any
 * divergence means the fast path changed the timing model, not just its
 * speed.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "harness/experiment.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace adore;

struct Golden
{
    const char *name;
    bool adore;
    Cycle cycles;
    std::uint64_t retired;
    std::uint64_t dearMisses;
};

// Print the case by name.  Without this, gtest prints the raw bytes of the
// struct, including the address held in `name`, so the listed test name (and
// the CTest name discovered from it) changed with every build and every run
// under address-space randomization.
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.name << (g.adore ? "_adore" : "_base");
}

// Snapshot taken from the seed interpreter (commit 949ff9d) at
// maxCycles = 30'000'000, restricted O2, defaultAdoreConfig().
constexpr Golden kGolden[] = {
    {"mcf", false, 30000101ULL, 3721179ULL, 432707ULL},
    {"mcf", true, 30000011ULL, 8891364ULL, 452140ULL},
    {"art", false, 21512854ULL, 10127631ULL, 195419ULL},
    {"art", true, 14067335ULL, 10127651ULL, 62578ULL},
    {"gzip", false, 1834863ULL, 2310884ULL, 14979ULL},
    {"gzip", true, 1858797ULL, 2310884ULL, 14979ULL},
    // FP (equake), call-heavy (vortex), and pointer/dictionary (parser)
    // workloads, pinned from the same interpreter lineage immediately
    // before the memory-hierarchy fast path landed, locking that fast
    // path down on access shapes mcf/art/gzip do not cover.  (equake
    // deliberately saturates the 30M-cycle budget without ADORE — the
    // "hit the limit" warning is expected.)
    {"equake", false, 30000076ULL, 16759640ULL, 334375ULL},
    {"equake", true, 30000001ULL, 26737892ULL, 70868ULL},
    {"vortex", false, 18976938ULL, 34703285ULL, 124960ULL},
    {"vortex", true, 17855226ULL, 38517718ULL, 32938ULL},
    {"parser", false, 14805704ULL, 27494476ULL, 763768ULL},
    {"parser", true, 13392808ULL, 33091528ULL, 266373ULL},
};

class GoldenMetrics : public ::testing::TestWithParam<Golden>
{
};

TEST_P(GoldenMetrics, BitIdenticalToSeedInterpreter)
{
    const Golden &g = GetParam();

    hir::Program prog = workloads::make(g.name);
    RunConfig cfg;
    cfg.compile.level = OptLevel::O2;
    cfg.compile.softwarePipelining = false;
    cfg.compile.reserveAdoreRegs = true;
    cfg.adore = g.adore;
    if (g.adore)
        cfg.adoreConfig = Experiment::defaultAdoreConfig();
    cfg.maxCycles = 30'000'000ULL;

    RunMetrics m = Experiment::run(prog, cfg);

    EXPECT_EQ(m.cycles, g.cycles);
    EXPECT_EQ(m.retired, g.retired);
    EXPECT_EQ(m.dearMisses, g.dearMisses);
    // CPI is derived from the two integers above; assert the exact
    // division so the printed tables cannot drift either.
    ASSERT_GT(g.retired, 0u);
    EXPECT_DOUBLE_EQ(m.cpi, static_cast<double>(g.cycles) /
                                static_cast<double>(g.retired));
}

INSTANTIATE_TEST_SUITE_P(
    All, GoldenMetrics, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(info.param.name) +
               (info.param.adore ? "_adore" : "_base");
    });

} // namespace
