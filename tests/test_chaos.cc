/**
 * @file
 * Chaos-harness acceptance tests (DESIGN.md §10):
 *
 *  - replay determinism: the same fault seed reproduces bit-identical
 *    metrics and an identical decision-event stream;
 *  - faults-off bit-identity: a FaultConfig with every rate at zero is
 *    indistinguishable from no fault plan at all;
 *  - a small Experiment::runChaos sweep holds all invariants.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/chaos.hh"
#include "harness/experiment.hh"
#include "workloads/workloads.hh"

namespace adore
{
namespace
{

RunConfig
chaoticConfig(std::uint64_t seed)
{
    RunConfig cfg;
    cfg.compile.level = OptLevel::O2;
    cfg.compile.softwarePipelining = false;
    cfg.compile.reserveAdoreRegs = true;
    cfg.maxCycles = 6'000'000;
    cfg.faults = defaultChaosFaults();
    cfg.faults.seed = seed;
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();
    cfg.adoreConfig.guardrails = true;
    return cfg;
}

std::vector<std::string>
renderedEvents(const observe::EventTrace &events)
{
    std::vector<std::string> lines;
    for (const observe::Event &e : events.snapshot())
        lines.push_back(observe::renderEventLine(e));
    return lines;
}

TEST(Chaos, SameSeedReplaysIdenticalRun)
{
    hir::Program prog = workloads::make("mcf");

    observe::EventTrace ev1(1 << 16), ev2(1 << 16);
    ev1.enable();
    ev2.enable();

    RunConfig cfg1 = chaoticConfig(42);
    cfg1.adoreConfig.events = &ev1;
    RunConfig cfg2 = chaoticConfig(42);
    cfg2.adoreConfig.events = &ev2;

    RunMetrics m1 = Experiment::run(prog, cfg1);
    RunMetrics m2 = Experiment::run(prog, cfg2);

    EXPECT_TRUE(m1.faultsUsed);
    EXPECT_GT(m1.faultStats.total(), 0u);
    EXPECT_EQ(Experiment::metricsJson(m1), Experiment::metricsJson(m2));
    EXPECT_EQ(renderedEvents(ev1), renderedEvents(ev2));
}

TEST(Chaos, DifferentSeedsDiverge)
{
    hir::Program prog = workloads::make("mcf");
    RunMetrics m1 = Experiment::run(prog, chaoticConfig(1));
    RunMetrics m2 = Experiment::run(prog, chaoticConfig(2));
    EXPECT_NE(Experiment::metricsJson(m1), Experiment::metricsJson(m2));
}

TEST(Chaos, ZeroRateFaultPlanIsBitIdenticalToNone)
{
    hir::Program prog = workloads::make("art");

    RunConfig plain;
    plain.compile.level = OptLevel::O2;
    plain.compile.softwarePipelining = false;
    plain.compile.reserveAdoreRegs = true;
    plain.maxCycles = 6'000'000;
    plain.adore = true;
    plain.adoreConfig = Experiment::defaultAdoreConfig();

    RunConfig zeroed = plain;
    zeroed.faults.seed = 99;  // all rates stay 0.0: any() is false

    RunMetrics a = Experiment::run(prog, plain);
    RunMetrics b = Experiment::run(prog, zeroed);
    EXPECT_FALSE(a.faultsUsed);
    EXPECT_FALSE(b.faultsUsed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(Experiment::metricsJson(a), Experiment::metricsJson(b));
}

TEST(Chaos, SmallSoakHoldsInvariants)
{
    ChaosSpec spec;
    spec.workloads = {"gzip", "art"};
    spec.seeds = {1, 2};
    spec.maxCycles = 6'000'000;

    ChaosReport report = Experiment::runChaos(spec);
    EXPECT_TRUE(report.ok()) << report.table();
    EXPECT_EQ(report.runs.size(), 4u);
    for (const ChaosRunResult &r : report.runs) {
        EXPECT_TRUE(r.chaotic.faultsUsed);
        EXPECT_TRUE(r.chaotic.guardrailsUsed);
        EXPECT_TRUE(r.baseline.faultsUsed);
    }
}

} // namespace
} // namespace adore
