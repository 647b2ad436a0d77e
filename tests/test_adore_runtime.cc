/**
 * @file
 * Integration tests for the AdoreRuntime controller: end-to-end phase
 * detection + trace optimization on small compiled programs, execution
 * correctness across patching (architectural results must not change),
 * the Fig. 11 monitor-only mode, pool-phase skipping, the SWP loop
 * filter, per-head revert charging, and the virtual-cycle watchdog.
 */

#include <gtest/gtest.h>

#include <string>

#include "compiler/compiler.hh"
#include "harness/experiment.hh"
#include "workloads/common.hh"

namespace adore
{
namespace
{

using workloads::direct;

/** A chase workload ADORE reliably optimizes. */
hir::Program
chaseProgram()
{
    hir::Program prog;
    prog.name = "chase";
    int list = workloads::linkedList(prog, "nodes", 16'000, 128, 0.0);
    hir::LoopBody body;
    body.chases.push_back({list, 8});
    int loop = workloads::addLoop(prog, "walk", 15'900, body);
    workloads::phase(prog, loop, 8);
    return prog;
}

/** A streaming workload with a result stored to memory. */
hir::Program
streamStoreProgram()
{
    hir::Program prog;
    prog.name = "stream";
    int src = workloads::intStream(prog, "src", 96 * 1024);
    int dst = workloads::intStream(prog, "dst", 96 * 1024);
    hir::LoopBody body;
    body.refs.push_back(direct(src, 2));
    body.refs.push_back(direct(dst, 2, /*store=*/true));
    int loop = workloads::addLoop(prog, "copyish", 48 * 1024, body);
    workloads::phase(prog, loop, 6);
    return prog;
}

RunConfig
baseConfig()
{
    RunConfig cfg;
    cfg.compile = restrictedOptions(OptLevel::O2);
    return cfg;
}

TEST(AdoreRuntime, OptimizesStablePhaseAndSpeedsUp)
{
    hir::Program prog = chaseProgram();
    RunMetrics base = Experiment::run(prog, baseConfig());

    RunConfig rp = baseConfig();
    rp.adore = true;
    rp.adoreConfig = Experiment::defaultAdoreConfig();
    RunMetrics opt = Experiment::run(prog, rp);

    EXPECT_TRUE(opt.halted);
    EXPECT_GE(opt.adoreStats.phasesDetected, 1u);
    EXPECT_GE(opt.adoreStats.phasesOptimized, 1u);
    EXPECT_GE(opt.adoreStats.tracesPatched, 1u);
    EXPECT_GT(opt.adoreStats.pointerPrefetches, 0);
    EXPECT_LT(opt.cycles, base.cycles);
    EXPECT_LT(opt.cpi, base.cpi);
}

/** A library caller that never calls setVerbose() gets no decision
 *  log: inform() output is off by default. */
TEST(AdoreRuntime, SilentOnStderrByDefault)
{
    hir::Program prog = chaseProgram();
    RunConfig cfg = baseConfig();
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();

    ::testing::internal::CaptureStderr();
    RunMetrics m = Experiment::run(prog, cfg);
    std::string err = ::testing::internal::GetCapturedStderr();

    ASSERT_GE(m.adoreStats.tracesPatched, 1u);  // there were decisions
    EXPECT_EQ(err, "");
}

TEST(AdoreRuntime, PatchingPreservesArchitecturalResults)
{
    // The program stores acc into dst; with and without the dynamic
    // optimizer, memory contents must match exactly.
    hir::Program prog = streamStoreProgram();

    RunConfig base_cfg = baseConfig();
    RunConfig rp_cfg = baseConfig();
    rp_cfg.adore = true;
    rp_cfg.adoreConfig = Experiment::defaultAdoreConfig();

    // Run both configurations and capture the dst region.
    auto run_and_hash = [&](const RunConfig &cfg) {
        Machine machine(cfg.machine);
        DataLayout data(machine.memory());
        Compiler compiler(cfg.machine.hier);
        CompileReport rep =
            compiler.compile(prog, cfg.compile, machine.code(), data);
        machine.cpu().setPc(rep.entry);
        std::unique_ptr<AdoreRuntime> rt;
        if (cfg.adore) {
            rt = std::make_unique<AdoreRuntime>(machine.cpu(),
                                                cfg.adoreConfig);
            rt->attach();
        }
        auto res = machine.cpu().run(cfg.maxCycles);
        EXPECT_TRUE(res.halted);
        if (rt) {
            EXPECT_GE(rt->stats().tracesPatched, 1u);
        }
        Addr dst = data.addrOf("stream.dst");
        std::uint64_t hash = 1469598103934665603ULL;
        for (std::uint64_t i = 0; i < 96 * 1024; ++i) {
            hash ^= machine.memory().readU64(dst + i * 8);
            hash *= 1099511628211ULL;
        }
        return hash;
    };

    EXPECT_EQ(run_and_hash(base_cfg), run_and_hash(rp_cfg));
}

TEST(AdoreRuntime, MonitorOnlyModeNeverPatches)
{
    hir::Program prog = chaseProgram();
    RunConfig cfg = baseConfig();
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();
    cfg.adoreConfig.insertPrefetches = false;
    RunMetrics m = Experiment::run(prog, cfg);
    EXPECT_GE(m.adoreStats.phasesDetected, 1u);
    EXPECT_EQ(m.adoreStats.tracesPatched, 0u);
    EXPECT_EQ(m.memStats.prefetchesIssued, 0u);
}

TEST(AdoreRuntime, MonitoringOverheadIsSmall)
{
    hir::Program prog = streamStoreProgram();
    RunMetrics base = Experiment::run(prog, baseConfig());
    RunConfig cfg = baseConfig();
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();
    cfg.adoreConfig.insertPrefetches = false;
    RunMetrics mon = Experiment::run(prog, cfg);
    double overhead = static_cast<double>(mon.cycles) /
                          static_cast<double>(base.cycles) -
                      1.0;
    EXPECT_LT(overhead, 0.05);  // paper: 1-2%
}

TEST(AdoreRuntime, PoolPhasesSkipped)
{
    // After optimization the phase re-detects from the trace pool and
    // must be skipped, not re-optimized.
    hir::Program prog = chaseProgram();
    RunConfig cfg = baseConfig();
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();
    RunMetrics m = Experiment::run(prog, cfg);
    EXPECT_GE(m.adoreStats.phasesSkippedInPool +
                  m.adoreStats.tracesSkippedPatched,
              0u);
    // The single hot loop must be patched exactly once.
    EXPECT_EQ(m.adoreStats.tracesPatched, 1u);
}

TEST(AdoreRuntime, SwpLoopFilterBlocksOptimization)
{
    // Only FP loads get software-pipelined, so use an FP stream.
    hir::Program prog;
    prog.name = "fpstream";
    int src = workloads::fpStream(prog, "src", 96 * 1024);
    hir::LoopBody body;
    body.refs.push_back(direct(src, 2));
    body.extraFpOps = 2;
    int loop = workloads::addLoop(prog, "fpscan", 48 * 1024, body);
    workloads::phase(prog, loop, 6);

    RunConfig cfg = baseConfig();
    cfg.compile.softwarePipelining = true;  // SWP'd loops
    cfg.compile.reserveAdoreRegs = true;
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();
    RunMetrics m = Experiment::run(prog, cfg);
    // The harness installs the SWP filter automatically; all loop
    // traces must be skipped.
    EXPECT_EQ(m.adoreStats.tracesPatched, 0u);
    EXPECT_GE(m.adoreStats.tracesSkippedSwp, 0u);
}

TEST(AdoreRuntime, ShortRunNeverReachesStablePhase)
{
    hir::Program prog;
    prog.name = "tiny";
    int arr = workloads::intStream(prog, "a", 16 * 1024);
    hir::LoopBody body;
    body.refs.push_back(direct(arr, 1));
    int loop = workloads::addLoop(prog, "quick", 8 * 1024, body);
    workloads::phase(prog, loop, 2);

    RunConfig cfg = baseConfig();
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();
    RunMetrics m = Experiment::run(prog, cfg);
    EXPECT_EQ(m.adoreStats.phasesOptimized, 0u);  // gzip's fate
}

TEST(AdoreRuntime, DetachStopsSampling)
{
    hir::Program prog = chaseProgram();
    Machine machine;
    DataLayout data(machine.memory());
    Compiler compiler(machine.config().hier);
    CompileOptions opts;
    opts.reserveAdoreRegs = true;
    opts.softwarePipelining = false;
    CompileReport rep =
        compiler.compile(prog, opts, machine.code(), data);
    machine.cpu().setPc(rep.entry);

    AdoreRuntime rt(machine.cpu(), Experiment::defaultAdoreConfig());
    rt.attach();
    machine.cpu().run(2'000'000);
    std::uint64_t samples = rt.sampler().samplesTaken();
    EXPECT_GT(samples, 0u);
    rt.detach();
    machine.cpu().run(4'000'000);
    EXPECT_EQ(rt.sampler().samplesTaken(), samples);
}

TEST(AdoreRuntime, RevertChargesPerStillPatchedHead)
{
    // Reverting a batch is one brief stop-and-copy pause *per patched
    // head* — exactly symmetric with the per-trace patch charge.  A
    // once-per-batch charge would undercount multi-trace batches, so
    // this pins the charged cycles on a batch with >= 2 patched heads
    // (ammp-style phase: a pointer chase and an indirect gather sharing
    // one stable phase, each selected as its own trace).
    hir::Program prog;
    prog.name = "twotrace";
    int list = workloads::linkedList(prog, "atoms", 4'000, 128, 0.12);
    int data = workloads::fpStream(prog, "coords", 256 * 1024);
    int idx = workloads::indexArray(prog, "nbr", 96 * 1024, 34 * 1024);
    hir::LoopBody chase;
    chase.chases.push_back({list, 8});
    chase.extraFpOps = 16;
    int l_chase = workloads::addLoop(prog, "chase", 3'900, chase);
    hir::LoopBody gather;
    gather.refs.push_back(workloads::indirect(data, idx));
    gather.extraFpOps = 14;
    int l_gather = workloads::addLoop(prog, "gather", 96 * 1024, gather);
    workloads::phase(prog, {l_chase, l_gather}, 8);

    RunConfig cfg = baseConfig();
    cfg.adoreConfig = Experiment::defaultAdoreConfig();

    Machine machine(cfg.machine);
    DataLayout dlayout(machine.memory());
    Compiler compiler(cfg.machine.hier);
    CompileReport rep =
        compiler.compile(prog, cfg.compile, machine.code(), dlayout);
    machine.cpu().setPc(rep.entry);
    AdoreRuntime rt(machine.cpu(), cfg.adoreConfig);
    rt.attach();
    auto res = machine.cpu().run(cfg.maxCycles);
    EXPECT_TRUE(res.halted);

    std::size_t bi = rt.batchCount();
    std::size_t heads = 0;
    for (std::size_t i = 0; i < rt.batchCount(); ++i) {
        std::size_t n = rt.patchedHeadsOf(i).size();
        if (n >= 2) {
            bi = i;
            heads = n;
            break;
        }
    }
    ASSERT_LT(bi, rt.batchCount()) << "no batch with >= 2 patched heads";

    std::uint64_t unpatched_before = rt.stats().tracesUnpatched;
    Cycle before = machine.cpu().cycle();
    ASSERT_TRUE(rt.revertBatchAt(bi));
    Cycle charged = machine.cpu().cycle() - before;

    EXPECT_EQ(charged,
              heads * cfg.adoreConfig.patchCyclesPerTrace);
    EXPECT_EQ(rt.stats().tracesUnpatched - unpatched_before, heads);
    EXPECT_TRUE(rt.patchedHeadsOf(bi).empty());
    rt.detach();
}

/** Keeps the suite name it had beside the deleted threaded optimizer
 *  service, so its test ID is unchanged; it runs the in-hook path. */
TEST(OptimizerService, VirtualWatchdogCancelsStalledPhase)
{
    // Every optimizePhase entry draws a 400k-cycle injected stall,
    // which exceeds the 150k-cycle deadline: the deterministic watchdog
    // must cancel every optimization attempt, patch nothing, and step
    // the guardrail throttle down.
    RunConfig cfg = baseConfig();
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();
    cfg.adoreConfig.guardrails.enabled = true;
    cfg.faults.optimizerStallRate = 1.0;
    cfg.faults.seed = 3;
    cfg.maxCycles = 8'000'000ULL;
    cfg.quietCycleLimit = true;

    RunMetrics m = Experiment::run(chaseProgram(), cfg);

    EXPECT_GE(m.adoreStats.phasesWatchdogCancelled, 1u);
    EXPECT_EQ(m.adoreStats.tracesPatched, 0u);
    EXPECT_GE(m.faultStats.optimizerStalls, 1u);
    EXPECT_EQ(m.guardrailStats.watchdogFires,
              m.adoreStats.phasesWatchdogCancelled);
    EXPECT_GE(m.guardrailStats.prefetchDamped, 1u);
}

} // namespace
} // namespace adore
