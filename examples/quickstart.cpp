/**
 * @file
 * Quickstart: build a small pointer-chasing workload, run it once
 * plain and once under the ADORE dynamic optimizer, and print what the
 * runtime did and what it bought.
 *
 * This is the minimal end-to-end tour of the public API:
 *   hir::Program  ->  Experiment::run(cfg)  ->  RunMetrics.
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "workloads/common.hh"

using namespace adore;

int
main()
{
    // --- 1. Describe a workload in the compiler's HIR. -----------------
    hir::Program prog;
    prog.name = "quickstart";

    // A 4 MiB linked list in traversal order: the classic case where
    // runtime profiling beats static analysis.
    int list = workloads::linkedList(prog, "nodes", 32'000, 128, 0.1);

    hir::LoopBody body;
    body.chases.push_back({list, 8});
    body.extraIntOps = 4;
    int loop = workloads::addLoop(prog, "walk", 31'900, body);
    workloads::phase(prog, loop, 8);

    // --- 2. Baseline run: restricted O2, no dynamic optimizer. ---------
    RunConfig base_cfg;
    base_cfg.compile.level = OptLevel::O2;
    base_cfg.compile.softwarePipelining = false;
    base_cfg.compile.reserveAdoreRegs = true;
    RunMetrics base = Experiment::run(prog, base_cfg);

    // --- 3. Same binary with ADORE attached. ----------------------------
    RunConfig opt_cfg = base_cfg;
    opt_cfg.adore = true;
    opt_cfg.adoreConfig = Experiment::defaultAdoreConfig();
    RunMetrics opt = Experiment::run(prog, opt_cfg);

    // --- 4. Report. ------------------------------------------------------
    std::printf("quickstart: runtime data-cache prefetching demo\n\n");
    std::printf("%-28s %15s %15s\n", "", "baseline", "with ADORE");
    std::printf("%-28s %15llu %15llu\n", "cycles",
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(opt.cycles));
    std::printf("%-28s %15.2f %15.2f\n", "CPI", base.cpi, opt.cpi);
    std::printf("%-28s %15.2f %15.2f\n", "DEAR misses / 1000 insn",
                base.dearPer1000, opt.dearPer1000);

    const AdoreStats &st = opt.adoreStats;
    std::printf("\nADORE activity:\n");
    std::printf("  stable phases detected : %llu\n",
                static_cast<unsigned long long>(st.phasesDetected));
    std::printf("  phases optimized       : %llu\n",
                static_cast<unsigned long long>(st.phasesOptimized));
    std::printf("  traces patched         : %llu\n",
                static_cast<unsigned long long>(st.tracesPatched));
    std::printf("  prefetches  direct     : %d\n", st.directPrefetches);
    std::printf("              indirect   : %d\n", st.indirectPrefetches);
    std::printf("              pointer    : %d\n", st.pointerPrefetches);

    std::printf("\nspeedup: %.1f%%\n",
                Experiment::speedup(base.cycles, opt.cycles) * 100.0);
    return 0;
}
