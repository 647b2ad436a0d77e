/**
 * @file
 * inspect_adore: run one of the 17 SPEC2000-named workloads under the
 * ADORE dynamic optimizer and print a detailed account of what the
 * runtime saw and did — profile windows, phases, traces, per-pattern
 * prefetch counts, scheduling statistics, and cache behaviour.
 *
 * Usage: example_inspect_adore [workload] [o2|o3]   (default: art o2)
 */

#include <cstdio>
#include <cstring>

#include "harness/experiment.hh"
#include "workloads/workloads.hh"

using namespace adore;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "art";
    bool o3 = argc > 2 && std::strcmp(argv[2], "o3") == 0;

    hir::Program prog = workloads::make(name);

    RunConfig base_cfg;
    base_cfg.compile.level = o3 ? OptLevel::O3 : OptLevel::O2;
    base_cfg.compile.softwarePipelining = false;
    base_cfg.compile.reserveAdoreRegs = true;

    RunConfig rp_cfg = base_cfg;
    rp_cfg.adore = true;
    rp_cfg.adoreConfig = Experiment::defaultAdoreConfig();

    RunMetrics base = Experiment::run(prog, base_cfg);
    RunMetrics rp = Experiment::run(prog, rp_cfg);
    const AdoreStats &st = rp.adoreStats;

    std::printf("workload %s at %s (restricted compilation)\n\n",
                name.c_str(), o3 ? "O3" : "O2");
    std::printf("  %-28s %12llu -> %llu cycles (%.1f%% speedup)\n",
                "execution",
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(rp.cycles),
                Experiment::speedup(base.cycles, rp.cycles) * 100.0);
    std::printf("  %-28s %12.2f -> %.2f\n", "CPI", base.cpi, rp.cpi);
    std::printf("  %-28s %12.2f -> %.2f\n", "DEAR misses/1000 insn",
                base.dearPer1000, rp.dearPer1000);
    std::printf("  %-28s %12zu bundles\n", "static code size",
                base.compileReport.textBytes / 16);

    std::printf("\nphase detection:\n");
    std::printf("  windows processed  %llu (doublings %llu)\n",
                static_cast<unsigned long long>(st.windowsProcessed),
                static_cast<unsigned long long>(st.windowDoublings));
    std::printf("  stable phases      %llu (changes %llu)\n",
                static_cast<unsigned long long>(st.phasesDetected),
                static_cast<unsigned long long>(st.phaseChanges));
    std::printf("  skipped: low-miss  %llu, in-pool %llu\n",
                static_cast<unsigned long long>(st.phasesSkippedLowMiss),
                static_cast<unsigned long long>(st.phasesSkippedInPool));
    std::printf("  optimized          %llu (with prefetches %llu)\n",
                static_cast<unsigned long long>(st.phasesOptimized),
                static_cast<unsigned long long>(st.phasesPrefetched));

    std::printf("\ntrace optimization:\n");
    std::printf("  traces selected    %llu (loops %llu)\n",
                static_cast<unsigned long long>(st.tracesSelected),
                static_cast<unsigned long long>(st.loopTraces));
    std::printf("  traces patched     %llu\n",
                static_cast<unsigned long long>(st.tracesPatched));
    std::printf("  skipped: lfetch %llu, swp %llu, already-patched %llu\n",
                static_cast<unsigned long long>(st.tracesSkippedLfetch),
                static_cast<unsigned long long>(st.tracesSkippedSwp),
                static_cast<unsigned long long>(st.tracesSkippedPatched));

    std::printf("\nprefetch generation (Fig. 6 patterns):\n");
    std::printf("  direct             %d\n", st.directPrefetches);
    std::printf("  indirect           %d\n", st.indirectPrefetches);
    std::printf("  pointer-chasing    %d\n", st.pointerPrefetches);
    std::printf("  skipped: no regs   %d, unknown pattern %d\n",
                st.loadsSkippedNoRegs, st.loadsSkippedUnknown);
    std::printf("  scheduling: %d free slots used, %d bundles added\n",
                st.slotsFilled, st.bundlesInserted);

    std::printf("\nmemory system (with ADORE):\n");
    std::printf("  prefetches issued  %llu (dropped %llu, useless %llu)\n",
                static_cast<unsigned long long>(
                    rp.memStats.prefetchesIssued),
                static_cast<unsigned long long>(
                    rp.memStats.prefetchesDropped),
                static_cast<unsigned long long>(
                    rp.memStats.prefetchesUseless));
    std::printf("  L1I miss rate      %.2f%% (baseline %.2f%%)\n",
                rp.l1iStats.missRate() * 100.0,
                base.l1iStats.missRate() * 100.0);
    return 0;
}
