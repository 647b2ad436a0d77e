/**
 * @file
 * Fig. 7(b): speedup of O3 + runtime prefetching over O3.
 *
 * Paper result: benchmarks whose misses static prefetching cannot reach
 * (mcf's pointer chasing, art's aliased parameters, equake's indirect
 * references) keep nearly their O2 gains; for the rest the compiler's
 * own lfetch makes ADORE skip the traces and the difference collapses
 * to roughly -3%..+2%.
 */

#include "bench_common.hh"

using namespace adore;
using namespace adore::bench;

int
main()
{
    printHeader("Fig. 7(b) — O3 + Runtime Prefetching vs O3 (restricted)");

    CompileOptions o3 = restrictedOptions(OptLevel::O3);

    Table table({"benchmark", "O3 cycles", "+RP cycles", "speedup",
                 "traces skipped (lfetch)", "prefetches(d/i/p)"});
    BarChart chart("Fig 7(b) speedup: O3 + runtime prefetching", "%");

    // Two independent runs per workload, fanned out across ADORE_JOBS
    // workers; the table is rendered from the ordered results below.
    std::vector<WorkloadJob> jobs;
    for (const auto &info : workloads::allWorkloads()) {
        hir::Program prog = workloads::make(info.name);
        jobs.push_back({prog, workloadConfig(o3, false)});
        jobs.push_back({std::move(prog), workloadConfig(o3, true)});
    }
    std::vector<RunMetrics> results = runJobs(jobs);

    std::size_t job = 0;
    for (const auto &info : workloads::allWorkloads()) {
        RunMetrics base = results[job++];
        RunMetrics rp = results[job++];

        double speedup = Experiment::speedup(base.cycles, rp.cycles);
        const AdoreStats &st = rp.adoreStats;
        char pf[48];
        std::snprintf(pf, sizeof(pf), "%d/%d/%d", st.directPrefetches,
                      st.indirectPrefetches, st.pointerPrefetches);
        table.addRow({info.name, std::to_string(base.cycles),
                      std::to_string(rp.cycles), Table::pct(speedup),
                      std::to_string(st.tracesSkippedLfetch), pf});
        chart.addBar(info.name, speedup);
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("%s\n", chart.render().c_str());
    return 0;
}
