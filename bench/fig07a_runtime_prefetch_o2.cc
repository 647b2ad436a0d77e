/**
 * @file
 * Fig. 7(a): speedup of O2 + runtime prefetching over O2, for all 17
 * SPEC2000-named workloads.
 *
 * Paper result: 9 of 17 benchmarks speed up 3%-57% (mcf the largest;
 * art/equake also big); the rest sit between -2% and +1%, with gcc
 * losing ~3.8% to I-cache effects and sampling overhead and gzip too
 * short to optimize.
 */

#include "bench_common.hh"

using namespace adore;
using namespace adore::bench;

int
main()
{
    printHeader("Fig. 7(a) — O2 + Runtime Prefetching vs O2 (restricted)");

    CompileOptions o2 = restrictedOptions(OptLevel::O2);

    Table table({"benchmark", "O2 cycles", "+RP cycles", "speedup",
                 "base CPI", "RP CPI", "phases", "prefetches(d/i/p)"});
    BarChart chart("Fig 7(a) speedup: O2 + runtime prefetching", "%");

    // Two independent runs per workload, fanned out across ADORE_JOBS
    // workers; the table is rendered from the ordered results below.
    std::vector<WorkloadJob> jobs;
    for (const auto &info : workloads::allWorkloads()) {
        hir::Program prog = workloads::make(info.name);
        jobs.push_back({prog, workloadConfig(o2, false)});
        jobs.push_back({std::move(prog), workloadConfig(o2, true)});
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
                      Table::fmt(base.cpi, 2), Table::fmt(rp.cpi, 2),
                      std::to_string(st.phasesOptimized), pf});
        chart.addBar(info.name, speedup);
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("%s\n", chart.render().c_str());
    return 0;
}
