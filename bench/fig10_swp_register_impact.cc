/**
 * @file
 * Fig. 10: impact of register reservation and disabled software
 * pipelining — original O2 (SWP on, no reserved registers) vs the
 * restricted O2 used for runtime prefetching.
 *
 * Paper result: for most benchmarks the impact is minor (<3%); equake,
 * mcf, facerec and swim show a larger difference, primarily from SWP.
 */

#include "bench_common.hh"

using namespace adore;
using namespace adore::bench;

int
main()
{
    printHeader("Fig. 10 — O2 with SWP + no reserved registers vs "
                "restricted O2");

    Table table({"benchmark", "restricted O2", "original O2",
                 "original-O2 speedup", "SWP'd loops"});
    BarChart chart("Fig 10: original O2 (SWP, all registers) vs restricted",
                   "%");

    // Two independent runs per workload, fanned out across ADORE_JOBS
    // workers; the table is rendered from the ordered results below.
    std::vector<WorkloadJob> jobs;
    for (const auto &info : workloads::allWorkloads()) {
        hir::Program prog = workloads::make(info.name);
        jobs.push_back(
            {prog, workloadConfig(restrictedOptions(OptLevel::O2), false)});
        jobs.push_back({std::move(prog),
                        workloadConfig(originalOptions(OptLevel::O2), false)});
    }
    std::vector<RunMetrics> results = runJobs(jobs);

    std::size_t job = 0;
    for (const auto &info : workloads::allWorkloads()) {
        RunMetrics restricted = results[job++];
        RunMetrics original = results[job++];

        int swp_loops = 0;
        for (const auto &li : original.compileReport.loops)
            if (li.softwarePipelined)
                ++swp_loops;

        double speedup =
            Experiment::speedup(restricted.cycles, original.cycles);
        table.addRow({info.name, std::to_string(restricted.cycles),
                      std::to_string(original.cycles),
                      Table::pct(speedup), std::to_string(swp_loops)});
        chart.addBar(info.name, speedup);
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("%s\n", chart.render().c_str());
    return 0;
}
