/**
 * @file
 * Fig. 11: overhead of the ADORE system — execution time of the O2
 * binary alone vs O2 + the full runtime (continuous sampling, phase
 * detection, trace selection) with prefetch insertion disabled.
 *
 * Paper result: the bars are nearly equal for every benchmark; the
 * extra overhead of the system is 1-2%.
 */

#include "bench_common.hh"

using namespace adore;
using namespace adore::bench;

int
main()
{
    printHeader("Fig. 11 — Overhead of Runtime Prefetching "
                "(sampling + phase detection, no prefetch insertion)");

    CompileOptions o2 = restrictedOptions(OptLevel::O2);

    Table table({"benchmark", "O2 (s @900MHz)",
                 "O2+ADORE w/o prefetch (s)", "overhead"});
    double worst = 0.0;

    // Two independent runs per workload, fanned out across ADORE_JOBS
    // workers; the table is rendered from the ordered results below.
    std::vector<WorkloadJob> jobs;
    for (const auto &info : workloads::allWorkloads()) {
        hir::Program prog = workloads::make(info.name);
        jobs.push_back({prog, workloadConfig(o2, false)});

        RunConfig cfg = workloadConfig(o2, true);
        cfg.adoreConfig.insertPrefetches = false;
        jobs.push_back({std::move(prog), cfg});
    }
    std::vector<RunMetrics> results = runJobs(jobs);

    std::size_t job = 0;
    for (const auto &info : workloads::allWorkloads()) {
        RunMetrics base = results[job++];
        RunMetrics monitored = results[job++];

        double overhead =
            base.cycles ? static_cast<double>(monitored.cycles) /
                                  static_cast<double>(base.cycles) -
                              1.0
                        : 0.0;
        worst = std::max(worst, overhead);
        table.addRow({info.name, Table::fmt(base.secondsAt900MHz(), 3),
                      Table::fmt(monitored.secondsAt900MHz(), 3),
                      Table::pct(overhead)});
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("worst-case overhead: %.1f%% (paper: 1-2%%)\n",
                worst * 100.0);
    return 0;
}
