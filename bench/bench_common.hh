/**
 * @file
 * Shared helpers for the per-figure/per-table bench binaries.
 *
 * Each binary regenerates one table or figure of the paper on the
 * simulated machine and prints it in a comparable format.  Absolute
 * numbers differ from the paper (the substrate is a scaled simulator,
 * not the authors' 900 MHz Itanium 2 — see DESIGN.md); the shapes are
 * the reproduction target.
 */

#ifndef ADORE_BENCH_BENCH_COMMON_HH
#define ADORE_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "support/table.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

namespace adore::bench
{

/** The paper's *original* compilation: SWP on, no registers reserved. */
inline CompileOptions
originalOptions(OptLevel level)
{
    CompileOptions opts;
    opts.level = level;
    opts.softwarePipelining = true;
    opts.reserveAdoreRegs = false;
    return opts;
}

/** The RunConfig runWorkload() uses, exposed for job-list construction. */
inline RunConfig
workloadConfig(const CompileOptions &compile, bool adore)
{
    RunConfig cfg;
    cfg.compile = compile;
    cfg.adore = adore;
    if (adore)
        cfg.adoreConfig = Experiment::defaultAdoreConfig();
    return cfg;
}

inline RunMetrics
runWorkload(const hir::Program &prog, const CompileOptions &compile,
            bool adore)
{
    return Experiment::run(prog, workloadConfig(compile, adore));
}

/**
 * One independent simulation in a bench binary's job list.  The program
 * is held by value so ad-hoc programs (not registered workloads) fan
 * out the same way.
 */
struct WorkloadJob
{
    hir::Program prog;
    RunConfig cfg;
};

/**
 * Run every job on the ThreadPool (ADORE_JOBS workers) and return the
 * metrics in job order.  Each simulation is self-contained, so the
 * result vector is bit-identical to running the jobs serially — the
 * binaries build the job list in print order, fan out here, and then
 * render their tables from the ordered results, keeping the printed
 * output byte-identical to the old serial loops.
 */
inline std::vector<RunMetrics>
runJobs(const std::vector<WorkloadJob> &jobs)
{
    std::vector<RunSpec> specs;
    specs.reserve(jobs.size());
    for (const WorkloadJob &job : jobs)
        specs.push_back({&job.prog, job.cfg});
    return Experiment::runMany(specs);
}

inline void
printHeader(const char *what)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", what);
    std::printf("(simulated Itanium-2-class machine; see DESIGN.md for scaling)\n");
    std::printf("==============================================================\n\n");
}

} // namespace adore::bench

#endif // ADORE_BENCH_BENCH_COMMON_HH
