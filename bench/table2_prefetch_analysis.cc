/**
 * @file
 * Table 2: prefetching data analysis — per benchmark, the number of
 * delinquent loads prefetched under each reference pattern (direct
 * array / indirect array / pointer chasing) and the number of stable
 * phases optimized, on the O2 (restricted) binaries.
 *
 * Paper result: the majority of prefetches are direct/indirect array
 * references; pointer chasing appears where linked structures have
 * (partially) regular strides (mcf, parser, ammp); gzip never reaches
 * a stable phase.
 */

#include "bench_common.hh"

using namespace adore;
using namespace adore::bench;

int
main()
{
    printHeader("Table 2 — Prefetching Data Analysis (O2 + RP)");

    CompileOptions o2 = restrictedOptions(OptLevel::O2);

    // The per-level miss-rate columns give the prefetch counts their
    // context: a workload's prefetch mix should track where its demand
    // misses actually occur in the hierarchy.
    Table fp_table({"SpecFP2000", "direct array", "indirect array",
                    "pointer-chasing", "optimized phase #", "L1D miss",
                    "L2 miss", "L3 miss", "ifetch miss"});
    Table int_table({"SpecINT2000", "direct array", "indirect array",
                     "pointer-chasing", "optimized phase #", "L1D miss",
                     "L2 miss", "L3 miss", "ifetch miss"});

    // One independent run per workload, fanned out across ADORE_JOBS
    // workers; both tables are rendered from the ordered results below.
    std::vector<WorkloadJob> jobs;
    for (const auto &info : workloads::allWorkloads()) {
        jobs.push_back(
            {workloads::make(info.name), workloadConfig(o2, true)});
    }
    std::vector<RunMetrics> results = runJobs(jobs);

    std::size_t job = 0;
    for (const auto &info : workloads::allWorkloads()) {
        const RunMetrics &rp = results[job++];
        const AdoreStats &st = rp.adoreStats;

        Table &table = info.fp ? fp_table : int_table;
        table.addRow({info.name, std::to_string(st.directPrefetches),
                      std::to_string(st.indirectPrefetches),
                      std::to_string(st.pointerPrefetches),
                      std::to_string(st.phasesOptimized),
                      Table::pct(rp.l1dStats.missRate()),
                      Table::pct(rp.l2Stats.missRate()),
                      Table::pct(rp.l3Stats.missRate()),
                      Table::pct(rp.memStats.ifetchMissRate())});
    }

    std::printf("%s\n", fp_table.render().c_str());
    std::printf("%s\n", int_table.render().c_str());
    return 0;
}
