/**
 * @file
 * Table 1: profile-guided static prefetching.
 *
 * For each benchmark: compile at O3 and count the loops the static pass
 * schedules for prefetching; run a perfmon-style training pass to
 * collect the cache-miss profile (delinquent loads covering 90% of
 * sampled miss latency); recompile at O3 with the profile filter; then
 * compare loop counts, execution time, and static binary size.
 *
 * Paper result: on average 83% of the loops scheduled at O3 are
 * filtered out, execution time stays within ~±1%, and binary size
 * shrinks by up to ~9%.
 */

#include "bench_common.hh"

using namespace adore;
using namespace adore::bench;

int
main()
{
    printHeader("Table 1 — Profile-Guided Static Prefetching (ORC-like)");

    Table table({"Spec2000", "loops O3", "loops O3+Profile", "time O3",
                 "time O3+Profile", "size O3", "size O3+Profile"});

    double filtered_sum = 0.0;
    int filtered_count = 0;

    // Each workload is a three-phase pipeline (O3 run, training run,
    // guided run) whose phases depend on each other, so the fan-out is
    // per *workload*: each pool job runs its own pipeline end to end.
    const auto &all = workloads::allWorkloads();
    struct PerWorkload
    {
        RunMetrics plain;
        RunMetrics prof;
    };
    std::vector<PerWorkload> results(all.size());
    ThreadPool pool;
    pool.parallelFor(all.size(), [&](std::size_t i) {
        hir::Program prog = workloads::make(all[i].name);

        CompileOptions o3 = originalOptions(OptLevel::O3);
        results[i].plain = runWorkload(prog, o3, false);

        // Training run: sampling profile from the O2 binary (the same
        // profile format the runtime prefetcher uses, Section 4.2).
        MissProfile profile = Experiment::collectProfile(
            prog, originalOptions(OptLevel::O2), 0.9);

        CompileOptions guided = o3;
        guided.profile = &profile;
        results[i].prof = runWorkload(prog, guided, false);
    });

    std::size_t job = 0;
    for (const auto &info : workloads::allWorkloads()) {
        const RunMetrics &plain = results[job].plain;
        const RunMetrics &prof = results[job].prof;
        ++job;

        int loops_o3 = plain.compileReport.loopsScheduledForPrefetch;
        int loops_prof = prof.compileReport.loopsScheduledForPrefetch;
        double norm_time = plain.cycles
                               ? static_cast<double>(prof.cycles) /
                                     static_cast<double>(plain.cycles)
                               : 1.0;
        double norm_size =
            plain.compileReport.textBytes
                ? static_cast<double>(prof.compileReport.textBytes) /
                      static_cast<double>(plain.compileReport.textBytes)
                : 1.0;

        table.addRow({info.name, std::to_string(loops_o3),
                      std::to_string(loops_prof), "1",
                      Table::fmt(norm_time, 3), "1",
                      Table::fmt(norm_size, 3)});

        if (loops_o3 > 0) {
            filtered_sum += 1.0 - static_cast<double>(loops_prof) /
                                      static_cast<double>(loops_o3);
            ++filtered_count;
        }
    }

    std::printf("%s\n", table.render().c_str());
    if (filtered_count) {
        std::printf("average fraction of prefetch loops filtered out: "
                    "%.0f%% (paper: 83%%)\n",
                    filtered_sum / filtered_count * 100.0);
    }
    return 0;
}
