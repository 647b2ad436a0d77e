/**
 * @file
 * profile_guided: demonstrate the paper's Section 4.2 flow — feed a
 * perfmon-style cache-miss profile back into the ORC-like static
 * compiler so it prefetches only the loops that actually miss.
 *
 * Usage: example_profile_guided [workload]   (default: fma3d)
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "workloads/workloads.hh"

using namespace adore;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "fma3d";
    hir::Program prog = workloads::make(name);

    // Plain O3: the static pass schedules every loop it can prove
    // legal, without knowing which ones actually miss.
    RunConfig o3;
    o3.compile.level = OptLevel::O3;
    RunMetrics plain = Experiment::run(prog, o3);

    // Training run: sample the PMU over an O2 execution, keep the
    // delinquent loads covering 90% of total miss latency, and map
    // them back to source loops.
    CompileOptions train;
    train.level = OptLevel::O2;
    MissProfile profile = Experiment::collectProfile(prog, train, 0.9);

    // O3 + profile: prefetch only the loops the profile marks hot.
    RunConfig guided = o3;
    guided.compile.profile = &profile;
    RunMetrics filtered = Experiment::run(prog, guided);

    std::printf("profile-guided static prefetching on '%s'\n\n",
                name.c_str());
    std::printf("%-34s %10s %14s\n", "", "O3", "O3+profile");
    std::printf("%-34s %10d %14d\n", "loops scheduled for prefetch",
                plain.compileReport.loopsScheduledForPrefetch,
                filtered.compileReport.loopsScheduledForPrefetch);
    std::printf("%-34s %10d %14d\n", "prefetch instructions",
                plain.compileReport.prefetchesInserted,
                filtered.compileReport.prefetchesInserted);
    std::printf("%-34s %10zu %14zu\n", "binary size (bytes)",
                plain.compileReport.textBytes,
                filtered.compileReport.textBytes);
    std::printf("%-34s %10llu %14llu\n", "execution cycles",
                static_cast<unsigned long long>(plain.cycles),
                static_cast<unsigned long long>(filtered.cycles));
    std::printf("\nhot loops in profile: %zu\n",
                profile.hotLoops.size());
    std::printf("normalized execution time: %.3f (paper: ~0.99-1.01)\n",
                static_cast<double>(filtered.cycles) /
                    static_cast<double>(plain.cycles));
    std::printf("normalized binary size:    %.3f (paper: 0.91-1.00)\n",
                static_cast<double>(filtered.compileReport.textBytes) /
                    static_cast<double>(plain.compileReport.textBytes));
    return 0;
}
