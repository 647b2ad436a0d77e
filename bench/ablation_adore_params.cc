/**
 * @file
 * Ablation studies on ADORE's design parameters (the design choices
 * DESIGN.md calls out, plus the paper's future-work items):
 *
 *  1. the top-3 delinquent-load budget (Section 3.1) — what would more
 *     reserved registers buy?  (the applu complaint: "we need a more
 *     sophisticated algorithm to handle a large number of prefetches");
 *  2. the PMU sampling interval (Section 4.3 recommends >= 100k
 *     cycles/sample; scaled here) — overhead vs detection latency;
 *  3. reverting nonprofitable traces (Section 2.3's "detect and fix
 *     nonprofitable ones") — implemented as an extension and measured
 *     on gcc, the paper's one regressing benchmark.
 */

#include "bench_common.hh"
#include "workloads/common.hh"

using namespace adore;
using namespace adore::bench;

int
main()
{
    printHeader("Ablations — ADORE design parameters");

    CompileOptions o2 = restrictedOptions(OptLevel::O2);

    // --- 1. Top-k delinquent loads per trace ------------------------
    std::printf("1. top-k delinquent-load budget "
                "(paper: k=3, four reserved registers)\n\n");
    {
        Table t({"workload", "k=1", "k=2", "k=3 (paper)", "k=4"});
        const char *names[] = {"applu", "art", "swim"};
        std::vector<WorkloadJob> jobs;
        for (const char *name : names) {
            hir::Program prog = workloads::make(name);
            jobs.push_back({prog, workloadConfig(o2, false)});
            for (int k = 1; k <= 4; ++k) {
                RunConfig cfg = workloadConfig(o2, true);
                cfg.adoreConfig.maxPrefetchLoadsPerTrace = k;
                jobs.push_back({prog, cfg});
            }
        }
        std::vector<RunMetrics> results = runJobs(jobs);

        std::size_t job = 0;
        for (const char *name : names) {
            RunMetrics base = results[job++];
            std::vector<std::string> row = {name};
            for (int k = 1; k <= 4; ++k) {
                RunMetrics m = results[job++];
                row.push_back(Table::pct(
                    Experiment::speedup(base.cycles, m.cycles)));
            }
            t.addRow(row);
        }
        std::printf("%s\n", t.render().c_str());
    }

    // --- 2. Sampling interval ---------------------------------------
    std::printf("2. sampling interval R (scaled; paper recommends the "
                "equivalent of >= 100k cy/sample)\n\n");
    {
        Table t({"R (cycles)", "mcf speedup", "mesa overhead-only"});
        hir::Program mcf = workloads::make("mcf");
        hir::Program mesa = workloads::make("mesa");
        const Cycle intervals[] = {1'000u, 2'000u, 4'000u, 8'000u,
                                   16'000u};
        std::vector<WorkloadJob> jobs;
        jobs.push_back({mcf, workloadConfig(o2, false)});
        jobs.push_back({mesa, workloadConfig(o2, false)});
        for (Cycle r : intervals) {
            RunConfig cfg = workloadConfig(o2, true);
            cfg.adoreConfig.sampler.interval = r;
            jobs.push_back({mcf, cfg});

            RunConfig mon = cfg;
            mon.adoreConfig.insertPrefetches = false;
            jobs.push_back({mesa, mon});
        }
        std::vector<RunMetrics> results = runJobs(jobs);

        std::size_t job = 0;
        RunMetrics mcf_base = results[job++];
        RunMetrics mesa_base = results[job++];
        for (Cycle r : intervals) {
            RunMetrics m = results[job++];
            RunMetrics o = results[job++];

            t.addRow({std::to_string(r),
                      Table::pct(Experiment::speedup(mcf_base.cycles,
                                                     m.cycles)),
                      Table::pct(static_cast<double>(o.cycles) /
                                     static_cast<double>(
                                         mesa_base.cycles) -
                                 1.0)});
        }
        std::printf("%s\n", t.render().c_str());
    }

    // --- 3. Reverting nonprofitable traces --------------------------
    std::printf("3. reverting nonprofitable traces "
                "(extension; paper Section 2.3)\n\n");
    {
        // "shuffled-walk" is the adversarial case: a fully shuffled
        // linked list, where the induction-pointer heuristic issues
        // useless prefetches that pollute the caches and waste bus
        // bandwidth — the optimized trace is *worse* than the original
        // and the revert extension should undo it.
        auto make_prog = [](const std::string &name) {
            if (name != "shuffled-walk")
                return workloads::make(name);
            hir::Program prog;
            prog.name = name;
            int list = workloads::linkedList(prog, "nodes", 12'000, 96,
                                             1.0);
            // Warm-up traversal so the hot phase is profiled against
            // the list already resident in L3.
            hir::LoopBody warm;
            warm.chases.push_back({list, 8});
            workloads::phase(
                prog, workloads::addLoop(prog, "warm", 11'900, warm),
                1);
            hir::LoopBody body;
            body.chases.push_back({list, 8});
            body.extraIntOps = 6;
            workloads::phase(
                prog, workloads::addLoop(prog, "walk", 11'900, body),
                40);
            return prog;
        };

        Table t({"workload", "no revert (paper)", "with revert",
                 "batches reverted"});
        const char *names[] = {"shuffled-walk", "gcc", "vortex", "mcf"};
        std::vector<WorkloadJob> jobs;
        for (const char *name : names) {
            hir::Program prog = make_prog(name);
            jobs.push_back({prog, workloadConfig(o2, false)});
            RunConfig cfg = workloadConfig(o2, true);
            jobs.push_back({prog, cfg});
            cfg.adoreConfig.revertUnprofitableTraces = true;
            jobs.push_back({prog, cfg});
        }
        std::vector<RunMetrics> results = runJobs(jobs);

        std::size_t job = 0;
        for (const char *name : names) {
            RunMetrics base = results[job++];
            RunMetrics plain = results[job++];
            RunMetrics rev = results[job++];
            t.addRow({name,
                      Table::pct(Experiment::speedup(base.cycles,
                                                     plain.cycles)),
                      Table::pct(Experiment::speedup(base.cycles,
                                                     rev.cycles)),
                      std::to_string(rev.adoreStats.phasesReverted)});
        }
        std::printf("%s\n", t.render().c_str());
    }
    return 0;
}
