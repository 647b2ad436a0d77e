/**
 * @file
 * Workload `registry_tiers`: every registered workload at restricted O2,
 * in the interpreter and the direct-threaded tier, with ADORE off and
 * on — 68 runs, one at a time on the calling thread, the two tiers of
 * each (workload, arm) pair back to back.
 *
 * Every run is checked: it must halt, pass
 * invariants::checkSelfConsistent, and agree with its other-tier twin
 * under invariants::diffIdentity (the ADORE block included on the ADORE
 * arm).  The benchmark seed is the compile dataSeed, so seed 1 is the
 * configuration EXPERIMENTS.md publishes.
 */

#include <cmath>
#include <cstdio>

#include "common.hh"
#include "harness/invariants.hh"
#include "observe/report.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

using adore::ExecTier;
using adore::RunMetrics;

struct Job
{
    std::size_t wl = 0;
    bool adore = false;
    ExecTier tier = ExecTier::Interpreter;
};

struct JobResult
{
    RunMetrics m;
    double wall = 0.0;
    double threadCpu = 0.0;
    double processCpu = 0.0;
};

struct Pass
{
    std::vector<JobResult> results;  ///< parallel to the job list
    double wall = 0.0;
    double cpu = 0.0;
};

const char *
tierTag(ExecTier t)
{
    return t == ExecTier::Interpreter ? "interp" : "direct";
}

Pass
runPass(const std::vector<adore::hir::Program> &progs,
        const std::vector<Job> &jobs, std::uint64_t dataSeed,
        Tracer &tracer)
{
    Pass pass;
    pass.results.resize(jobs.size());
    double w0 = wallS();
    double c0 = processCpuS();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Job &job = jobs[i];
        adore::RunConfig cfg;
        cfg.compile = restrictedOptions(adore::OptLevel::O2, dataSeed);
        cfg.machine.cpu.execTier = job.tier;
        if (job.adore) {
            cfg.adore = true;
            cfg.adoreConfig = adore::Experiment::defaultAdoreConfig();
        }
        std::string name = progs[job.wl].name + "/" + tierTag(job.tier) +
                           "/" + (job.adore ? "adore" : "base");
        JobResult &r = pass.results[i];
        double jw = wallS();
        double jt = threadCpuS();
        double jp = processCpuS();
        {
            Tracer::Scope span(tracer, "Experiment::run", 0, name);
            r.m = adore::Experiment::run(progs[job.wl], cfg);
        }
        r.wall = wallS() - jw;
        r.threadCpu = threadCpuS() - jt;
        r.processCpu = processCpuS() - jp;
    }
    pass.wall = wallS() - w0;
    pass.cpu = processCpuS() - c0;
    return pass;
}

double
share(std::uint64_t part, std::uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

} // namespace

Outcome
runRegistryTiers(const Options &opt, Tracer &tracer)
{
    Outcome out;
    const auto &all = adore::workloads::allWorkloads();
    std::vector<std::size_t> chosen;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (!opt.small || all[i].name == "mcf" || all[i].name == "gzip")
            chosen.push_back(i);

    // Set-up (repeated; the fastest is reported).
    std::vector<std::string> names;
    for (std::size_t i : chosen)
        names.push_back(all[i].name);
    std::vector<adore::hir::Program> progs;
    std::vector<double> setups, makes, compiles;
    Tracer off(false);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        double t0 = wallS();
        ProgramSet set = buildPrograms(names, {adore::OptLevel::O2},
                                       opt.seed, rep == 0 ? tracer : off);
        setups.push_back(wallS() - t0);
        makes.push_back(set.makeS);
        compiles.push_back(set.compileS);
        progs = std::move(set.progs);
    }

    std::string experiments;
    adore::report::readFile(opt.root + "/EXPERIMENTS.md", experiments);
    auto paper = paperFig07a(experiments);

    std::vector<Job> jobs;
    for (std::size_t w = 0; w < progs.size(); ++w)
        for (bool adoreOn : {false, true})
            for (ExecTier tier :
                 {ExecTier::Interpreter, ExecTier::DirectThreaded})
                jobs.push_back({w, adoreOn, tier});

    // Timed passes (untraced): at least one, and another only while it
    // is expected to end within --seconds.  A traced run makes one
    // untraced pass for the overhead baseline, then one traced pass.
    Tracer untraced(false);
    std::vector<Pass> passes;
    double start = wallS();
    do {
        passes.push_back(runPass(progs, jobs, opt.seed, untraced));
    } while (!opt.trace &&
             wallS() - start + passes.back().wall <= opt.seconds);
    double tracedWall = 0.0;
    if (opt.trace) {
        Pass traced = runPass(progs, jobs, opt.seed, tracer);
        tracedWall = traced.wall;
    }

    // Correctness on every pass: halt, self-consistency, tier identity.
    std::vector<std::string> problems;
    for (const Pass &pass : passes) {
        for (std::size_t i = 0; i + 1 < jobs.size(); i += 2) {
            RunMetrics interp = pass.results[i].m;
            const RunMetrics &direct = pass.results[i + 1].m;
            if (opt.plantMismatch && i == 0)
                interp.cycles += 1;
            std::string name = progs[jobs[i].wl].name +
                               (jobs[i].adore ? "/adore" : "/base");
            for (const RunMetrics *m :
                 std::initializer_list<const RunMetrics *>{&interp,
                                                            &direct}) {
                ++out.attempted;
                std::vector<std::string> bad;
                if (!m->halted)
                    bad.push_back("did not halt");
                adore::invariants::checkSelfConsistent(*m, "", bad);
                if (m == &direct)
                    adore::invariants::diffIdentity(interp, direct,
                                                    jobs[i].adore, bad);
                if (!bad.empty()) {
                    ++out.failed;
                    problems.push_back(name + ": " + bad.front());
                }
            }
        }
    }
    for (const std::string &p : problems)
        out.notes.push_back("FAIL " + p);

    // End-to-end: medians over passes of the host totals; simulated
    // figures are identical on every pass.
    const Pass &first = passes.front();
    std::vector<double> walls, cpus, mips, tierRatios;
    for (const Pass &pass : passes) {
        double retired = 0.0, interpCpu = 0.0, directCpu = 0.0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const JobResult &r = pass.results[i];
            retired += static_cast<double>(r.m.retired);
            (jobs[i].tier == ExecTier::Interpreter ? interpCpu
                                                   : directCpu) +=
                r.processCpu;
        }
        walls.push_back(pass.wall);
        cpus.push_back(pass.cpu);
        mips.push_back(retired / pass.wall / 1e6);
        tierRatios.push_back(interpCpu / directCpu);
    }
    double wall = median(walls);

    std::vector<std::pair<std::string, double>> gains;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        // Direct-tier ADORE run; its base twin is two jobs earlier.
        if (jobs[i].tier != ExecTier::DirectThreaded || !jobs[i].adore)
            continue;
        double gain = adore::Experiment::speedup(
            first.results[i - 2].m.cycles, first.results[i].m.cycles);
        gains.emplace_back(progs[jobs[i].wl].name, gain * 100.0);
    }

    out.layer("host.wall_s", wall, "s");
    out.layer("host.cpu_s", median(cpus), "s");
    out.e2e("peak_rss_mb", peakRssMb(), "MiB");
    out.e2e("setup_s", fastest(setups), "s");
    out.e2e("ok_share",
            1.0 - share(out.failed, out.attempted), "share");
    out.layer("host.sim_mips", median(mips), "MIPS");
    out.e2e("tier_speedup", median(tierRatios), "x");
    out.e2e("adore_speedup_geomean", geomeanSpeedup(gains), "x");
    out.notes.push_back(kFidelityNote);
    out.e2e("paper_gap_pp", paperGapPp(gains, paper), "pp");
    out.layer("host.jobs_per_s", static_cast<double>(jobs.size()) / wall,
              "1/s");
    // One pass of the matrix is one request.
    out.layer("host.job_p50_ms", wall * 1e3, "ms");
    out.layer("host.job_p99_ms", percentile(walls, 99) * 1e3, "ms");
    out.notes.push_back("passes: " + std::to_string(passes.size()) + " x " +
                        std::to_string(jobs.size()) + " runs");

    if (!opt.trace)
        return out;

    // ---- per-layer split (traced run) ---------------------------------
    // From the untraced pass, so tracing never colours them.
    TierLedger tiers;
    double hostBase = 0.0, hostAdore = 0.0, optWait = 0.0, optCpu = 0.0;
    std::uint64_t phases = 0, patched = 0, unpatched = 0, prefetches = 0;
    std::uint64_t delivered = 0, dropped = 0;
    adore::CacheStats l1d, l2, l3;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobResult &r = first.results[i];
        const Job &job = jobs[i];
        tiers.add(progs[job.wl].name, r.m, r.processCpu, r.wall, !job.adore);
        if (job.adore) {
            optWait += r.wall - r.threadCpu;
            optCpu += r.processCpu - r.threadCpu;
        }
        if (job.tier != ExecTier::DirectThreaded)
            continue;
        if (!job.adore) {
            hostBase += r.processCpu;
            continue;
        }
        hostAdore += r.processCpu;
        const adore::AdoreStats &st = r.m.adoreStats;
        phases += st.phasesOptimized;
        patched += st.tracesPatched;
        unpatched += st.tracesUnpatched;
        prefetches += static_cast<std::uint64_t>(
            st.directPrefetches + st.indirectPrefetches +
            st.pointerPrefetches);
        delivered += r.m.samplerStats.batchesDelivered;
        dropped += r.m.samplerStats.totalDropped();
        for (auto [acc, src] :
             {std::pair{&l1d, &r.m.l1dStats}, {&l2, &r.m.l2Stats},
              {&l3, &r.m.l3Stats}}) {
            acc->accesses += src->accesses;
            acc->misses += src->misses;
        }
    }
    tiers.emit(out);
    out.layer("runtime.host_overhead", hostAdore / hostBase, "x");
    out.layer("runtime.optimizer_wait_s", optWait, "s");
    out.layer("runtime.optimizer_cpu_s", optCpu, "s");
    out.layer("runtime.phases_optimized", static_cast<double>(phases),
              "count");
    out.layer("runtime.traces_patched", static_cast<double>(patched),
              "count");
    out.layer("runtime.traces_unpatched", static_cast<double>(unpatched),
              "count");
    out.layer("runtime.patch_keep_share",
              1.0 - share(unpatched, patched), "share");
    out.layer("runtime.prefetches_inserted", static_cast<double>(prefetches),
              "count");
    out.layer("pmu.batches_delivered", static_cast<double>(delivered),
              "count");
    out.layer("pmu.drop_share", share(dropped, delivered + dropped),
              "share");
    out.layer("mem.l1d_miss_share", share(l1d.misses, l1d.accesses),
              "share");
    out.layer("mem.l2_miss_share", share(l2.misses, l2.accesses), "share");
    out.layer("mem.l3_miss_share", share(l3.misses, l3.accesses), "share");

    out.layer("compiler.compile_s", fastest(compiles), "s");
    out.layer("workloads.make_s", fastest(makes), "s");
    out.layer("trace.overhead_s", tracedWall - first.wall, "s");
    return out;
}

} // namespace perfbench
