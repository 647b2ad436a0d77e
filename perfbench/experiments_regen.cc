/**
 * @file
 * Workload `experiments_regen`: report::regenerateExperiments over the
 * committed EXPERIMENTS.md text, with Experiment::runMany held to two
 * pool workers — 85 runs (fig07a/table2's 34 plus the hwpf-study arms).
 *
 * The workload is fixed by design: it checks the committed numbers, so
 * the benchmark seed does not change it.  A pass is ok when the
 * regenerated text equals the committed text byte for byte.
 */

#include <cmath>
#include <cstdlib>
#include <string>

#include "common.hh"
#include "harness/invariants.hh"
#include "observe/report.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

/** Pool width for the regeneration; 4 workers drifted 10% run to run. */
constexpr unsigned kWorkers = 2;
/** Simulated-cycle budget of each tier replay. */
constexpr std::uint64_t kReplayCycles = 2'000'000;

} // namespace

Outcome
runExperimentsRegen(const Options &opt, Tracer &tracer)
{
    Outcome out;
    // runMany sizes its pool from ADORE_JOBS.
    setenv("ADORE_JOBS", std::to_string(kWorkers).c_str(), 1);

    // Set-up: load the committed document, build and compile the
    // registry the regeneration draws on (repeated; the fastest is reported).
    std::vector<std::string> names;
    for (const auto &info : adore::workloads::allWorkloads())
        names.push_back(info.name);
    std::string committed;
    std::vector<double> setups, makes, compiles;
    Tracer off(false);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        double t0 = wallS();
        committed.clear();
        if (!adore::report::readFile(opt.root + "/EXPERIMENTS.md",
                                     committed)) {
            out.notes.push_back("FAIL cannot read EXPERIMENTS.md");
            out.attempted = out.failed = 1;
            return out;
        }
        ProgramSet set =
            buildPrograms(names, {adore::OptLevel::O2, adore::OptLevel::O3},
                          1, rep == 0 ? tracer : off);
        setups.push_back(wallS() - t0);
        makes.push_back(set.makeS);
        compiles.push_back(set.compileS);
    }

    // The self-test regenerates the fig07a block alone (34 runs).
    std::string input = committed;
    if (opt.small) {
        const std::string end = "<!-- END GENERATED: fig07a -->";
        input = committed.substr(0, committed.find(end) + end.size()) +
                "\n";
    }
    // Runs the regeneration performs per pass.
    const double runsPerPass =
        opt.small ? 34.0 : 17.0 * 5.0;

    struct Pass
    {
        double wall = 0.0;
        double cpu = 0.0;
        std::string text;
    };
    auto regen = [&](Tracer &t) {
        Pass p;
        double w0 = wallS();
        double c0 = processCpuS();
        {
            Tracer::Scope span(t, "report::regenerateExperiments");
            p.text = adore::report::regenerateExperiments(input);
        }
        p.wall = wallS() - w0;
        p.cpu = processCpuS() - c0;
        return p;
    };

    // At least one pass, and another only while it is expected to end
    // within --seconds.
    Tracer untraced(false);
    std::vector<Pass> passes;
    double start = wallS();
    do {
        passes.push_back(regen(untraced));
    } while (!opt.trace &&
             wallS() - start + passes.back().wall <= opt.seconds);
    double tracedWall = opt.trace ? regen(tracer).wall : 0.0;

    for (const Pass &p : passes) {
        ++out.attempted;
        if (p.text != input) {
            ++out.failed;
            out.notes.push_back(
                "FAIL regenerated EXPERIMENTS.md differs from the "
                "committed text");
        }
    }

    // Every workload must print every end-to-end metric, and the
    // regeneration runs the direct tier only.  So the fig07a baseline
    // (restricted O2, no runtime) of every registered workload is
    // replayed on this thread over its first kReplayCycles cycles, in the
    // interpreter and the direct tier, which must agree under
    // diffIdentity.  The replays give tier_speedup and the cpu.* split.
    // Many runs of even length keep the ratio steady; a few full runs,
    // where the longest dominate the sums, did not.
    std::vector<adore::hir::Program> progs;
    for (const std::string &name : names)
        if (!opt.small || name == "mcf")
            progs.push_back(adore::workloads::make(name));
    std::vector<Replay> replays;
    for (const adore::hir::Program &prog : progs) {
        for (adore::ExecTier tier :
             {adore::ExecTier::Interpreter, adore::ExecTier::DirectThreaded}) {
            Replay r{&prog, {}, prog.name};
            r.cfg.compile = restrictedOptions(adore::OptLevel::O2, 1);
            r.cfg.machine.cpu.execTier = tier;
            r.cfg.maxCycles = kReplayCycles;
            r.cfg.quietCycleLimit = true;
            r.key += tier == adore::ExecTier::Interpreter ? "/interp/base"
                                                          : "/direct/base";
            replays.push_back(r);
        }
    }
    std::vector<TimedRun> runs = replayFastest(replays, tracer);
    double retired = 0.0, replayWall = 0.0, interpCpu = 0.0, directCpu = 0.0;
    TierLedger tiers;
    for (std::size_t i = 0; i < progs.size(); ++i) {
        const TimedRun &interp = runs[2 * i];
        const TimedRun &direct = runs[2 * i + 1];
        interpCpu += interp.cpuS;
        directCpu += direct.cpuS;
        for (const TimedRun *r : {&interp, &direct}) {
            replayWall += r->wallS;
            retired += static_cast<double>(r->m.retired);
            tiers.add(progs[i].name, r->m, r->cpuS, r->wallS, true);
        }
        ++out.attempted;
        std::vector<std::string> bad;
        adore::invariants::diffIdentity(interp.m, direct.m, false, bad);
        if (!bad.empty()) {
            ++out.failed;
            out.notes.push_back("FAIL replay of " + progs[i].name + ": " +
                                bad.front());
        }
    }

    std::vector<double> walls, cpus;
    for (const Pass &p : passes) {
        walls.push_back(p.wall);
        cpus.push_back(p.cpu);
    }
    double wall = median(walls);
    double cpu = median(cpus);
    auto paper = paperFig07a(committed);
    auto measured = measuredFig07a(passes.front().text);

    out.layer("host.wall_s", wall, "s");
    out.layer("host.cpu_s", cpu, "s");
    out.e2e("peak_rss_mb", peakRssMb(), "MiB");
    out.e2e("setup_s", fastest(setups), "s");
    out.e2e("ok_share",
            1.0 - static_cast<double>(out.failed) /
                      static_cast<double>(out.attempted),
            "share");
    out.e2e("adore_speedup_geomean", geomeanSpeedup(measured), "x");
    out.notes.push_back(kFidelityNote);
    out.e2e("paper_gap_pp", paperGapPp(measured, paper), "pp");
    out.layer("host.sim_mips", retired / replayWall / 1e6, "MIPS");
    out.e2e("tier_speedup", interpCpu / directCpu, "x");
    out.layer("host.jobs_per_s", runsPerPass / wall, "1/s");
    // One regeneration is one request.
    out.layer("host.job_p50_ms", median(walls) * 1e3, "ms");
    out.layer("host.job_p99_ms", percentile(walls, 99) * 1e3, "ms");
    out.notes.push_back("passes: " + std::to_string(passes.size()) +
                        " regenerations of " +
                        std::to_string(static_cast<int>(runsPerPass)) +
                        " runs on " + std::to_string(kWorkers) +
                        " pool workers; " +
                        std::to_string(replays.size() * kReplayRounds) +
                        " replay runs");

    if (!opt.trace)
        return out;
    tiers.emit(out);
    out.layer("harness.pool_busy_share", cpu / (wall * kWorkers), "share");
    out.layer("observe.regen_s", wall, "s");
    out.layer("compiler.compile_s", fastest(compiles), "s");
    out.layer("workloads.make_s", fastest(makes), "s");
    out.layer("trace.overhead_s", tracedWall - passes.front().wall, "s");
    return out;
}

} // namespace perfbench
